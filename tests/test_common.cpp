// Unit tests for the common utilities: RNG, stats, histogram, options,
// and the determinism-safe FlatMap.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <set>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/flat_map.hpp"
#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "runner/cli.hpp"

namespace tlrob {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(r.below(17), 17u);
  EXPECT_EQ(r.below(0), 0u);
  EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, BetweenIsInclusive) {
  Rng r(3);
  std::set<u64> seen;
  for (int i = 0; i < 1000; ++i) {
    const u64 v = r.between(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all four values appear
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceRespectsProbability) {
  Rng r(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += r.chance(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, GeometricMeanAndCap) {
  Rng r(17);
  double sum = 0;
  for (int i = 0; i < 5000; ++i) {
    const u64 v = r.geometric(0.25, 100);
    ASSERT_GE(v, 1u);
    ASSERT_LE(v, 100u);
    sum += static_cast<double>(v);
  }
  EXPECT_NEAR(sum / 5000.0, 4.0, 0.4);
  EXPECT_EQ(r.geometric(1.0, 10), 1u);
  EXPECT_EQ(r.geometric(0.0, 10), 10u);
}

TEST(Stats, CounterBasics) {
  StatGroup g;
  g.counter("a").inc();
  g.counter("a").inc(4);
  EXPECT_EQ(g.counter_value("a"), 5u);
  EXPECT_EQ(g.counter_value("missing"), 0u);
  EXPECT_TRUE(g.has_counter("a"));
  EXPECT_FALSE(g.has_counter("missing"));
}

TEST(Stats, AverageBasics) {
  StatGroup g;
  g.average("x").sample(1.0);
  g.average("x").sample(3.0);
  EXPECT_DOUBLE_EQ(g.average("x").mean(), 2.0);
  EXPECT_EQ(g.average("x").count(), 2u);
  EXPECT_DOUBLE_EQ(g.average("never").mean(), 0.0);
}

TEST(Stats, ResetClearsEverything) {
  StatGroup g;
  g.counter("a").inc(3);
  g.average("b").sample(9);
  g.reset();
  EXPECT_EQ(g.counter_value("a"), 0u);
  EXPECT_EQ(g.average("b").count(), 0u);
}

TEST(Histogram, RecordAndClamp) {
  Histogram h(31);
  h.record(0);
  h.record(5);
  h.record(31);
  h.record(100);  // clamps into the 31+ bucket
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(5), 1u);
  EXPECT_EQ(h.bucket(31), 2u);
  EXPECT_EQ(h.total_samples(), 4u);
  // Mean uses true values, not the clamped ones.
  EXPECT_DOUBLE_EQ(h.mean(), (0 + 5 + 31 + 100) / 4.0);
}

TEST(Histogram, MergeAddsBuckets) {
  Histogram a(15), b(15);
  a.record(3);
  b.record(3);
  b.record(7);
  a.merge(b);
  EXPECT_EQ(a.bucket(3), 2u);
  EXPECT_EQ(a.bucket(7), 1u);
  EXPECT_EQ(a.total_samples(), 3u);
}

TEST(Histogram, MergeRejectsMismatchedWidth) {
  Histogram a(15), b(31);
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(Histogram, PercentileEmptyIsZero) {
  Histogram h(15);
  EXPECT_EQ(h.percentile(0.0), 0u);
  EXPECT_EQ(h.percentile(50.0), 0u);
  EXPECT_EQ(h.percentile(100.0), 0u);
}

TEST(Histogram, PercentileSingleBucket) {
  Histogram h(15);
  h.record(7);
  h.record(7);
  h.record(7);
  // Every rank lands in the one occupied bucket; out-of-range p is clamped.
  EXPECT_EQ(h.percentile(0.0), 7u);
  EXPECT_EQ(h.percentile(50.0), 7u);
  EXPECT_EQ(h.percentile(100.0), 7u);
  EXPECT_EQ(h.percentile(-5.0), 7u);
  EXPECT_EQ(h.percentile(250.0), 7u);
}

TEST(Histogram, PercentileNearestRank) {
  Histogram h(15);
  for (u32 v = 1; v <= 10; ++v) h.record(v);  // one sample each of 1..10
  // Nearest-rank: p50 of 10 samples is the 5th smallest, p90 the 9th.
  EXPECT_EQ(h.percentile(50.0), 5u);
  EXPECT_EQ(h.percentile(90.0), 9u);
  EXPECT_EQ(h.percentile(100.0), 10u);
  EXPECT_EQ(h.percentile(10.0), 1u);
}

TEST(Histogram, PercentileSaturatingLastBucket) {
  Histogram h(7);  // values clamp into bucket 7
  h.record(3);
  h.record(100);
  h.record(200);
  // The saturating bucket reports the histogram's max representable value,
  // not the unclamped inputs.
  EXPECT_EQ(h.percentile(100.0), h.max_value());
  EXPECT_EQ(h.percentile(100.0), 7u);
  EXPECT_EQ(h.percentile(10.0), 3u);
}

TEST(FlatMap, LookupAndMisses) {
  FlatMap<u64, u32> m;
  m.reserve(3);
  m.emplace(30, 3);
  m.emplace(10, 1);
  m.emplace(20, 2);
  EXPECT_FALSE(m.sealed());
  m.seal();
  ASSERT_TRUE(m.sealed());
  EXPECT_EQ(m.size(), 3u);
  ASSERT_NE(m.find(10), nullptr);
  EXPECT_EQ(*m.find(10), 1u);
  EXPECT_EQ(*m.find(20), 2u);
  EXPECT_EQ(*m.find(30), 3u);
  EXPECT_EQ(m.find(15), nullptr);
  EXPECT_EQ(m.find(0), nullptr);
  EXPECT_EQ(m.find(31), nullptr);
  EXPECT_TRUE(m.contains(20));
  EXPECT_FALSE(m.contains(25));
}

TEST(FlatMap, FirstInsertionWinsLikeUnorderedEmplace) {
  FlatMap<std::string, int> m;
  m.emplace("pc", 1);
  m.emplace("pc", 2);  // duplicate: discarded at seal(), like emplace()
  m.emplace("sp", 7);
  m.seal();
  EXPECT_EQ(m.size(), 2u);
  ASSERT_NE(m.find("pc"), nullptr);
  EXPECT_EQ(*m.find("pc"), 1);
}

TEST(FlatMap, IterationIsKeySortedRegardlessOfInsertionOrder) {
  const std::vector<u64> keys = {9, 2, 7, 4, 2, 9, 1};
  FlatMap<u64, u64> forward, reversed;
  for (const u64 k : keys) forward.emplace(k, k * 10);
  for (auto it = keys.rbegin(); it != keys.rend(); ++it) reversed.emplace(*it, *it * 10);
  forward.seal();
  reversed.seal();

  std::vector<u64> order;
  for (const auto& [k, v] : forward) {
    EXPECT_EQ(v, k * 10);
    order.push_back(k);
  }
  EXPECT_EQ(order, (std::vector<u64>{1, 2, 4, 7, 9}));
  // The key sequence (though not necessarily the dup-resolved values) is
  // insertion-order independent — the D1 property block_of_pc relies on.
  std::vector<u64> order_rev;
  for (const auto& [k, v] : reversed) order_rev.push_back(k);
  EXPECT_EQ(order, order_rev);
}

TEST(FlatMap, EmptyMapBehaves) {
  FlatMap<u64, u32> m;
  m.seal();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.find(1), nullptr);
  EXPECT_EQ(m.begin(), m.end());
}

/// Options::parse over a test argv (argv[0] is added).
Options parse_args(std::vector<const char*> args, const std::vector<OptionKey>& keys) {
  args.insert(args.begin(), "prog");
  return Options::parse(static_cast<int>(args.size()), args.data(), keys);
}

const std::vector<OptionKey> kKeys = {
    {"insts", "N", ""}, {"scheme", "NAME", ""}, {"verbose", "", ""}, {"max_cycles", "N", ""}};

TEST(Options, ParsesKeyValueAndFlags) {
  const Options o = parse_args(
      {"insts=5000", "--scheme=rrob", "--verbose", "mix3", "--max-cycles", "7", "-"}, kKeys);
  EXPECT_EQ(o.get_u64("insts", 0), 5000u);
  EXPECT_EQ(o.get("scheme"), "rrob");
  EXPECT_TRUE(o.get_bool("verbose", false));
  EXPECT_EQ(o.get_u64("max_cycles", 0), 7u);
  // A name and a lone "-" are positional; a flag never takes the next token.
  EXPECT_EQ(o.positional(), (std::vector<std::string>{"mix3", "-"}));
  EXPECT_EQ(parse_args({"--verbose", "1"}, kKeys).positional(), std::vector<std::string>{"1"});
}

TEST(Options, FallbacksAndBoolSpellings) {
  Options o;
  o.set("flag", "off");
  o.set("n", "0x10");
  o.set("zero_led", "010");
  EXPECT_FALSE(o.get_bool("flag", true));
  EXPECT_EQ(o.get_u64("n", 0), 16u);
  EXPECT_EQ(o.get_u64("zero_led", 0), 10u);  // a leading zero stays decimal
  EXPECT_EQ(o.get_u64("absent", 7), 7u);
  EXPECT_DOUBLE_EQ(o.get_double("absent", 1.5), 1.5);
  for (const char* yes : {"1", "true", "yes", "on"}) {
    o.set("b", yes);
    EXPECT_TRUE(o.get_bool("b", false)) << yes;
  }
  for (const char* no : {"0", "false", "no", "off"}) {
    o.set("b", no);
    EXPECT_FALSE(o.get_bool("b", true)) << no;
  }
  for (const char* bad : {"maybe", "2", "", "TRUE"}) {
    o.set("b", bad);
    EXPECT_THROW(o.get_bool("b", false), OptionError) << bad;
  }
}

/// "'text'", built in steps: GCC 12's -O3 -Wrestrict misfires on
/// "'" + std::string(text) + "'" (PR105329).
std::string quoted(const char* text) {
  std::string q = "'";
  q += text;
  q += '\'';
  return q;
}

/// EXPECT that `fn` throws OptionError whose message holds every `parts`.
template <typename Fn>
void expect_option_error(Fn fn, std::vector<std::string> parts) {
  try {
    fn();
    ADD_FAILURE() << "no OptionError; expected one naming " << parts.front();
  } catch (const OptionError& e) {
    for (const std::string& part : parts)
      EXPECT_NE(std::string(e.what()).find(part), std::string::npos) << e.what();
  }
}

TEST(Options, MalformedNumbersThrowNamingTheKeyAndValue) {
  for (const char* bad : {"abc", "1x", "-5", "+5", "1e3", "", " 5", "0x", "0xg",
                          "18446744073709551616"}) {
    Options o;
    o.set("insts", bad);
    expect_option_error([&] { o.get_u64("insts", 0); }, {"--insts", quoted(bad)});
  }
  Options o;
  o.set("threads", "4294967296");
  expect_option_error([&] { o.get_u32("threads", 0); }, {"--threads", "4294967296"});
  o.set("threads", "4294967295");
  EXPECT_EQ(o.get_u32("threads", 0), 4294967295u);
  o.set("list", "1,16abc");
  expect_option_error([&] { o.get_u32_list("list"); }, {"--list", "16abc"});
  o.set("list", "1,0x10");
  EXPECT_EQ(o.get_u32_list("list"), (std::vector<u32>{1, 16}));
  for (const char* bad : {"1,,5", "", ",", "5,"}) {  // an empty list would run the default
    o.set("list", bad);
    expect_option_error([&] { o.get_list("list"); }, {"--list", quoted(bad)});
  }
  o.set("ratio", "0.25");
  EXPECT_DOUBLE_EQ(o.get_double("ratio", 0), 0.25);
  for (const char* bad : {"-1", "abc", "1.5x", "inf", "nan", ""}) {
    o.set("ratio", bad);
    expect_option_error([&] { o.get_double("ratio", 0); }, {"--ratio"});
  }
  EXPECT_EQ(parse_unsigned("what", "0X1f"), 31u);
  EXPECT_EQ(parse_unsigned("what", "18446744073709551615"), UINT64_MAX);
  expect_option_error([] { parse_unsigned("what", "256", 255); }, {"what", "256"});
}

TEST(Options, DashedTokenAfterAValueKeyIsItsValue) {
  // `--insts -5` is a malformed --insts, not a flag named "5".
  const Options o = parse_args({"--insts", "-5"}, kKeys);
  EXPECT_TRUE(o.positional().empty());
  expect_option_error([&] { o.get_u64("insts", 0); }, {"--insts", "'-5'"});
  EXPECT_NO_THROW(o.reject_unread("test"));
}

TEST(Options, RepeatedKeysAndMissingValuesThrow) {
  expect_option_error([] { parse_args({"--insts", "5", "--insts", "7"}, kKeys); },
                      {"--insts", "more than once"});
  expect_option_error([] { parse_args({"insts=5", "--insts=5"}, kKeys); }, {"--insts"});
  expect_option_error([] { parse_args({"max_cycles=1", "--max-cycles=1"}, kKeys); },
                      {"--max-cycles"});
  expect_option_error([] { parse_args({"--insts"}, kKeys); }, {"--insts", "expected a value"});
  expect_option_error([] { parse_args({"--insts", "--verbose"}, kKeys); }, {"--insts"});
}

TEST(Options, UndeclaredKeysAreReportedUnreadAndCannotBeRead) {
  const Options o = parse_args({"--sed", "7", "--verbose", "--force-cmp"}, kKeys);
  EXPECT_TRUE(o.positional().empty());
  EXPECT_TRUE(o.get_bool("verbose", false));
  expect_option_error([&] { o.reject_unread("simulate"); },
                      {"simulate does not use keys force_cmp= sed="});
  // Reading a key the table does not declare is a program bug: --help would
  // not list it.
  EXPECT_THROW(o.get("sed"), std::logic_error);
}

// For every declared key of every tool, the spellings the grammar accepts
// parse to the same value, and the generated help lists the key.
TEST(Options, EveryDeclaredKeyParsesTheSameInEverySpelling) {
  for (const CliSpec& cli : runner::tool_clis()) {
    const std::string help = cli_help(cli);
    std::set<std::string> names;
    for (const OptionKey& key : cli.keys) {
      const std::string name = key.name;
      const std::string flag = option_flag(name);
      EXPECT_TRUE(names.insert(name).second) << cli.name << " declares " << name << " twice";
      EXPECT_NE(help.find("  " + flag), std::string::npos) << cli.name << " " << flag;
      const bool is_flag = *key.value == '\0';
      const std::string v = is_flag ? "1" : "0x1f";
      std::vector<std::vector<std::string>> spellings = {
          {name + "=" + v}, {"--" + name + "=" + v}, {flag + "=" + v}};
      if (is_flag)
        spellings.push_back({flag});
      else
        spellings.push_back({flag, v}), spellings.push_back({"--" + name, v});
      for (const auto& spelling : spellings) {
        std::vector<const char*> args;
        for (const std::string& tok : spelling) args.push_back(tok.c_str());
        const Options o = parse_args(args, cli.keys);
        EXPECT_EQ(o.get(name), v) << cli.name << ": " << spelling.front();
        EXPECT_TRUE(o.positional().empty()) << cli.name << ": " << spelling.front();
        EXPECT_NO_THROW(o.reject_unread(cli.name));
      }
    }
  }
}

// Seeded random token streams drawn from the campaign's keys, separators,
// numbers and junk: parse and every getter either succeed or throw
// OptionError, never anything else (run under ASan/UBSan in CI).
TEST(Options, RandomTokensNeverCrash) {
  const std::vector<OptionKey>& keys = runner::tool_cli("tlrob-campaign").keys;
  const std::vector<std::string> pieces = {"-", "--", "=", ",", "0x", "1", "42", "-5", "abc",
                                           "4294967296", "18446744073709551616", "", "fig2",
                                           "max-cycles", "jobs", "resume", "h", "help", "x_y"};
  Rng rng(2026);
  for (int round = 0; round < 3000; ++round) {
    std::vector<std::string> tokens;
    const u64 count = rng.below(6);
    for (u64 t = 0; t < count; ++t) {
      std::string tok;
      const u64 parts = 1 + rng.below(3);
      for (u64 p = 0; p < parts; ++p) {
        tok += rng.below(3) == 0 ? pieces[rng.below(pieces.size())]
                                 : keys[rng.below(keys.size())].name;
      }
      tokens.push_back(tok);
    }
    std::vector<const char*> args;
    for (const std::string& tok : tokens) args.push_back(tok.c_str());
    try {
      const Options o = parse_args(args, keys);
      for (const OptionKey& key : keys) {
        try {
          (void)o.get_u64(key.name, 0);
        } catch (const OptionError&) {
        }
        try {
          (void)o.get_bool(key.name, false);
        } catch (const OptionError&) {
        }
        try {
          (void)o.get_u32_list(key.name);
        } catch (const OptionError&) {
        }
      }
      try {
        o.reject_unread("fuzz");
      } catch (const OptionError&) {
      }
    } catch (const OptionError&) {
      // A repeated key or a value key without a value.
    }
  }
}

TEST(Options, RunCliExitsTwoOnBadInputAndPassesTheBodysCode) {
  const CliSpec cli{"tool", "[key=value ...]", {{"insts", "N", "target"}}, 1};
  auto run = [&](std::vector<const char*> args) {
    args.insert(args.begin(), "tool");
    return run_cli(static_cast<int>(args.size()), args.data(), cli, [](const Options& o) {
      const u64 insts = o.get_u64("insts", 3);
      o.reject_unread("tool");
      return static_cast<int>(insts);
    });
  };
  EXPECT_EQ(run({}), 3);
  EXPECT_EQ(run({"--insts", "5", "one"}), 5);
  EXPECT_EQ(run({"one", "two"}), 2);        // surplus positional
  EXPECT_EQ(run({"--insts", "5x"}), 2);      // malformed value
  EXPECT_EQ(run({"--insts", "1", "insts=1"}), 2);  // repeated key
  EXPECT_EQ(run({"--sed", "7"}), 2);         // undeclared key
}

}  // namespace
}  // namespace tlrob
