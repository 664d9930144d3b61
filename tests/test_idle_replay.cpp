// Idle fast-forward through the reactive schemes' re-checks.
//
// While a core is quiescent, a reactive re-check (R-ROB, Relaxed R-ROB,
// CDR-ROB) can only defer until one of two time gates moves its outcome: the
// releasing thread's cooldown ending, or the holder's lease limit passing.
// TwoLevelRobController::next_wake therefore wakes the core only at the first
// re-check that would act, and replay_idle applies the deferrals in between.
// These tests hold that to the cycle-by-cycle machine:
//
//   * with short leases and cooldowns (tens of cycles), so gate crossings fall
//     inside idle spans, a fast-forwarding run and a run pinned by the full
//     auditor agree on every counter except core.fast_forwarded_cycles, on
//     the single SMT core and the CMP machine;
//   * a 4-core x 4-thread memory-bound cell under R-ROB16 fast-forwards a
//     pinned share of its cycles, a host-independent guard on the speed-up.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "sim/cmp.hpp"
#include "sim/metrics.hpp"
#include "sim/presets.hpp"
#include "sim/smt_sim.hpp"
#include "workload/mixes.hpp"
#include "workload/spec_profiles.hpp"

namespace tlrob {
namespace {

// Leases expire and cooldowns end inside the idle spans of a memory-bound
// mix (an L2 miss alone outlasts the lease).
MachineConfig short_leases(MachineConfig cfg) {
  cfg.rob.lease_limit = 60;
  cfg.rob.lease_cooldown = 200;
  cfg.audit.level = AuditLevel::kOff;
  return cfg;
}

// The full auditor pins every core to cycle-by-cycle execution (and checks
// the second-level allocation contract along the way).
MachineConfig audited(MachineConfig cfg) {
  cfg.audit.level = AuditLevel::kFull;
  cfg.audit.cheap_interval = 1;
  cfg.audit.full_interval = 16;
  cfg.audit.abort_on_violation = true;
  return cfg;
}

// One benchmark per hardware thread, cycling Table 2's Mix 1 (ammp, art,
// mgrid, apsi): its threads block on misses at the head of a full window, so
// cooldowns often end while the whole core is idle.
std::vector<Benchmark> mix1_threads(const MachineConfig& cfg) {
  const auto base = mix_benchmarks(table2_mix(1));
  std::vector<Benchmark> out;
  const size_t n = static_cast<size_t>(cfg.num_cores) * cfg.num_threads;
  for (size_t i = 0; i < n; ++i) out.push_back(base[i % base.size()]);
  return out;
}

void expect_same_histogram(const Histogram& a, const Histogram& b) {
  EXPECT_EQ(a.total_samples(), b.total_samples());
  EXPECT_EQ(a.mean(), b.mean());
  ASSERT_EQ(a.max_value(), b.max_value());
  for (u32 v = 0; v <= a.max_value(); ++v)
    EXPECT_EQ(a.bucket(v), b.bucket(v)) << "bucket " << v;
}

bool is_audit_counter(const std::string& name) { return name.rfind("audit.", 0) == 0; }

// Every simulated result of `ff` equals `pinned`'s; the auditor's own
// bookkeeping (audit.*) and the fast-forward count are the only exceptions.
void expect_same_simulation(const RunResult& ff, const RunResult& pinned) {
  EXPECT_EQ(ff.cycles, pinned.cycles);
  ASSERT_EQ(ff.threads.size(), pinned.threads.size());
  for (size_t t = 0; t < ff.threads.size(); ++t) {
    EXPECT_EQ(ff.threads[t].committed, pinned.threads[t].committed) << "thread " << t;
    EXPECT_EQ(ff.threads[t].ipc, pinned.threads[t].ipc) << "thread " << t;
  }
  for (const auto& [name, v] : pinned.counters) {
    if (is_audit_counter(name) || name == "core.fast_forwarded_cycles") continue;
    const auto it = ff.counters.find(name);
    ASSERT_NE(it, ff.counters.end()) << name;
    EXPECT_EQ(it->second, v) << name;
  }
  for (const auto& [name, v] : ff.counters) {
    if (is_audit_counter(name)) continue;
    EXPECT_TRUE(pinned.counters.count(name) != 0) << name;
  }
  EXPECT_EQ(pinned.counters.at("core.fast_forwarded_cycles"), 0u);
  EXPECT_GT(ff.counters.at("core.fast_forwarded_cycles"), 0u);
  expect_same_histogram(ff.dod_true, pinned.dod_true);
  expect_same_histogram(ff.dod_proxy, pinned.dod_proxy);
}

// rob.dod_at_decision is an average, not a RunResult counter: compare the
// controllers' own (replayed samples are added k at a time).
void expect_same_decision_average(SmtCore& ff, SmtCore& pinned) {
  const Average& a = ff.rob_controller().stats().average("dod_at_decision");
  const Average& b = pinned.rob_controller().stats().average("dod_at_decision");
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.sum(), b.sum());
}

// Runs `ff_and_pinned(threshold)` -> {fast-forwarding, pinned} results at two
// DoD thresholds: at 8 many candidates are rejected with a DoD at or above
// it (counted deferrals), at 16 more are granted (releases, cooldowns). Both
// must match the pinned machine, and the paths under test must really run.
template <class Run>
void expect_replay_exact(Run&& ff_and_pinned) {
  u64 rejected = 0;
  u64 releases = 0;
  for (const u32 threshold : {8u, 16u}) {
    SCOPED_TRACE(threshold);
    const auto [ff, pinned] = ff_and_pinned(threshold);
    expect_same_simulation(ff, pinned);
    rejected += run_counter(ff, "rob.rejected_high_dod");
    releases += run_counter(ff, "rob.releases");
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(releases, 0u);
}

class IdleReplay : public ::testing::TestWithParam<RobScheme> {};

TEST_P(IdleReplay, SmtCoreMatchesPinnedRunAcrossGateCrossings) {
  expect_replay_exact([](u32 threshold) {
    const MachineConfig cfg = short_leases(two_level_config(GetParam(), threshold));
    const auto benches = mix1_threads(cfg);
    SmtCore ff(cfg, benches);
    SmtCore pinned(audited(cfg), benches);
    std::pair<RunResult, RunResult> r{ff.run(4000, 0, 1000), pinned.run(4000, 0, 1000)};
    EXPECT_EQ(pinned.auditor().total_violations(), 0u) << pinned.auditor().report();
    expect_same_decision_average(ff, pinned);
    return r;
  });
}

TEST_P(IdleReplay, SerialCmpMatchesPinnedRunAcrossGateCrossings) {
  expect_replay_exact([](u32 threshold) {
    MachineConfig cfg = short_leases(cmp_config(2, GetParam(), threshold));
    cfg.num_threads = 2;
    const auto benches = mix1_threads(cfg);
    CmpMachine ff(cfg, benches);
    CmpMachine pinned(audited(cfg), benches);
    std::pair<RunResult, RunResult> r{ff.run(2500, 0, 500), pinned.run(2500, 0, 500)};
    for (u32 c = 0; c < pinned.num_cores(); ++c) {
      EXPECT_EQ(pinned.core(c).auditor().total_violations(), 0u)
          << pinned.core(c).auditor().report();
      expect_same_decision_average(ff.core(c), pinned.core(c));
    }
    return r;
  });
}

INSTANTIATE_TEST_SUITE_P(ReactiveSchemes, IdleReplay,
                         ::testing::Values(RobScheme::kReactive, RobScheme::kRelaxedReactive,
                                           RobScheme::kCdr),
                         [](const ::testing::TestParamInfo<RobScheme>& info) {
                           std::string name = rob_scheme_name(info.param);
                           for (char& ch : name)
                             if (ch == '-') ch = '_';
                           return name;
                         });

// Work-count guard: the share of cycles the machine-wide fast-forward skips
// on a 4-core x 4-thread mcf,art,equake,lucas cell (the benchmark's
// cmp_backend shape at ctest length), counted from cycle 0 like the
// benchmark's sim.ff_share. Re-checks that can only defer no longer wake the
// machine, so R-ROB16 skips about as much as Baseline_32. Measured at this
// length: R-ROB16 0.760 and Baseline_32 0.749; when every due re-check woke
// the machine, R-ROB16 read 0.085. Exact simulated counts, so the figures are
// host-independent; the bound leaves room for model changes only.
TEST(IdleReplayWorkCount, TwoLevelCmpCellFastForwardsLikeTheBaseline) {
  auto ff_share = [](RobScheme scheme) {
    MachineConfig cfg = cmp_config(4, scheme, 16);
    cfg.audit.level = AuditLevel::kOff;
    std::vector<Benchmark> benches;
    for (u32 c = 0; c < cfg.num_cores; ++c)
      for (const char* name : {"mcf", "art", "equake", "lucas"})
        benches.push_back(spec_benchmark(name));
    CmpMachine m(cfg, benches);
    m.run(3000, 0, 1000);
    // The machine-wide count: every core carries the same value.
    return static_cast<double>(m.core(0).fast_forwarded_cycles()) /
           static_cast<double>(m.core(0).now());
  };
  const double rrob = ff_share(RobScheme::kReactive);
  const double base = ff_share(RobScheme::kBaseline);
  EXPECT_GE(rrob, 0.70);
  EXPECT_GE(rrob, base - 0.05);
}

}  // namespace
}  // namespace tlrob
