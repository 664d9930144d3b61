// tlrob-golden — records / checks the golden-run fixtures under tests/golden.
//
// Default mode is a dry check: re-run every preset and diff against the
// fixtures on disk, exiting nonzero on any drift (the same comparison the
// golden-run gtest suite performs, usable standalone). Rewriting fixtures
// is deliberate: it requires --regen, and is only legitimate after an
// intentional architectural-model change — never to paper over drift from a
// performance refactor.
//
//   tlrob-golden [--dir tests/golden] [--preset fig2,fig4] [--regen]

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "runner/cli.hpp"
#include "runner/golden.hpp"
#include "runner/presets.hpp"

namespace {

using namespace tlrob::runner;

bool read_file(const std::string& path, std::string& out) {
  std::ifstream in(path);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

int golden(const tlrob::Options& opts) {
  const std::string dir = opts.get("dir", "tests/golden");
  std::vector<std::string> presets = opts.get_list("preset");
  const bool regen = opts.get_bool("regen", false);
  opts.reject_unread("tlrob-golden");
  if (presets.empty()) presets = preset_names();
  for (const std::string& name : presets)
    if (!is_preset(name)) throw tlrob::OptionError("--preset: unknown preset '" + name + "'");

  int failures = 0;
  for (const std::string& name : presets) {
    const std::string path = dir + "/" + name + ".json";
    const std::vector<GoldenRow> rows = golden_fingerprints(name);
    if (regen) {
      std::ofstream out(path);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
      }
      out << golden_to_json(name, rows);
      std::printf("wrote %s (%zu rows)\n", path.c_str(), rows.size());
      continue;
    }
    std::string text;
    if (!read_file(path, text)) {
      std::printf("MISSING %s (run with --regen to record)\n", path.c_str());
      ++failures;
      continue;
    }
    const GoldenFile fixture = golden_from_json(text);
    const RunLengthSpec length = golden_run_length();
    if (fixture.length.insts != length.insts || fixture.length.warmup != length.warmup) {
      std::printf("STALE %s: recorded at insts=%llu warmup=%llu, current length is %llu/%llu\n",
                  path.c_str(), (unsigned long long)fixture.length.insts,
                  (unsigned long long)fixture.length.warmup, (unsigned long long)length.insts,
                  (unsigned long long)length.warmup);
      ++failures;
      continue;
    }
    const std::string diff = golden_diff(fixture.rows, rows);
    if (diff.empty()) {
      std::printf("OK %s (%zu rows)\n", name.c_str(), rows.size());
    } else {
      std::printf("DRIFT %s: %s\n", name.c_str(), diff.c_str());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return tlrob::run_cli(argc, argv, tool_cli("tlrob-golden"), golden);
}
