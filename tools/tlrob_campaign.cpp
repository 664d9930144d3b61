// tlrob-campaign — the experiment-campaign CLI.
//
// Expands a declarative sweep (schemes × thresholds × mixes × run length)
// or a named preset (fig1..fig7, table2, ablation_*) into independent jobs,
// executes them on a work-stealing pool, and streams results into
// structured sinks. Parallel runs are byte-identical to serial ones.
//
//   tlrob-campaign fig2 --jobs 8 --json fig2.jsonl
//   tlrob-campaign --schemes rrob,prob --thresholds 8,16 --mixes 1,2
//       --insts 20000 --warmup 5000 --csv sweep.csv
//   tlrob-campaign --workload trace:app.champsim.gz,trace:app.champsim.gz
//       --insts 20000 --json out.jsonl
//   tlrob-campaign fig2 --manifest fig2.manifest --resume
//   tlrob-campaign --list
//   tlrob-campaign --help      (every option)
#include <cstdio>

#include "runner/cli.hpp"

using namespace tlrob;
using namespace tlrob::runner;

namespace {

int campaign(const Options& opts) {
  if (opts.get_bool("list", false)) {
    opts.reject_unread("tlrob-campaign --list");
    std::printf("%-24s %s\n", "preset", "sweep");
    for (const auto& name : preset_names())
      std::printf("%-24s %s\n", name.c_str(), preset_summary(name).c_str());
    return 0;
  }
  const std::string preset = opts.positional().empty() ? "" : opts.positional().front();
  if (!preset.empty() && !is_preset(preset))
    throw OptionError("unknown preset '" + preset + "' (try --list)");
  return run_from_options(preset, opts);
}

}  // namespace

int main(int argc, char** argv) {
  return run_cli(argc, argv, tool_cli("tlrob-campaign"), campaign);
}
