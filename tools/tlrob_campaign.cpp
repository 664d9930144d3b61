// tlrob-campaign — the experiment-campaign CLI.
//
// Expands a declarative sweep (schemes × thresholds × mixes × run length)
// or named presets (fig1..fig7, table2, ablation_*; a comma list, or `all`)
// into independent jobs, executes them on a work-stealing pool, and streams
// results into structured sinks. A preset is a named sweep: both take the
// same run options and run through the same loop (runner/cli.hpp). Parallel
// runs are byte-identical to serial ones, and a cell several presets share
// is simulated once. Single runs and their telemetry capture are simulate's.
//
//   tlrob-campaign fig2 --jobs 8 --json fig2.jsonl
//   tlrob-campaign all --jobs 0 --json results/all.jsonl   (every preset, one process)
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
  return run_from_options(opts.positional().empty() ? "" : opts.positional().front(), opts);
}

}  // namespace

int main(int argc, char** argv) {
  return run_cli(argc, argv, tool_cli("tlrob-campaign"), campaign);
}
