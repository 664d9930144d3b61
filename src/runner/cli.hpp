// Command-line front end of the tlrob-campaign binary, the one way to run a
// preset (`tlrob-campaign fig2`) or a custom sweep.
//
// Accepted option spellings: `key=value`, `--key=value`, `--key value` and
// bare `--flag` (stored as "1"). Every option a run does not read exits 2
// before any cell runs. Common options:
//   --jobs N        worker threads (0 = hardware concurrency, 1 = serial)
//   --insts N       committed-instruction target per run
//   --warmup N      warmup commits excluded from statistics
//   --json PATH     JSON-lines sink ("-" = stdout)
//   --csv PATH      CSV sink ("-" = stdout)
//   --manifest PATH completion journal enabling --resume
//   --resume        replay successful cells from the manifest
//   --no-render     suppress the stdout tables (sink-only run)
//   --max-cycles N  per-job cycle cap (the timeout; 0 = derived bound)
//   --seed N        base RNG seed
//   --per-job-seeds derive a distinct deterministic seed per cell
//   --sample-interval N  interval telemetry every N cycles (obs.* summary
//                   counters per record; 0 = off)
//   --sample-dir D  also write each job's full series to
//                   D/samples_job<index>.jsonl
// Custom sweeps (tlrob-campaign without a preset):
//   --schemes a,b   baseline32|baseline128|rrob|relaxed|cdr|prob|adaptive
//   --thresholds l  DoD thresholds crossed with the threshold-taking schemes
//   --mixes 1,2,5   Table 2 mix subset (default: all 11)
//   --cores N, --llc SPEC, --dram SPEC, --name NAME
#pragma once

#include <string>
#include <vector>

#include "common/config.hpp"
#include "runner/presets.hpp"

namespace tlrob::runner {

/// Normalises argv into the repo's key=value Options (see header comment).
Options parse_cli_args(int argc, const char* const* argv);

/// Builds a custom sweep spec from --schemes/--thresholds/--mixes options.
/// Throws std::invalid_argument on unknown scheme or mix names.
CampaignSpec custom_campaign(const Options& opts);

/// Runs a campaign described by already-parsed options: a preset when
/// `preset` is non-empty, otherwise the custom sweep options. Wires up the
/// json/csv/manifest sinks. Returns a process exit code: 2 (before any cell
/// runs) when `opts` holds a key the run does not read, otherwise non-zero
/// when any cell failed.
int run_from_options(const std::string& preset, const Options& opts);

}  // namespace tlrob::runner
