// The benchmark's three workloads, built through the tlrob library API.
//
// A workload is a list of campaigns run one after another in one process at
// a fixed worker count. Its inputs are a pure function of (name, seed,
// scale): the seed goes into every CampaignSpec::seed and into the
// synthesis seed of every tracegen: trace.
#pragma once

#include <string>
#include <vector>

#include "runner/campaign.hpp"

namespace perfbench {

using tlrob::u32;
using tlrob::u64;

struct Workload {
  std::string name;
  std::vector<tlrob::runner::CampaignSpec> campaigns;
  u32 jobs = 1;  // campaign worker count
  /// Every distinct mix entry, in first-use order (what set-up resolves).
  std::vector<std::string> inputs;
  /// Campaigns the sim-layer probe re-runs cell by cell (empty = all).
  std::vector<std::string> probe_campaigns;
  /// Run length of the self-profiler probe cell.
  u64 probe_insts = 0;
  /// Run length of the parallel-engine probe cell (a 4x4 CMP).
  u64 cmp_probe_insts = 0;
  /// SPEC profiles behind the inputs (tracegen: names map to their
  /// profile), which drive the per-layer op streams.
  std::vector<std::string> profiles;
  /// The workload seed: every CampaignSpec::seed and tracegen: seed.
  u64 seed = 0;
  double scale = 1.0;  // run-length multiplier (make_workload)
  bool traced_inputs = false;  // the workload replays traces
};

/// Builds a workload. `scale` multiplies every run length and trace size
/// (1.0 = the benchmark's lengths; the self-test uses a small fraction).
/// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, u64 seed, double scale);

/// The paper's fair-throughput gains over Baseline_32, in percent
/// (Figures 2, 4, 5 and 6), keyed by column name.
const std::vector<std::pair<std::string, double>>& paper_gains_pct();

}  // namespace perfbench
