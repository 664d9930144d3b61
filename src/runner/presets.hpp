// The paper's figures, tables and ablations as named campaign presets.
//
// Each preset supplies a CampaignSpec (what to sweep) plus its stdout
// rendering: the generic fair-throughput table (FtTableSink) and/or a
// figure-specific epilogue (histograms, predictor quality, threshold
// summary) rendered from the returned records. The tlrob-campaign CLI
// reaches the presets by name (`tlrob-campaign fig2`); it is the one way
// to run one from the command line.
#pragma once

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "runner/engine.hpp"
#include "runner/render.hpp"

namespace tlrob::runner {

struct PresetOptions {
  RunLengthSpec length{};
  u32 jobs = 0;  // 0 = hardware concurrency, 1 = serial
  /// Structured sinks in addition to the preset's stdout rendering.
  std::vector<ResultSink*> extra_sinks;
  std::string manifest_path;
  bool resume = false;
  /// Render the preset's tables/epilogue to `out` (off for sink-only runs).
  bool render = true;
  std::FILE* out = stdout;
  /// Interval telemetry forwarded into the preset's CampaignSpec
  /// (campaign.hpp: obs.* summary counters per record; per-job series
  /// files when sample_dir is set).
  u64 sample_interval = 0;
  std::string sample_dir;
  /// Workload override (src/trace/resolve.hpp syntax): replaces the
  /// preset's Table 2 mixes with this single mix — per-thread entry i runs
  /// on hardware thread i — and sizes every column's machine to match.
  /// Empty = the preset's own mixes.
  std::string workload;
  /// CampaignSpec seeding and cycle cap overrides (campaign.hpp semantics).
  /// Unset / false / 0 keep the preset's own values.
  std::optional<u64> seed;
  bool per_job_seeds = false;
  u64 max_cycles = 0;
};

/// All preset names, in presentation order.
const std::vector<std::string>& preset_names();

bool is_preset(const std::string& name);

/// One-line description of a preset (for --list).
std::string preset_summary(const std::string& name);

/// The campaign a preset sweeps. Throws std::invalid_argument on unknown
/// names.
CampaignSpec preset_campaign(const std::string& name, const RunLengthSpec& length);

/// Runs a preset end-to-end (campaign + rendering).
CampaignResult run_preset(const std::string& name, const PresetOptions& opts);

}  // namespace tlrob::runner
