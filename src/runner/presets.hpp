// The paper's figures, tables and ablations as named campaign presets.
//
// Each preset is a named sweep: a CampaignSpec (what to sweep) plus its
// stdout rendering: the generic fair-throughput table (FtTableSink) and/or
// a figure-specific epilogue rendered from the records. The tlrob-campaign
// CLI reaches the presets by name (`tlrob-campaign fig2`) and runs them
// through the same loop as a custom sweep (cli.hpp run_from_options).
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "runner/engine.hpp"
#include "runner/render.hpp"

namespace tlrob::runner {

/// How a campaign is rendered on stdout after its records: an FT table
/// under `title` (nullptr = no FT table; "" = headed by the campaign name)
/// and a figure-specific epilogue (histograms, predictor quality, threshold
/// summary) rendered from the records (nullptr = none).
struct Rendering {
  const char* title = "";
  void (*epilogue)(const CampaignResult&, const CampaignSpec&, std::FILE*) = nullptr;
};

/// All preset names, in presentation order.
const std::vector<std::string>& preset_names();

bool is_preset(const std::string& name);

/// The presets a tlrob-campaign positional names: `all` (every preset, in
/// preset_names() order) or a comma list of preset names, in the given
/// order. Throws OptionError on an unknown, empty or repeated name.
std::vector<std::string> preset_list(const std::string& text);

/// One-line description of a preset (for --list).
std::string preset_summary(const std::string& name);

/// The campaign a preset sweeps. Throws std::invalid_argument on unknown
/// names.
CampaignSpec preset_campaign(const std::string& name, const RunLengthSpec& length);

/// Preset `name`'s stdout rendering. Throws std::invalid_argument on
/// unknown names.
Rendering preset_rendering(const std::string& name);

}  // namespace tlrob::runner
