// The command lines of the repository's tools, and the front end of the
// tlrob-campaign binary, the one way to run presets (`tlrob-campaign fig2`,
// `tlrob-campaign fig2,fig4`, `tlrob-campaign all`) or a custom sweep.
//
// Each tool's CliSpec (common/config.hpp) declares its keys once; its main
// hands the spec to run_cli, which parses argv, prints `--help` from the
// spec and turns a malformed option into exit 2. `<tool> --help` lists every
// option; DESIGN.md §15 gives the grammar.
#pragma once

#include <string>
#include <vector>

#include "common/config.hpp"
#include "runner/presets.hpp"

namespace tlrob::runner {

/// Every tool's declared command line: tlrob-campaign, tlrob-mktrace,
/// tlrob-golden, tlrob-lint, simulate and campaign_sweep.
const std::vector<CliSpec>& tool_clis();

/// The spec named `name` in tool_clis(). Throws std::invalid_argument on an
/// unknown name.
const CliSpec& tool_cli(const std::string& name);

/// Builds a custom sweep spec from --schemes/--thresholds/--mixes and the
/// CMP options, with the run options every campaign takes applied (run
/// length, --workload, seeding, cycle cap, sampling). Throws
/// std::invalid_argument on unknown scheme or mix names.
CampaignSpec custom_campaign(const Options& opts);

/// Runs the campaigns described by already-parsed options: the presets
/// `preset` names (preset_list syntax: one name, a comma list, or `all`,
/// run in that order in this process) when it is non-empty, otherwise the
/// custom sweep; one loop runs each, presets and sweep alike. Wires up the
/// json/csv/manifest sinks. Returns a process exit code: 2 (before any cell
/// runs) when `opts` holds a key the run does not read, a malformed value,
/// an unknown preset, --resume without --manifest or --csv with several
/// presets, otherwise non-zero when any cell failed.
int run_from_options(const std::string& preset, const Options& opts);

}  // namespace tlrob::runner
