// Command-line overrides for MachineConfig — the sim-outorder-style knobs a
// downstream user expects. machine_option_keys() declares every key
// apply_overrides reads (tools append it to their own table, so `--help`
// lists them); the calling tool reads its own keys and then rejects every
// key nothing read (Options::reject_unread), so a typo or a retired knob
// exits 2 instead of running the default.
#pragma once

#include <string>
#include <vector>

#include "common/config.hpp"
#include "sim/presets.hpp"

namespace tlrob {

/// The machine knobs, declared once: name, value label, help line.
const std::vector<OptionKey>& machine_option_keys();

/// Applies the machine_option_keys() present in `opts` onto `cfg`. Throws
/// OptionError on a malformed value and std::invalid_argument on an
/// unrecognised policy/scheme/audit name.
MachineConfig apply_overrides(MachineConfig cfg, const Options& opts);

/// Parses an LLC spec "size_kb[:ways[:latency[:mshr]]]" (e.g. "8192:16:24:32")
/// onto `llc` and enables it. Throws std::invalid_argument on a malformed
/// spec.
void apply_llc_spec(LlcConfig& llc, const std::string& spec);

/// Parses a DRAM spec "channels[:banks[:tcas[:trcd[:trp]]]]" (e.g.
/// "2:8:240:160:100") onto `dram`. Throws std::invalid_argument on a
/// malformed spec.
void apply_dram_spec(DramConfig& dram, const std::string& spec);

/// Parses a scheme name as accepted by apply_overrides.
RobScheme parse_scheme(const std::string& name);

/// Parses a fetch-policy name as accepted by apply_overrides.
FetchPolicyKind parse_fetch_policy(const std::string& name);

}  // namespace tlrob
