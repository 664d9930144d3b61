// Command-line overrides for MachineConfig — the sim-outorder-style knobs a
// downstream user expects. Keys are flat "name=value" options (see
// common/config.hpp). apply_overrides reads only the keys below and leaves
// the rest to the calling tool, which reads its own keys and then rejects
// every key nothing read (Options::unread_keys), so a typo or a retired knob
// exits 2 instead of running the default.
#pragma once

#include <string>

#include "common/config.hpp"
#include "sim/presets.hpp"

namespace tlrob {

/// Applies recognised overrides onto `cfg`. Supported keys:
///   threads, fetch_width, fetch_threads, dispatch_width, issue_width,
///   commit_width, decode_depth, frontend_buffer,
///   rob1 (first-level entries), rob2 (second-level entries), iq, lsq,
///   int_regs, fp_regs, shared_regfile (0/1), reg_reserve,
///   policy (dcra|icount|stall|flush|rr),
///   scheme (baseline|rrob|relaxed|cdr|prob), threshold, recheck, cdr_delay,
///   lease, cooldown, predictor_entries,
///   l2_kb, l2_ways, l1d_kb, l1i_kb, mem_lat, interchunk, critical_bytes,
///   mshr, dcra_sharing, seed,
///   cores (CMP core count; > 1 enables the shared LLC/DRAM backend),
///   llc (spec string, see apply_llc_spec), dram (see apply_dram_spec),
///   audit (off|cheap|full), audit_cheap_interval, audit_full_interval,
///   audit_abort (0/1).
/// Throws std::invalid_argument on an unrecognised policy/scheme value.
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
