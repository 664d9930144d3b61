// Telemetry configuration (src/obs) — the observability counterpart of
// verify/audit_context.hpp's AuditConfig.
//
// Everything in src/obs is compiled in unconditionally and gated at runtime;
// the contract is that a config with everything off adds at most one
// predictable branch to the cycle loop (bench_sim_speed's perf-smoke job and
// the golden-run fixtures both pin this).
//
// Dependency note: this header is included by sim/presets.hpp (MachineConfig
// embeds a TelemetryConfig), so it must only depend on common/types.hpp.
#pragma once

#include <compare>

#include "common/types.hpp"

namespace tlrob::obs {

struct TelemetryConfig {
  /// Interval-sampler period in cycles; 0 = sampler off. Every
  /// `sample_interval` cycles the core records per-thread ROB/IQ/LSQ
  /// occupancy, committed counts, the DoD proxy, outstanding L2 misses,
  /// DCRA issue-queue caps and second-level ownership into an in-memory
  /// time series (obs/interval_sampler.hpp).
  ///
  /// Sampling does NOT disable the idle-cycle fast-forward: sample points
  /// inside a fast-forwarded span are replayed from the quiescent state,
  /// exactly like the per-cycle stall counters, and tests pin that the
  /// series is bit-identical either way (see DESIGN.md §9).
  Cycle sample_interval = 0;

  /// Host-side self-profiling: attribute wall time to pipeline phases
  /// (events / commit / issue / dispatch / fetch / controller / audit /
  /// sample) via obs/self_profile.hpp. Changes no simulated state; adds two
  /// clock reads per stage per executed cycle while on.
  bool profile = false;

  auto operator<=>(const TelemetryConfig&) const = default;
};

/// The process-default telemetry configuration, mirroring
/// default_audit_config(): $TLROB_SAMPLE sets sample_interval (cycles,
/// 0/unset = off), $TLROB_PROFILE=1 turns self-profiling on. A malformed
/// value (`TLROB_SAMPLE=5e2`, `TLROB_PROFILE=maybe`) throws OptionError,
/// with the command line's number and boolean spellings. MachineConfig
/// uses this as its initial value, so any existing binary picks the knobs up
/// without new plumbing. Explicit assignment overrides.
TelemetryConfig default_telemetry_config();

}  // namespace tlrob::obs
