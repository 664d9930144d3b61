// The campaign runner's unit of work and unit of result.
//
// A JobSpec is one (configuration, mix, run-length) cell of a sweep; a
// JobRecord is everything a completed cell produced, in a flat structure all
// sinks (JSON lines, CSV, rendered tables) serialise from. Records are the
// single source of truth: the printf tables the figure benches show are
// rendered from the same JobRecords the JSON/CSV sinks write, so parallel
// and serial campaigns are comparable byte-for-byte.
#pragma once

#include <compare>
#include <map>
#include <string>
#include <vector>

#include "runner/json.hpp"
#include "sim/presets.hpp"
#include "workload/mixes.hpp"

namespace tlrob::runner {

/// One (configuration, mix, run-length) cell of a campaign, fully resolved:
/// executing a JobSpec depends on nothing but its own fields (plus the
/// memoised single-thread reference, which is a pure function of
/// (benchmark, insts)), which is what makes cells order-independent.
struct JobSpec {
  u64 index = 0;  // position in campaign expansion order
  std::string campaign;
  std::string config_name;
  MachineConfig config;
  Mix mix;
  u64 insts = 0;
  u64 warmup = 0;
  u64 max_cycles = 0;  // 0 = the simulator's derived generous bound
  u64 seed = 0;        // applied to config.seed before the run

  /// Interval telemetry (campaign-wide, copied from CampaignSpec): nonzero
  /// sample_interval enables sampling for this job; non-empty sample_dir
  /// makes the job write its series to
  /// <sample_dir>/samples_job<index>.jsonl. Excluded from job_key — a
  /// resumed cell is the same cell whether or not it was sampled.
  u64 sample_interval = 0;
  std::string sample_dir;
};

/// Stable identity of a cell across campaign runs — what the resume
/// manifest matches on. Deliberately excludes `index` so a grown or
/// reordered campaign still recognises previously completed cells.
std::string job_key(const JobSpec& spec);

/// The machine a cell simulates: spec.config with the cell's seed and, when
/// nonzero, its sample interval applied.
MachineConfig resolved_config(const JobSpec& spec);

/// What a cell simulates, whatever campaign or column names it: the resolved
/// machine (resolved_config, so the seed and sample interval too), the
/// workload and the run length. Ordered field by field through the config
/// structs' defaulted operator<=>, so a field added to any of them is part
/// of the key with no further change. Two cells with equal keys produce the
/// same record up to job, campaign and config; the engine's cell memo relies
/// on that.
struct SimulationKey {
  MachineConfig config;
  std::string mix;
  std::vector<std::string> benchmarks;  // one workload name per thread
  u64 insts = 0;
  u64 warmup = 0;
  u64 max_cycles = 0;

  auto operator<=>(const SimulationKey&) const = default;
};

SimulationKey simulation_key(const JobSpec& spec);

enum class JobStatus : u8 { kOk, kFailed };

const char* to_string(JobStatus s);

/// Dependents-of-a-long-latency-load histogram summary (Figures 1/3/7),
/// carried per record so the DoD figures render from sink records too.
struct DodSummary {
  u64 samples = 0;
  double sum = 0.0;  // of true (unclamped) values
  std::vector<u64> buckets;

  double mean() const { return samples == 0 ? 0.0 : sum / static_cast<double>(samples); }
};

struct JobRecord {
  u64 job = 0;
  std::string campaign;
  std::string config;
  std::string mix;
  std::string scheme;
  u32 threshold = 0;
  u64 insts = 0;
  u64 warmup = 0;
  u64 max_cycles = 0;
  u64 seed = 0;

  JobStatus status = JobStatus::kOk;
  std::string error;

  u64 cycles = 0;
  double ft = 0.0;
  double throughput = 0.0;
  std::vector<std::string> benchmarks;
  std::vector<u64> committed;
  std::vector<double> mt_ipc;
  std::vector<double> st_ipc;
  DodSummary dod_true;
  DodSummary dod_proxy;
  std::map<std::string, u64> counters;

  bool ok() const { return status == JobStatus::kOk; }

  /// Cell identity in job_key() form (same fields, from the record side).
  std::string key() const;
};

/// Canonical scheme name for a machine configuration ("baseline", "rrob",
/// "relaxed", "cdr", "prob", "adaptive") — the vocabulary of
/// sim/config_override.hpp.
std::string scheme_name(const MachineConfig& cfg);

/// One JSON object, single line, fixed key order and number formatting —
/// byte-identical regardless of which worker produced it.
std::string to_json_line(const JobRecord& r);

/// Inverse of to_json_line (used by manifest resume). Throws
/// std::invalid_argument on malformed input.
JobRecord record_from_json_line(const std::string& line);

/// CSV header matching to_csv_line's columns.
std::string csv_header();

/// One CSV row; list-valued fields are ';'-joined, counters are omitted
/// (use the JSON sink for the full record).
std::string to_csv_line(const JobRecord& r);

}  // namespace tlrob::runner
