// The campaign engine: expands a CampaignSpec, executes the jobs on a
// work-stealing pool, and streams JobRecords to the sinks in expansion
// order.
//
// Determinism contract: a campaign's records — and therefore every sink's
// bytes — are identical for any worker count, because (a) each job is a
// pure function of its JobSpec (the simulator is deterministic given a
// config and seed, and per-job seeds are fixed at expansion time), (b) the
// shared single-thread reference IPCs are memoised behind a once-per-key
// guard (sim/experiment.cpp) and are themselves pure, and (c) completions
// pass through an in-order emission window before reaching any sink.
//
// Robustness contract: a job that throws, or whose simulation fails to
// reach its commit target within its cycle cap (the timeout mechanism — the
// simulator is single-stepped and cannot hang, it can only diverge), is
// recorded with status "failed" and the campaign continues. When a manifest
// path is set, every completed record is journalled; resuming replays
// previously successful cells from the journal and executes only the rest.
#pragma once

#include <string>
#include <vector>

#include "runner/campaign.hpp"
#include "runner/sinks.hpp"

namespace tlrob::runner {

struct EngineOptions {
  /// Worker threads; 0 = hardware concurrency, 1 = run inline (serial
  /// reference mode, no pool).
  u32 jobs = 1;

  /// Sinks receiving records in expansion order. Not owned.
  std::vector<ResultSink*> sinks;

  /// Journal of completed cells (JSON lines of JobRecords). Empty = none.
  std::string manifest_path;

  /// Replay successful cells found in the manifest instead of re-running
  /// them; failed cells are always retried.
  bool resume = false;
};

struct CampaignResult {
  std::vector<JobRecord> records;  // expansion order
  u32 ok = 0;       // ran to the commit target this time
  u32 failed = 0;   // threw, or hit the cycle cap
  u32 resumed = 0;  // replayed from the manifest without re-running
};

/// Executes one cell. Exposed for tests and for callers that want a single
/// cell without engine machinery; run_campaign uses exactly this.
JobRecord execute_job(const JobSpec& spec);

CampaignResult run_campaign(const CampaignSpec& spec, const EngineOptions& opts);

}  // namespace tlrob::runner
