#include "runner/engine.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "common/sync.hpp"
#include "obs/interval_sampler.hpp"
#include "common/thread_pool.hpp"
#include "sim/experiment.hpp"
#include "trace/resolve.hpp"

namespace tlrob::runner {

namespace {

/// Memo slot for one simulation_key: the once_flag serialises the
/// simulation, and `line` is written at most once under it — the record's
/// to_json_line when the cell ran ok, empty when it failed (a failed cell is
/// not memoised). JSON lines, not JobRecords: records cost paper_evidence
/// 11% peak RSS, lines about 4% (DESIGN.md §7), and the round trip through
/// record_from_json_line is exact (the resume path pins it).
struct CellEntry {
  std::once_flag once;
  std::string line;
};

/// Guards the memo map's shape; the entries are shared_ptrs so forget_cells
/// can drop the map while a caller still holds its slot.
Mutex cell_mu;
std::map<SimulationKey, std::shared_ptr<CellEntry>> cell_memo TLROB_GUARDED_BY(cell_mu);

JobRecord simulate_cell(const JobSpec& spec) {
  JobRecord rec;
  rec.job = spec.index;
  rec.campaign = spec.campaign;
  rec.config = spec.config_name;
  rec.mix = spec.mix.name;
  rec.scheme = scheme_name(spec.config);
  rec.threshold = spec.config.rob.dod_threshold;
  rec.insts = spec.insts;
  rec.warmup = spec.warmup;
  rec.max_cycles = spec.max_cycles;
  rec.seed = spec.seed;
  try {
    const MachineConfig cfg = resolved_config(spec);
    // Workload resolution happens inside the try: a missing or malformed
    // trace file fails this cell with a structured record, not the process.
    const RunResult run = run_benchmarks(cfg, trace::resolve_mix_benchmarks(spec.mix),
                                         spec.insts, spec.max_cycles, spec.warmup);

    rec.cycles = run.cycles;
    u64 fastest = 0;
    for (const auto& t : run.threads) {
      rec.benchmarks.push_back(t.benchmark);
      rec.committed.push_back(t.committed);
      rec.mt_ipc.push_back(t.ipc);
      rec.st_ipc.push_back(single_thread_ipc(t.benchmark, spec.insts));
      fastest = std::max(fastest, t.committed);
    }
    rec.ft = fair_throughput(rec.mt_ipc, rec.st_ipc);
    rec.throughput = run.total_throughput();
    rec.dod_true = {run.dod_true.total_samples(),
                    run.dod_true.mean() * static_cast<double>(run.dod_true.total_samples()),
                    {}};
    rec.dod_proxy = {
        run.dod_proxy.total_samples(),
        run.dod_proxy.mean() * static_cast<double>(run.dod_proxy.total_samples()),
        {}};
    for (u32 v = 0; v <= run.dod_true.max_value(); ++v)
      rec.dod_true.buckets.push_back(run.dod_true.bucket(v));
    for (u32 v = 0; v <= run.dod_proxy.max_value(); ++v)
      rec.dod_proxy.buckets.push_back(run.dod_proxy.bucket(v));
    rec.counters = run.counters;
    // Telemetry summary rides the record's counter map — it round-trips
    // through to_json_line / the manifest like any other counter, and is a
    // pure function of the JobSpec (so identical for any worker count).
    for (const auto& [name, v] : obs::series_summary_counters(run.samples))
      rec.counters[name] = v;
    // Same contract for the stall taxonomy and the CMP interference rollup:
    // structured RunResult fields flattened here (never inside the core, so
    // a telemetry-on run's engine counters stay identical to telemetry-off).
    for (const auto& [name, v] : obs::stall_summary_counters(run.stall_cycles))
      rec.counters[name] = v;
    if (cfg.num_cores > 1 || cfg.llc.enabled)
      for (const auto& [name, v] :
           obs::cmp_summary_counters(run.samples, run.stall_cycles, cfg.num_cores))
        rec.counters[name] = v;
    if (!run.samples.empty() && !spec.sample_dir.empty()) {
      const std::string path =
          spec.sample_dir + "/samples_job" + std::to_string(spec.index) + ".jsonl";
      std::ofstream out(path);
      if (!out.is_open()) throw std::runtime_error("cannot open sample sink: " + path);
      run.samples.write_jsonl(out);
    }

    if (fastest < spec.insts) {
      rec.status = JobStatus::kFailed;
      rec.error = "cycle cap exceeded before commit target (" + std::to_string(fastest) +
                  "/" + std::to_string(spec.insts) + " commits)";
    }
  } catch (const std::exception& e) {
    rec.status = JobStatus::kFailed;
    rec.error = e.what();
  }
  return rec;
}

}  // namespace

JobRecord execute_job(const JobSpec& spec, bool* reused) {
  if (reused != nullptr) *reused = false;
  // A sampled cell with a series directory must write its own file.
  if (!spec.sample_dir.empty()) return simulate_cell(spec);

  SimulationKey key = simulation_key(spec);
  std::shared_ptr<CellEntry> entry;
  {
    MutexLock lock(cell_mu);
    auto& slot = cell_memo[std::move(key)];
    if (!slot) slot = std::make_shared<CellEntry>();
    entry = slot;
  }
  // The first caller of a key simulates; concurrent callers of the same key
  // wait here until its line exists.
  std::optional<JobRecord> ran;
  std::call_once(entry->once, [&] {
    ran = simulate_cell(spec);
    if (ran->ok()) entry->line = to_json_line(*ran);
  });
  if (ran) return std::move(*ran);
  if (entry->line.empty()) return simulate_cell(spec);  // failed: never memoised

  JobRecord rec = record_from_json_line(entry->line);
  rec.job = spec.index;
  rec.campaign = spec.campaign;
  rec.config = spec.config_name;
  if (reused != nullptr) *reused = true;
  return rec;
}

void forget_cells() {
  MutexLock lock(cell_mu);
  cell_memo.clear();
}

namespace {

/// Loads successful records from a manifest journal, keyed by cell
/// identity. Unreadable or malformed lines are skipped (a journal truncated
/// by a crash mid-line must not poison the resume). Ordered map on purpose
/// (lint rule D1): anything that later iterates or emits the resume set
/// must see one key order regardless of the journal's completion order.
std::map<std::string, JobRecord> load_manifest(const std::string& path) {
  std::map<std::string, JobRecord> by_key;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    try {
      JobRecord rec = record_from_json_line(line);
      if (rec.ok()) by_key[rec.key()] = std::move(rec);
    } catch (const std::invalid_argument&) {
      continue;
    }
  }
  return by_key;
}

/// Serialises completions back into expansion order before any sink or the
/// result vector sees them.
class InOrderEmitter {
 public:
  InOrderEmitter(const EngineOptions& opts, std::ofstream* manifest, CampaignResult* result)
      : opts_(opts), manifest_(manifest), result_(result) {}

  /// Where a completed record came from.
  enum class Origin : u8 { kRan, kReused, kResumed };

  void complete(JobRecord rec, Origin origin) {
    MutexLock lock(mu_);
    if (origin != Origin::kResumed && manifest_ && manifest_->is_open()) {
      // Journal in completion order — the manifest is a log, not a sink.
      *manifest_ << to_json_line(rec) << "\n";
      manifest_->flush();
    }
    if (origin == Origin::kResumed)
      ++result_->resumed;
    else if (origin == Origin::kReused)
      ++result_->reused;
    else if (rec.ok())
      ++result_->ok;
    else
      ++result_->failed;

    pending_.emplace(rec.job, std::move(rec));
    while (!pending_.empty() && pending_.begin()->first == next_) {
      JobRecord& head = pending_.begin()->second;
      for (ResultSink* sink : opts_.sinks) sink->emit(head);
      result_->records.push_back(std::move(head));
      pending_.erase(pending_.begin());
      ++next_;
    }
  }

 private:
  const EngineOptions& opts_;
  /// mu_ serialises completions from pool workers: it guards the reorder
  /// window and, via the emitter being their only caller, the manifest
  /// stream, the result tallies and every sink's emit().
  Mutex mu_;
  std::ofstream* manifest_ TLROB_PT_GUARDED_BY(mu_);
  CampaignResult* result_ TLROB_PT_GUARDED_BY(mu_);
  std::map<u64, JobRecord> pending_ TLROB_GUARDED_BY(mu_);
  u64 next_ TLROB_GUARDED_BY(mu_) = 0;
};

}  // namespace

CampaignResult run_campaign(const CampaignSpec& spec, const EngineOptions& opts) {
  const std::vector<JobSpec> jobs = expand(spec);

  std::map<std::string, JobRecord> done;
  if (opts.resume && !opts.manifest_path.empty()) done = load_manifest(opts.manifest_path);

  std::ofstream manifest;
  if (!opts.manifest_path.empty()) {
    manifest.open(opts.manifest_path, opts.resume ? std::ios::app : std::ios::trunc);
    if (!manifest.is_open())
      throw std::runtime_error("cannot open manifest: " + opts.manifest_path);
  }

  for (ResultSink* sink : opts.sinks) sink->begin(spec, jobs);

  CampaignResult result;
  result.records.reserve(jobs.size());
  InOrderEmitter emitter(opts, &manifest, &result);

  auto run_one = [&](const JobSpec& js) {
    using Origin = InOrderEmitter::Origin;
    if (const auto it = done.find(job_key(js)); it != done.end()) {
      JobRecord rec = it->second;
      rec.job = js.index;  // the cell may sit elsewhere in a grown campaign
      emitter.complete(std::move(rec), Origin::kResumed);
      return;
    }
    bool reused = false;
    JobRecord rec = execute_job(js, &reused);
    emitter.complete(std::move(rec), reused ? Origin::kReused : Origin::kRan);
  };

  // Never more workers than cells: the rest would only start and idle.
  const u64 threads = WorkStealingPool::resolve_threads(opts.jobs);
  result.workers = static_cast<u32>(std::clamp<u64>(jobs.size(), 1, threads));
  if (result.workers == 1) {
    for (const JobSpec& js : jobs) run_one(js);
  } else {
    WorkStealingPool pool(result.workers);
    for (const JobSpec& js : jobs) pool.submit([&run_one, &js] { run_one(js); });
    pool.wait_idle();
  }

  for (ResultSink* sink : opts.sinks) sink->end();
  return result;
}

}  // namespace tlrob::runner
