#include "runner/engine.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <stdexcept>

#include "common/sync.hpp"
#include "obs/interval_sampler.hpp"
#include "common/thread_pool.hpp"
#include "sim/experiment.hpp"
#include "trace/resolve.hpp"

namespace tlrob::runner {

JobRecord execute_job(const JobSpec& spec) {
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
    MachineConfig cfg = spec.config;
    cfg.seed = spec.seed;
    if (spec.sample_interval != 0) cfg.telemetry.sample_interval = spec.sample_interval;
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

  void complete(JobRecord rec, bool resumed) {
    MutexLock lock(mu_);
    if (!resumed && manifest_ && manifest_->is_open()) {
      // Journal in completion order — the manifest is a log, not a sink.
      *manifest_ << to_json_line(rec) << "\n";
      manifest_->flush();
    }
    if (resumed)
      ++result_->resumed;
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
    if (const auto it = done.find(job_key(js)); it != done.end()) {
      JobRecord rec = it->second;
      rec.job = js.index;  // the cell may sit elsewhere in a grown campaign
      emitter.complete(std::move(rec), /*resumed=*/true);
      return;
    }
    emitter.complete(execute_job(js), /*resumed=*/false);
  };

  if (opts.jobs == 1) {
    for (const JobSpec& js : jobs) run_one(js);
  } else {
    WorkStealingPool pool(opts.jobs);
    for (const JobSpec& js : jobs) pool.submit([&run_one, &js] { run_one(js); });
    pool.wait_idle();
  }

  for (ResultSink* sink : opts.sinks) sink->end();
  return result;
}

}  // namespace tlrob::runner
