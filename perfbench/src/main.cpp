// tlrob_perfbench: one pass of one benchmark workload, printed as one JSON
// line. perfbench/run.py builds this binary, repeats passes for the
// requested number of seconds and reduces them to the BENCHMARK.json
// metrics.
//
//   tlrob_perfbench --mode run|traced|probes --workload NAME --seed N
//                   [--scale F] [--spans FILE]
//                   [--inject-failed-cell] [--inject-digest]
//
//   run     the workload as a user runs it (run_campaign per campaign,
//           `jobs` workers), untraced: wall, CPU, set-up time, peak RSS,
//           simulated outputs and their digest.
//   traced  the same cells with spans around the public calls (expand,
//           resolve_benchmark, single_thread_ipc, execute_job, sink emit);
//           per-layer runner values and record counts.
//   probes  the sim, parallel-engine, self-profiler and layer probes
//           (probes.hpp).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "probes.hpp"
#include "runner/engine.hpp"
#include "runner/json.hpp"
#include "runner/sinks.hpp"
#include "common/thread_pool.hpp"
#include "sim/experiment.hpp"
#include "sim/presets.hpp"
#include "spans.hpp"
#include "trace/resolve.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using tlrob::runner::CampaignSpec;
using tlrob::runner::JobRecord;
using tlrob::runner::JobSpec;

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// FNV-1a, 64 bit: enough to tell two runs' simulated outputs apart.
struct Fnv64 {
  u64 h = 1469598103934665603ULL;
  void add(const std::string& s) {
    for (const unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ULL;
    }
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
  }
};

double ratio(u64 num, u64 den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

struct Options {
  std::string mode;
  std::string workload;
  u64 seed = 0;
  bool have_seed = false;
  double scale = 1.0;
  std::string spans_path;
  bool inject_failed_cell = false;
  bool inject_digest = false;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--mode")
      o.mode = value();
    else if (a == "--workload")
      o.workload = value();
    else if (a == "--seed") {
      o.seed = std::stoull(value());
      o.have_seed = true;
    } else if (a == "--scale")
      o.scale = std::stod(value());
    else if (a == "--spans")
      o.spans_path = value();
    else if (a == "--inject-failed-cell")
      o.inject_failed_cell = true;
    else if (a == "--inject-digest")
      o.inject_digest = true;
    else
      throw std::invalid_argument("unknown argument " + a);
  }
  if (o.mode != "run" && o.mode != "traced" && o.mode != "probes")
    throw std::invalid_argument("--mode must be run, traced or probes");
  if (o.workload.empty() || !o.have_seed)
    throw std::invalid_argument("--workload and --seed are required");
  if (!(o.scale > 0.0)) throw std::invalid_argument("--scale must be positive");
  return o;
}

/// Calls `f`, inside a span when a recorder is given.
template <typename F>
void maybe_span(SpanRecorder* rec, const char* layer, F&& f) {
  if (rec == nullptr) return f();
  SpanRecorder::Scope s(*rec, layer);
  f();
}

/// Set-up: build the campaigns, resolve every input (tracegen: synthesis and
/// lowering happen here; the resolver memoises them for the cells) and
/// expand each campaign.
Workload set_up(const Options& o, SpanRecorder* rec) {
  Workload w = make_workload(o.workload, o.seed, o.scale);
  if (o.inject_failed_cell) w.campaigns.back().columns.front().max_cycles = 1;
  for (const std::string& name : w.inputs)
    maybe_span(rec, "trace.resolve_benchmark", [&] { (void)tlrob::trace::resolve_benchmark(name); });
  for (const CampaignSpec& spec : w.campaigns)
    maybe_span(rec, "runner.expand", [&] { (void)tlrob::runner::expand(spec); });
  return w;
}

/// What every mode reports about the simulated outputs.
struct Outcome {
  u64 cells = 0;
  u64 failed = 0;
  u64 seed_mismatch = 0;
  u64 committed = 0;  // measured-window commits, all threads, all cells
  u64 duplicates = 0;
  std::string digest;
  double ft_ratio = 0.0;
  double paper_gap_pp = 0.0;
  std::map<std::string, u64> counters;  // summed over ok cells
};

/// Mean fair throughput of one column of one campaign, over its ok cells.
double mean_ft(const std::vector<JobRecord>& recs, const std::string& column) {
  double sum = 0.0;
  u64 n = 0;
  for (const JobRecord& r : recs)
    if (r.config == column && r.ok()) {
      sum += r.ft;
      ++n;
    }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

bool has_column(const CampaignSpec& spec, const std::string& column) {
  return std::any_of(spec.columns.begin(), spec.columns.end(),
                     [&](const auto& c) { return c.name == column; });
}

Outcome summarize(const Workload& w, const std::vector<std::vector<JobRecord>>& recs,
                  bool inject_digest) {
  Outcome out;
  Fnv64 digest;
  std::map<std::string, u64> seen;  // cell identity -> occurrences
  for (size_t c = 0; c < w.campaigns.size(); ++c) {
    const std::vector<JobSpec> jobs = tlrob::runner::expand(w.campaigns[c]);
    for (const JobRecord& r : recs[c]) {
      ++out.cells;
      if (!r.ok()) ++out.failed;
      if (r.seed != w.seed) ++out.seed_mismatch;
      // JobRecords hold only simulated values and identifiers (the
      // self-profiler's host timings never enter them), so the digest of
      // the simulated outputs hashes whole records.
      digest.add(tlrob::runner::to_json_line(r));
      digest.add("\n");
      if (!r.ok()) continue;
      for (const u64 n : r.committed) out.committed += n;
      for (const auto& [k, v] : r.counters) out.counters[k] += v;
      // A duplicate: the same machine (as describe() prints it), mix,
      // length and seed, producing the same simulated record.
      JobRecord anon = r;
      anon.job = 0;
      anon.campaign.clear();
      anon.config.clear();
      const std::string key =
          tlrob::describe(jobs.at(r.job).config) + tlrob::runner::to_json_line(anon);
      if (seen[key]++ > 0) ++out.duplicates;
    }
  }
  if (inject_digest) digest.add("injected mismatch");
  out.digest = digest.hex();

  // Fair-throughput gains as EXPERIMENTS.md computes them: the mean FT of
  // a column over the campaign's mixes, relative to Baseline_32's.
  auto gain = [&](const std::string& column) -> std::pair<bool, double> {
    for (size_t c = 0; c < w.campaigns.size(); ++c)
      if (has_column(w.campaigns[c], column) && has_column(w.campaigns[c], "Baseline_32")) {
        const double base = mean_ft(recs[c], "Baseline_32");
        return {true, base == 0.0 ? 0.0 : mean_ft(recs[c], column) / base};
      }
    return {false, 0.0};
  };
  out.ft_ratio = gain("R-ROB16").second;
  double gap = 0.0;
  u32 n = 0;
  for (const auto& [column, paper_pct] : paper_gains_pct()) {
    const auto [found, r] = gain(column);
    if (!found) continue;
    gap += std::abs(100.0 * (r - 1.0) - paper_pct);
    ++n;
  }
  out.paper_gap_pp = n == 0 ? 0.0 : gap / n;
  return out;
}

/// The traced counterpart of run_campaign: the same expansion, worker
/// count and execute_job calls, with each cell's single-thread reference
/// runs pulled ahead of execute_job so their cost shows as its own span.
std::vector<JobRecord> run_traced_campaign(const CampaignSpec& spec, u32 jobs,
                                           SpanRecorder& rec) {
  SpanRecorder::Scope campaign(rec, "runner.run_campaign");
  const std::vector<JobSpec> cells = tlrob::runner::expand(spec);
  std::vector<JobRecord> out(cells.size());
  std::ostringstream sink_bytes;
  tlrob::runner::JsonlSink sink(sink_bytes);
  std::mutex sink_mu;  // sinks are externally synchronised (sinks.hpp)
  sink.begin(spec, cells);
  auto one = [&](const JobSpec& js) {
    SpanRecorder::Scope job(rec, "runner.job");
    for (const std::string& b : js.mix.benchmarks) {
      SpanRecorder::Scope st(rec, "runner.single_thread_ipc");
      (void)tlrob::single_thread_ipc(b, js.insts);
    }
    JobRecord r;
    {
      SpanRecorder::Scope ex(rec, "runner.execute_job");
      r = tlrob::runner::execute_job(js);
    }
    {
      std::lock_guard<std::mutex> lock(sink_mu);
      SpanRecorder::Scope emit(rec, "runner.emit");
      sink.emit(r);
    }
    out[js.index] = std::move(r);
  };
  if (jobs == 1) {
    for (const JobSpec& js : cells) one(js);
  } else {
    tlrob::WorkStealingPool pool(jobs);
    for (const JobSpec& js : cells) pool.submit([&one, &js] { one(js); });
    pool.wait_idle();
  }
  sink.end();
  return out;
}

/// Per-layer values derived from exact simulated counts.
void count_values(const Outcome& o, Values& v) {
  const auto& c = o.counters;
  auto get = [&](const char* k) {
    const auto it = c.find(k);
    return it == c.end() ? u64{0} : it->second;
  };
  v["runner.duplicate_cell_share"] = ratio(o.duplicates, o.cells);
  v["pipeline.issue_replay_ratio"] = ratio(get("core.issue.replays"), get("core.issue.insts"));
  v["pipeline.wrong_path_share"] = ratio(get("core.fetch.wrong_path"), get("core.fetch.insts"));
  v["rob.grants_per_kinst"] = 1000.0 * ratio(get("rob2.allocations"), get("core.commit.insts"));
  v["memory.l1d.miss_ratio"] = ratio(get("l1d.misses"), get("l1d.accesses"));
  v["memory.l2.miss_ratio"] = ratio(get("l2.misses"), get("l2.accesses"));
  v["memory.llc.hit_ratio"] =
      get("llc.accesses") == 0 ? 0.0 : 1.0 - ratio(get("llc.misses"), get("llc.accesses"));
  v["memory.llc.mshr_full_stalls"] = static_cast<double>(get("llc.mshr_full_stalls"));
  v["memory.dram.row_hit_ratio"] = ratio(get("dram.row_hits"), get("dram.reads"));
  v["branch.mispredict_ratio"] =
      ratio(get("bpred.branch.cond_mispredict"), get("bpred.branch.cond"));
}

void print_json(const Options& o, const Workload& w, const Outcome* out, bool ok,
                const Values& values) {
  using tlrob::runner::json_double;
  using tlrob::runner::json_escape;
  std::ostringstream os;
  os << "{\"mode\":" << json_escape(o.mode) << ",\"workload\":" << json_escape(w.name)
     << ",\"seed\":" << o.seed << ",\"jobs\":" << w.jobs << ",\"ok\":" << (ok ? "true" : "false")
     << ",\"compiler\":" << json_escape(PERFBENCH_COMPILER)
     << ",\"build_type\":" << json_escape(PERFBENCH_BUILD_TYPE);
  if (out != nullptr)
    os << ",\"cells\":" << out->cells << ",\"failed\":" << out->failed
       << ",\"seed_mismatch\":" << out->seed_mismatch << ",\"digest\":" << json_escape(out->digest);
  os << ",\"values\":{";
  bool first = true;
  for (const auto& [k, v] : values) {
    os << (first ? "" : ",") << json_escape(k) << ":" << json_double(v);
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

/// Per-layer span count and self time into `v`; the spans themselves to
/// --spans, written only now that the run is over.
void add_span_values(const Options& o, const SpanRecorder& rec, Values& v) {
  for (const auto& [layer, t] : rec.totals()) {
    v["span." + layer + ".self_s"] = t.self_s;
    v["span." + layer + ".count"] = static_cast<double>(t.count);
  }
  if (o.spans_path.empty()) return;
  std::ofstream f(o.spans_path);
  rec.write_jsonl(f);
  if (!f) throw std::runtime_error("cannot write " + o.spans_path);
}

int run_mode(const Options& o) {
  const auto t_setup = Clock::now();
  const Workload w = set_up(o, nullptr);
  Values v;
  v["setup_s"] = seconds_since(t_setup);

  std::ostringstream sink_bytes;
  tlrob::runner::JsonlSink sink(sink_bytes);
  tlrob::runner::EngineOptions eo;
  eo.jobs = w.jobs;
  eo.sinks = {&sink};
  std::vector<std::vector<JobRecord>> recs;
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  for (const CampaignSpec& spec : w.campaigns)
    recs.push_back(tlrob::runner::run_campaign(spec, eo).records);
  v["wall_s"] = seconds_since(t0);
  v["cpu_s"] = process_cpu_s() - cpu0;

  const Outcome out = summarize(w, recs, o.inject_digest);
  v["sim_kips"] = static_cast<double>(out.committed) / 1000.0 / v["wall_s"];
  v["peak_rss_mb"] = peak_rss_mb();
  v["ft_ratio"] = out.ft_ratio;
  v["paper_gap_pp"] = out.paper_gap_pp;
  print_json(o, w, &out, true, v);
  return 0;
}

int traced_mode(const Options& o) {
  SpanRecorder rec;
  Workload w;
  {
    SpanRecorder::Scope s(rec, "bench.setup");
    w = set_up(o, &rec);
  }
  std::vector<std::vector<JobRecord>> recs;
  const auto t0 = Clock::now();
  for (const CampaignSpec& spec : w.campaigns)
    recs.push_back(run_traced_campaign(spec, w.jobs, rec));
  const double wall = seconds_since(t0);

  const Outcome out = summarize(w, recs, o.inject_digest);
  Values v;
  v["wall_s"] = wall;
  count_values(out, v);
  const auto totals = rec.totals();
  auto total = [&](const char* layer) {
    const auto it = totals.find(layer);
    return it == totals.end() ? 0.0 : it->second.total_s;
  };
  std::vector<double> job_s;
  for (const SpanRec& s : rec.spans())
    if (std::string(s.layer) == "runner.job")
      job_s.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
  v["runner.worker_busy_share"] = total("runner.job") / (w.jobs * total("runner.run_campaign"));
  v["runner.job_s.p50"] = median(job_s);
  v["runner.job_s.max"] = job_s.empty() ? 0.0 : *std::max_element(job_s.begin(), job_s.end());
  v["runner.st_ipc_s"] = total("runner.single_thread_ipc");
  v["runner.emit_s"] = total("runner.emit");
  v["trace.resolve_s"] = total("trace.resolve_benchmark");
  add_span_values(o, rec, v);
  print_json(o, w, &out, true, v);
  return 0;
}

int probes_mode(const Options& o) {
  const Workload w = set_up(o, nullptr);
  SpanRecorder rec;
  Values v;
  sim_probe(w, rec, v);
  const bool parallel_ok = parallel_probe(w, v);
  const bool profile_ok = profiler_probe(w, v);
  layer_probe(w, rec, v);
  add_span_values(o, rec, v);
  print_json(o, w, nullptr, parallel_ok && profile_ok, v);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Options o = perfbench::parse(argc, argv);
    if (o.mode == "run") return perfbench::run_mode(o);
    if (o.mode == "traced") return perfbench::traced_mode(o);
    return perfbench::probes_mode(o);
  } catch (const std::exception& e) {
    std::cerr << "tlrob_perfbench: " << e.what() << "\n";
    return 2;
  }
}
