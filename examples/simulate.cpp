// Full simulator driver (the sim-outorder of this repository), and the one
// single-run driver: run any benchmark combination on any machine
// configuration, dump every statistic the core collects, and capture the
// run's telemetry (interval series, Chrome trace, host self-profile).
//
//   ./simulate [bench names ...] [key=value ...]
//   ./simulate --help      lists every key (run, machine and telemetry)
//
// Workload selection: either positional SPEC profile names (1..N, one per
// hardware thread, e.g. `./simulate art mgrid crafty parser`) or `mix=N`
// for a Table 2 mix. `threads=` defaults to the number of named benchmarks.
// Every run steps through a CmpMachine (one core without a shared backend
// by default); the workload list is core-major and cores= splits the
// machine-wide thread count, as tlrob-campaign's --cores does, so
// `simulate mix=1 cores=2` runs 2 cores x 2 threads over the same four
// benchmarks and `simulate mix=2 threads=16 cores=4` runs 4 cores x 4
// threads (the last benchmark fills the extra threads).
//
// The sample series is the machine-wide core-merged one. trace_json= writes
// one Chrome trace for ui.perfetto.dev with a process track per core
// ("core0", "core1", ...) plus, with a shared backend, a "shared backend"
// process carrying LLC MSHR-pool occupancy and per-bank DRAM row-state
// tracks. profile=1 prints the machine-wide host self-profile. Only the
// trace= pipeline window observes core 0 alone.
//
// Examples:
//   ./simulate mix=1 scheme=rrob threshold=16
//   ./simulate art art mgrid crafty scheme=prob threshold=5 stats=1
//   ./simulate mcf threads=1 rob1=128 policy=icount
//   ./simulate mix=2 scheme=rrob sample=1000 sample_out=series.jsonl
//       trace_json=trace.json
//   ./simulate mix=2 threads=16 cores=4 scheme=rrob sample=500
//       trace_json=cmp_trace.json sample_out=cmp_series.jsonl
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "obs/chrome_trace.hpp"
#include "runner/cli.hpp"
#include "sim/cmp.hpp"
#include "sim/config_override.hpp"
#include "sim/experiment.hpp"
#include "workload/spec_profiles.hpp"

using namespace tlrob;

namespace {

int simulate(const Options& opts) {
  // --- workload ------------------------------------------------------------
  std::vector<Benchmark> benches;
  if (opts.has("mix")) {
    benches = mix_benchmarks(table2_mix(opts.get_u32("mix", 1)));
  } else {
    for (const std::string& name : opts.positional()) {
      if (!is_spec_benchmark(name)) {
        std::string known;
        for (const auto& b : spec_benchmarks()) known += " " + b.name;
        throw OptionError("unknown benchmark '" + name + "'; available:" + known);
      }
      benches.push_back(spec_benchmark(name));
    }
  }
  if (benches.empty()) benches = mix_benchmarks(table2_mix(1));

  // --- machine ----------------------------------------------------------------
  MachineConfig cfg;
  cfg.num_threads = static_cast<u32>(benches.size());
  cfg.rob_second_level = 0;
  cfg.rob.scheme = RobScheme::kBaseline;
  cfg = apply_overrides(cfg, opts);
  if (cfg.rob.scheme != RobScheme::kBaseline && !opts.has("rob2"))
    cfg.rob_second_level = 384;  // Table 1 default when a two-level scheme is on
  // cores= splits the machine-wide thread count (num_threads so far counts
  // the whole workload list), matching tlrob-campaign's --cores semantics.
  const u32 cores = cfg.num_cores;
  if (cores > 1) {
    if (cfg.num_threads % cores != 0)
      throw OptionError("threads=" + std::to_string(cfg.num_threads) +
                        " not divisible by cores=" + std::to_string(cores));
    cfg.num_threads /= cores;
  }
  const size_t machine_threads = static_cast<size_t>(cfg.num_threads) * cores;
  while (benches.size() < machine_threads) benches.push_back(benches.back());
  if (benches.size() > machine_threads) benches.resize(machine_threads);

  const u64 insts = opts.get_u64("insts", 120000);
  const u64 warmup = opts.get_u64("warmup", 60000);
  const u64 max_cycles = opts.get_u64("max_cycles", 0);
  const bool dump_stats = opts.get_bool("stats", false);
  // trace=START[:END] (END defaults to START + 200).
  const std::string trace_window = opts.get("trace");
  Cycle trace_lo = 0, trace_hi = 0;
  if (!trace_window.empty()) {
    const auto colon = trace_window.find(':');
    trace_lo = parse_unsigned("--trace", trace_window.substr(0, colon));
    trace_hi = colon == std::string::npos
                   ? trace_lo + 200
                   : parse_unsigned("--trace", trace_window.substr(colon + 1));
    if (trace_hi <= trace_lo)
      throw OptionError("--trace: expected START:END with END > START, got '" + trace_window +
                        "'");
  }

  // --- observability -------------------------------------------------------
  cfg.telemetry.sample_interval = opts.get_u64("sample", cfg.telemetry.sample_interval);
  cfg.telemetry.profile = opts.get_bool("profile", cfg.telemetry.profile);
  const std::string sample_out = opts.get("sample_out");
  const std::string sample_csv = opts.get("sample_csv");
  const std::string trace_json = opts.get("trace_json");
  if ((!sample_out.empty() || !sample_csv.empty()) && cfg.telemetry.sample_interval == 0)
    cfg.telemetry.sample_interval = 1000;  // asking for the series implies sampling

  // Every key is read by now: one nothing read is a typo or a retired knob.
  opts.reject_unread("simulate");
  // Built before anything is printed, so a machine it rejects leaves stdout
  // empty.
  CmpMachine machine(cfg, benches);

  std::printf("%s", describe(cfg).c_str());
  std::printf("workload              ");
  for (const auto& b : benches) std::printf(" %s", b.name.c_str());
  std::printf("\nrun                    %llu insts after %llu warmup\n\n",
              static_cast<unsigned long long>(insts),
              static_cast<unsigned long long>(warmup));

  if (!trace_window.empty()) {
    if (cores > 1) std::fprintf(stderr, "note: trace= observes core 0 of %u\n", cores);
    machine.core(0).tracer().attach(&std::cerr, trace_lo, trace_hi);
  }
  // One Chrome trace writer per core plus one for the shared backend, merged
  // into one file after the run.
  std::vector<obs::ChromeTraceWriter> chrome(cores + 1);
  std::vector<const obs::ChromeTraceWriter*> chrome_tracks;
  if (!trace_json.empty()) {
    std::vector<obs::ChromeTraceWriter*> per_core;
    for (u32 c = 0; c < cores; ++c) per_core.push_back(&chrome[c]);
    machine.attach_chrome_trace(per_core, &chrome[cores]);
    for (const auto& w : chrome) chrome_tracks.push_back(&w);
    if (machine.shared_memory() == nullptr) chrome_tracks.pop_back();
  }
  const RunResult r = machine.run(insts, max_cycles, warmup);

  // A sink path of "-" means stdout; anything else is a file (created or
  // truncated). Returns false when the file cannot be opened.
  auto write_to = [](const std::string& path, auto&& emit) {
    if (path == "-") {
      emit(std::cout);
      return true;
    }
    std::ofstream out(path, std::ios::trunc);
    if (!out.is_open()) {
      std::fprintf(stderr, "cannot open '%s'\n", path.c_str());
      return false;
    }
    emit(out);
    return true;
  };
  bool sinks_ok = true;
  if (!sample_out.empty())
    sinks_ok &= write_to(sample_out, [&](std::ostream& os) { r.samples.write_jsonl(os); });
  if (!sample_csv.empty())
    sinks_ok &= write_to(sample_csv, [&](std::ostream& os) { r.samples.write_csv(os); });
  if (!trace_json.empty())
    sinks_ok &= write_to(trace_json, [&](std::ostream& os) {
      obs::ChromeTraceWriter::write_merged(os, chrome_tracks);
    });
  if (cfg.telemetry.profile)
    machine.aggregate_profile().print(std::cerr, machine.executed_cycles());

  std::printf("%-10s %10s %10s\n", "thread", "committed", "IPC");
  for (const auto& t : r.threads)
    std::printf("%-10s %10llu %10.4f\n", t.benchmark.c_str(),
                static_cast<unsigned long long>(t.committed), t.ipc);
  std::printf("%-10s %10llu %10.4f  (sum)\n", "cycles",
              static_cast<unsigned long long>(r.cycles), r.total_throughput());

  if (cfg.rob.scheme != RobScheme::kBaseline) {
    // rob2.busy_cycles is summed over the cores, each with its own second
    // level: the denominator is every core's cycles.
    const u64 busy = run_counter(r, "rob2.busy_cycles");
    const u64 core_cycles = static_cast<u64>(cores) * r.cycles;
    std::printf("\nsecond level: %llu allocations, busy %llu/%llu cycles (%.1f%%)\n",
                static_cast<unsigned long long>(run_counter(r, "rob2.allocations")),
                static_cast<unsigned long long>(busy),
                static_cast<unsigned long long>(core_cycles),
                core_cycles
                    ? 100.0 * static_cast<double>(busy) / static_cast<double>(core_cycles)
                    : 0.0);
  }
  if (r.dod_true.total_samples() > 0)
    std::printf("long-latency loads: %llu, mean DoD %.2f (proxy %.2f)\n",
                static_cast<unsigned long long>(r.dod_true.total_samples()),
                r.dod_true.mean(), r.dod_proxy.mean());

  if (dump_stats) {
    std::printf("\n--- all counters ---\n");
    for (const auto& [k, v] : r.counters)
      std::printf("%-44s %llu\n", k.c_str(), static_cast<unsigned long long>(v));
  }
  return sinks_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return run_cli(argc, argv, runner::tool_cli("simulate"), simulate);
}
