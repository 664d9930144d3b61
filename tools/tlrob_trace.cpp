// tlrob-trace — one-stop telemetry capture: runs a single configuration /
// mix and writes the full observability bundle (Chrome trace-event JSON for
// ui.perfetto.dev, the interval-sample series as JSON lines and/or CSV, and
// the host self-profile), without wading through the simulate driver's
// statistic dump.
//
//   tlrob-trace mix=2 scheme=rrob threshold=16 out=trace.json
//   tlrob-trace mix=1 sample=500 samples=series.jsonl csv=series.csv
//
// Options (key=value / --key value, as everywhere in this repo):
//   mix=N / positional bench names   workload (default mix=1)
//   out=PATH       Chrome trace JSON (default trace.json; "-" = stdout)
//   samples=PATH   interval series, JSON lines
//   csv=PATH       interval series, CSV
//   sample=N       sampling period in cycles (default 1000)
//   profile=0|1    host self-profile to stderr (default 1)
//   insts= / warmup= / max_cycles= and all sim/config_override.hpp machine
//   knobs (scheme=, threshold=, policy=, rob1=, rob2=, ...) apply —
//   including the CMP topology knobs (cores=, llc=, dram=, the same grammar
//   tlrob-campaign accepts). Any other key exits 2 before simulating.
//
// Every run steps through CmpMachine (one core without a shared backend by
// default): the Chrome trace carries one process track per core ("core0",
// "core1", ...) plus, with a shared backend, a "shared backend" process
// with LLC MSHR-pool occupancy and per-bank DRAM row-state tracks; the
// sample series is the machine-wide core-merged one. The machine runs on
// one host thread.
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "obs/chrome_trace.hpp"
#include "sim/cmp.hpp"
#include "sim/config_override.hpp"
#include "sim/experiment.hpp"
#include "workload/spec_profiles.hpp"

using namespace tlrob;

namespace {

bool write_to(const std::string& path, const char* what,
              const std::function<void(std::ostream&)>& emit) {
  if (path == "-") {
    emit(std::cout);
    return true;
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot open %s sink '%s'\n", what, path.c_str());
    return false;
  }
  emit(out);
  std::fprintf(stderr, "wrote %s to %s\n", what, path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = Options::from_args(argc, argv);

  std::vector<Benchmark> benches;
  if (opts.has("mix")) {
    benches = mix_benchmarks(table2_mix(static_cast<u32>(opts.get_u64("mix", 1))));
  } else {
    for (const std::string& name : opts.positional()) {
      if (!is_spec_benchmark(name)) {
        std::fprintf(stderr, "unknown benchmark '%s'\n", name.c_str());
        return 2;
      }
      benches.push_back(spec_benchmark(name));
    }
  }
  if (benches.empty()) benches = mix_benchmarks(table2_mix(1));

  MachineConfig cfg;
  cfg.num_threads = static_cast<u32>(benches.size());
  cfg = apply_overrides(cfg, opts);
  // One benchmark per hardware thread, core-major.
  const size_t hw_threads = static_cast<size_t>(cfg.num_cores) * cfg.num_threads;
  while (benches.size() < hw_threads) benches.push_back(benches.back());
  if (benches.size() > hw_threads) benches.resize(hw_threads);

  cfg.telemetry.sample_interval = opts.get_u64("sample", 1000);
  cfg.telemetry.profile = opts.get_bool("profile", true);

  const u64 insts = opts.get_u64("insts", 120000);
  const u64 warmup = opts.get_u64("warmup", 60000);
  const u64 max_cycles = opts.get_u64("max_cycles", 0);
  const std::string out_path = opts.get("out", "trace.json");
  const std::string samples_path = opts.get("samples");
  const std::string csv_path = opts.get("csv");

  // Every key is read by now: one nothing read is a typo or a retired knob.
  const std::vector<std::string> unread = opts.unread_keys();
  if (!unread.empty()) {
    std::fprintf(stderr, "error: tlrob-trace does not use key%s", unread.size() == 1 ? "" : "s");
    for (const std::string& key : unread) std::fprintf(stderr, " %s=", key.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }

  CmpMachine machine(cfg, benches);
  std::vector<obs::ChromeTraceWriter> core_writers(cfg.num_cores);
  obs::ChromeTraceWriter backend_writer;
  std::vector<obs::ChromeTraceWriter*> per_core;
  per_core.reserve(core_writers.size());
  for (auto& w : core_writers) per_core.push_back(&w);
  machine.attach_chrome_trace(per_core, &backend_writer);
  const RunResult r = machine.run(insts, max_cycles, warmup);

  std::vector<const obs::ChromeTraceWriter*> all;
  for (const auto& w : core_writers) all.push_back(&w);
  if (machine.shared_memory() != nullptr) all.push_back(&backend_writer);
  size_t events = 0;
  for (const auto* w : all) events += w->event_count();
  std::fprintf(stderr, "%u cores, %llu cycles, %zu samples, %zu trace events\n",
               machine.num_cores(), static_cast<unsigned long long>(r.cycles),
               r.samples.size(), events);

  bool ok = write_to(out_path, "Chrome trace", [&](std::ostream& os) {
    obs::ChromeTraceWriter::write_merged(os, all);
  });
  if (!samples_path.empty())
    ok &= write_to(samples_path, "sample series (JSONL)",
                   [&](std::ostream& os) { r.samples.write_jsonl(os); });
  if (!csv_path.empty())
    ok &= write_to(csv_path, "sample series (CSV)",
                   [&](std::ostream& os) { r.samples.write_csv(os); });
  if (cfg.telemetry.profile)
    machine.aggregate_profile().print(std::cerr, machine.executed_cycles());
  return ok ? 0 : 1;
}
