// Simulator-throughput microbenchmarks (google-benchmark): cycles/second and
// simulated-instructions/second of the core on representative workloads.
// Not a paper figure — a regression guard for the simulator itself.
#include <benchmark/benchmark.h>

#include "sim/cmp.hpp"
#include "sim/experiment.hpp"
#include "trace/resolve.hpp"
#include "workload/spec_profiles.hpp"

using namespace tlrob;

namespace {

void BM_SingleThreadCompute(benchmark::State& state) {
  u64 insts = 0, cycles = 0;
  for (auto _ : state) {
    MachineConfig cfg = single_thread_config();
    SmtCore core(cfg, {spec_benchmark("crafty")});
    const RunResult r = core.run(20000);
    insts += r.threads[0].committed;
    cycles += r.cycles;
  }
  state.counters["sim_insts/s"] =
      benchmark::Counter(static_cast<double>(insts), benchmark::Counter::kIsRate);
  state.counters["sim_cycles/s"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SingleThreadCompute)->Unit(benchmark::kMillisecond);

void BM_SingleThreadMemoryBound(benchmark::State& state) {
  u64 insts = 0, cycles = 0;
  for (auto _ : state) {
    MachineConfig cfg = single_thread_config();
    SmtCore core(cfg, {spec_benchmark("art")});
    const RunResult r = core.run(10000);
    insts += r.threads[0].committed;
    cycles += r.cycles;
  }
  state.counters["sim_insts/s"] =
      benchmark::Counter(static_cast<double>(insts), benchmark::Counter::kIsRate);
  state.counters["sim_cycles/s"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SingleThreadMemoryBound)->Unit(benchmark::kMillisecond);

void BM_FourThreadMixTwoLevel(benchmark::State& state) {
  u64 insts = 0, cycles = 0;
  for (auto _ : state) {
    SmtCore core(two_level_config(RobScheme::kReactive, 16),
                 mix_benchmarks(table2_mix(1)));
    const RunResult r = core.run(10000);
    for (const auto& t : r.threads) insts += t.committed;
    cycles += r.cycles;
  }
  state.counters["sim_insts/s"] =
      benchmark::Counter(static_cast<double>(insts), benchmark::Counter::kIsRate);
  state.counters["sim_cycles/s"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FourThreadMixTwoLevel)->Unit(benchmark::kMillisecond);

// Cache-hierarchy stress: four low-locality memory-hostile threads (pointer
// chases and random gathers) whose combined footprint defeats the L2, so the
// run spends its time in the cache probe/fill/MSHR/memory-channel path and a
// regression there moves this number even when the compute-heavy benches
// stay flat. High L2 MPKI by construction — every thread misses the L2 for
// most of its loads.
void BM_CacheHierarchyStress(benchmark::State& state) {
  u64 insts = 0, cycles = 0;
  for (auto _ : state) {
    SmtCore core(two_level_config(RobScheme::kReactive, 16),
                 {spec_benchmark("mcf"), spec_benchmark("art"),
                  spec_benchmark("equake"), spec_benchmark("lucas")});
    const RunResult r = core.run(10000);
    for (const auto& t : r.threads) insts += t.committed;
    cycles += r.cycles;
  }
  state.counters["sim_insts/s"] =
      benchmark::Counter(static_cast<double>(insts), benchmark::Counter::kIsRate);
  state.counters["sim_cycles/s"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CacheHierarchyStress)->Unit(benchmark::kMillisecond);

// Trace-frontend throughput: drives TraceThreadSource::next() directly —
// record decode, per-record replay (lookahead, address rebasing, target
// resolution) and loop rewind, with no timing model behind it. The workload
// is an in-memory synthesized trace (loaded and lowered once, outside the
// timed region, via the resolve memo). Reported under the regression
// guard's "sim_cycles/s" key so BENCH_sim_speed.json can track it; the unit
// here is replayed uops, not cycles.
void BM_TraceFrontendDecode(benchmark::State& state) {
  const Benchmark bench = trace::resolve_benchmark("tracegen:art@20000@1");
  constexpr u64 kUopsPerIter = 100000;
  u64 uops = 0;
  for (auto _ : state) {
    auto src = bench.source_factory(bench, Addr{1} << 36, 1);
    for (u64 i = 0; i < kUopsPerIter; ++i) benchmark::DoNotOptimize(src->next());
    uops += kUopsPerIter;
  }
  state.counters["sim_cycles/s"] =
      benchmark::Counter(static_cast<double>(uops), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TraceFrontendDecode)->Unit(benchmark::kMillisecond);

// CMP-engine throughput: four SMT cores (16 hardware threads) in lockstep
// behind the shared LLC + banked DRAM, each core on a different Table 2
// mix. Exercises everything the single-core benches cannot: the per-cycle
// all-core tick loop, the machine-wide idle fast-forward (all cores must
// agree), and the shared-backend request path under cross-core contention.
// Cycles counted once per machine (lockstep), so cycles/s compares directly
// with the 1-core numbers as "machine cycles simulated per second".
void BM_CmpFourCoreMix(benchmark::State& state) {
  u64 insts = 0, cycles = 0;
  for (auto _ : state) {
    std::vector<Benchmark> work;
    for (const u32 m : {1u, 4u, 7u, 10u})
      for (Benchmark& b : mix_benchmarks(table2_mix(m))) work.push_back(std::move(b));
    CmpMachine machine(cmp_config(4, RobScheme::kReactive, 16), work);
    const RunResult r = machine.run(10000);
    for (const auto& t : r.threads) insts += t.committed;
    cycles += r.cycles;
  }
  state.counters["sim_insts/s"] =
      benchmark::Counter(static_cast<double>(insts), benchmark::Counter::kIsRate);
  state.counters["sim_cycles/s"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CmpFourCoreMix)->Unit(benchmark::kMillisecond);

// Telemetry-overhead companion to BM_CmpFourCoreMix: the identical machine
// with interval sampling on, which arms the full observability stack — the
// per-cycle stall-taxonomy attribution, the piecewise idle-span replay, and
// the machine-wide sample merge. The regression gate holds the sampled
// engine to the same tolerance band as everything else, so attribution
// creeping into the hot path (instead of staying behind the
// sample_every_ != 0 gate) shows up as a perf-smoke failure, not a
// mystery slowdown.
void BM_CmpFourCoreMixSampled(benchmark::State& state) {
  u64 insts = 0, cycles = 0;
  for (auto _ : state) {
    std::vector<Benchmark> work;
    for (const u32 m : {1u, 4u, 7u, 10u})
      for (Benchmark& b : mix_benchmarks(table2_mix(m))) work.push_back(std::move(b));
    MachineConfig cfg = cmp_config(4, RobScheme::kReactive, 16);
    cfg.telemetry.sample_interval = 500;
    CmpMachine machine(cfg, work);
    const RunResult r = machine.run(10000);
    for (const auto& t : r.threads) insts += t.committed;
    cycles += r.cycles;
  }
  state.counters["sim_insts/s"] =
      benchmark::Counter(static_cast<double>(insts), benchmark::Counter::kIsRate);
  state.counters["sim_cycles/s"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CmpFourCoreMixSampled)->Unit(benchmark::kMillisecond);

// Invariant-audit overhead: the four-thread two-level mix with the auditor
// at each level, explicitly overriding any $TLROB_AUDIT ambient setting so
// the three variants measure exactly what their names say. The cheap tier is
// the always-on CI candidate and must stay within ~10% of Off; Full is the
// debugging tier and is expected to be much slower (ground-truth recounts).
void BM_AuditOverhead(benchmark::State& state, AuditLevel level) {
  u64 insts = 0, cycles = 0;
  for (auto _ : state) {
    MachineConfig cfg = two_level_config(RobScheme::kReactive, 16);
    cfg.audit = AuditConfig{};
    cfg.audit.level = level;
    cfg.audit.abort_on_violation = true;
    SmtCore core(cfg, mix_benchmarks(table2_mix(1)));
    const RunResult r = core.run(10000);
    for (const auto& t : r.threads) insts += t.committed;
    cycles += r.cycles;
  }
  state.counters["sim_insts/s"] =
      benchmark::Counter(static_cast<double>(insts), benchmark::Counter::kIsRate);
  state.counters["sim_cycles/s"] =
      benchmark::Counter(static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_AuditOverhead, Off, AuditLevel::kOff)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_AuditOverhead, Cheap, AuditLevel::kCheap)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_AuditOverhead, Full, AuditLevel::kFull)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
