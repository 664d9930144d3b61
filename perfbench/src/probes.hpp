// Probes the traced run makes besides re-running the workload: each one
// times calls into a tlrob layer's public API from outside, on inputs
// derived from the workload, and adds named values to `out`.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {

using Values = std::map<std::string, double>;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);

/// Median of `v` (0 when empty).
double median(std::vector<double> v);

/// Seconds of host CPU (user + system) this process has used so far.
double process_cpu_s();

/// Re-runs the workload's probe cells straight on SmtCore / CmpMachine
/// (spans sim.SmtCore.run / sim.CmpMachine.run) for the sim.* values:
/// fast-forward share overall and per column, host ns per executed cycle
/// and per committed instruction.
void sim_probe(const Workload& w, SpanRecorder& rec, Values& out);

/// One CMP cell from the workload's inputs, run on the serial and the
/// parallel CMP engine: sim.cmp.parallel_speedup / parallel_cpu_ratio.
/// Returns false when the two engines disagree on the simulated result.
bool parallel_probe(const Workload& w, Values& out);

/// The workload's first R-ROB16 cell with the self-profiler off and on:
/// obs.profiler_overhead_pct. Returns false when the results disagree.
bool profiler_probe(const Workload& w, Values& out);

/// Per-layer host cost on op streams drawn from the workload's profiles:
/// the synthetic generators, trace decode, Cache, MemorySystem,
/// SharedMemory, DramModel, EventWheel, IssueQueue, BranchPredictor and
/// DodPredictor.
void layer_probe(const Workload& w, SpanRecorder& rec, Values& out);

}  // namespace perfbench
