// CMP-of-SMT machine: N SmtCores in lockstep behind one shared LLC + banked
// DRAM backend.
//
// Each core is a complete Table 1 SMT core — private L1/L2, branch state,
// issue queue, register files, and its own second-level ROB partition — and
// the cores couple only through SharedMemory (memory/shared_memory.hpp),
// whose latency-chain contract means the memory side never generates events
// of its own. That makes the machine-wide tick loop simple and the global
// idle fast-forward sound:
//
//   - Cores tick in fixed index order every cycle (deterministic
//     interleaving of LLC/DRAM requests).
//   - The machine fast-forwards only when EVERY core proved its cycle idle
//     in the same lockstep cycle; the jump target is the minimum of the
//     cores' individual wake bounds, and each core replays its own stall
//     counters and sample points across the skipped distance (SmtCore's
//     cmp_tick / cmp_idle_wake / cmp_replay_idle_to).
//
// Result merging: per-thread results concatenate core-major (core c's
// thread t is machine thread c*M + t, matching the workload slicing and the
// address-space bases), per-core counters sum under their historical names,
// the shared llc.*/dram.* families append once, and the DoD histograms
// merge.
//
// run_lockstep is the simulator's one run loop: CmpMachine::run steps its
// cores through it, and SmtCore::run steps a one-core span through it. A
// single SMT core is an N = 1 machine without a backend (the M-Sim /
// ChampSim shape: one global loop over the cores), and step_all over one
// core is exactly the single-core tick / fast-forward sequence.
//
// The machine runs on one host thread. A parallel engine (one worker per
// core behind a deterministic barrier at the shared-backend boundary) was
// built and deleted: every LLC/DRAM access is a global (cycle, core)
// handshake under the latency-chain model, so it never beat this loop.
// Campaign-level `--jobs` is the parallelism (DESIGN.md §14).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "sim/smt_sim.hpp"

namespace tlrob {

/// The run loop: steps `cores` in lockstep until any thread on any core has
/// committed `commit_target` measured instructions or `max_cycles` elapse
/// (0 = derive a generous bound from the targets). `warmup_insts` commits
/// per fastest thread run first; then every core's measurement window opens
/// (reset_measurement, also when `warmup_insts` is 0, so the constructor's
/// cache pre-warm never counts). Leaves the results in the cores, to be read
/// with snapshot_result().
void run_lockstep(std::span<SmtCore* const> cores, u64 commit_target, u64 max_cycles,
                  u64 warmup_insts);

class CmpMachine {
 public:
  /// One Benchmark per hardware thread, core-major: benchmarks[c*M + t] runs
  /// on core c, thread t. `benchmarks.size()` must equal
  /// cfg.num_cores * cfg.num_threads.
  CmpMachine(const MachineConfig& cfg, const std::vector<Benchmark>& benchmarks);

  /// Runs until any thread on any core has committed `commit_target`
  /// instructions or `max_cycles` elapse (0 = derive a generous bound), with
  /// `warmup_insts` excluded from every statistic (run_lockstep).
  RunResult run(u64 commit_target, u64 max_cycles = 0, u64 warmup_insts = 0);

  u32 num_cores() const { return static_cast<u32>(cores_.size()); }
  SmtCore& core(u32 c) { return *cores_[c]; }
  const SmtCore& core(u32 c) const { return *cores_[c]; }
  /// Null when the machine has no shared backend (1 core, LLC disabled).
  SharedMemory* shared_memory() { return shared_.get(); }

  /// Machine-wide Chrome tracing: one writer per core (process track
  /// "core<c>", pid = core index, carrying that core's thread/grant tracks)
  /// plus an optional backend writer (pid = num_cores, process "shared
  /// backend") that records LLC MSHR-pool occupancy, per-bank DRAM row
  /// open/conflict instants and cross-core merge events. Pass
  /// `per_core.size() == num_cores()`; `backend` may be null (and is
  /// ignored without a shared backend). Merge the writers with
  /// obs::ChromeTraceWriter::write_merged for one Perfetto-loadable file.
  void attach_chrome_trace(const std::vector<obs::ChromeTraceWriter*>& per_core,
                           obs::ChromeTraceWriter* backend);

  /// Sum of the cores' host self-profilers (phase nanos and call counts),
  /// for one machine-wide profile= table.
  obs::SelfProfiler aggregate_profile() const;

  /// Machine-wide executed ticks (sum over cores of cycles minus their
  /// fast-forwarded spans) — the ns/cycle denominator for
  /// aggregate_profile().print.
  u64 executed_cycles() const;

  /// Machine-wide result: concatenated threads, summed per-core counters,
  /// shared llc.*/dram.* families, merged DoD histograms and sample series.
  RunResult snapshot_result() const;

 private:
  MachineConfig cfg_;
  std::unique_ptr<SharedMemory> shared_;  // may be null (1 core, LLC off)
  std::vector<std::unique_ptr<SmtCore>> cores_;
};

}  // namespace tlrob
