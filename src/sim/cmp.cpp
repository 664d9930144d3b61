#include "sim/cmp.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "memory/shared_memory.hpp"
#include "obs/chrome_trace.hpp"

namespace tlrob {

CmpMachine::CmpMachine(const MachineConfig& cfg, const std::vector<Benchmark>& benchmarks)
    : cfg_(cfg) {
  if (cfg.num_cores == 0) throw std::invalid_argument("CmpMachine: at least one core required");
  if (benchmarks.size() != static_cast<size_t>(cfg.num_cores) * cfg.num_threads)
    throw std::invalid_argument(
        "CmpMachine: one benchmark per hardware thread (num_cores * num_threads) required");

  // A 1-core machine with the LLC off has nothing to share: shared_ stays
  // null, the core keeps its private fixed-latency channel, and the result
  // carries no llc.*/dram.* counters — the paper's single SMT core.
  if (cfg.llc.enabled || cfg.num_cores > 1) {
    LlcConfig llc = cfg.llc;
    llc.enabled = true;
    shared_ = std::make_unique<SharedMemory>(llc, cfg.dram);
  }

  cores_.reserve(cfg.num_cores);
  for (u32 c = 0; c < cfg.num_cores; ++c) {
    MachineConfig core_cfg = cfg;
    core_cfg.num_cores = 1;
    core_cfg.addr_space_id_base = c * cfg.num_threads;
    const std::vector<Benchmark> slice(benchmarks.begin() + c * cfg.num_threads,
                                       benchmarks.begin() + (c + 1) * cfg.num_threads);
    cores_.push_back(std::make_unique<SmtCore>(core_cfg, slice, shared_.get(), c));
  }
}

void CmpMachine::attach_chrome_trace(const std::vector<obs::ChromeTraceWriter*>& per_core,
                                     obs::ChromeTraceWriter* backend) {
  if (per_core.size() != cores_.size())
    throw std::invalid_argument("CmpMachine::attach_chrome_trace: one writer per core required");
  for (size_t c = 0; c < cores_.size(); ++c) {
    // pid before attach: the core's thread_name metadata events stamp the
    // writer's pid at emission time.
    per_core[c]->set_pid(static_cast<u32>(c));
    per_core[c]->set_process_name("core" + std::to_string(c));
    cores_[c]->attach_chrome_trace(per_core[c]);
  }
  if (backend != nullptr && shared_ != nullptr) {
    backend->set_pid(static_cast<u32>(cores_.size()));
    backend->set_process_name("shared backend");
    shared_->attach_chrome_trace(backend);
  }
}

obs::SelfProfiler CmpMachine::aggregate_profile() const {
  obs::SelfProfiler total;
  total.enable(cfg_.telemetry.profile);
  for (const auto& c : cores_) total.merge(c->profiler());
  return total;
}

u64 CmpMachine::executed_cycles() const {
  u64 total = 0;
  for (const auto& c : cores_) total += c->executed_cycles();
  return total;
}

namespace {

/// One lockstep cycle for all cores, fast-forwarding a globally idle machine
/// (bounded by `limit`).
void step_all(std::span<SmtCore* const> cores, Cycle limit) {
  // The fast-forward needs every cycle to be invisible to observers: the
  // auditor samples fixed cycle intervals and the text tracer logs a window,
  // so any pinned core pins the whole machine (lockstep only holds if nobody
  // fast-forwards past a cycle a peer executed). The Chrome trace and the
  // interval sampler do not pin: trace events only happen in state-changing
  // ticks, and skipped sample points are replayed from the quiescent state.
  bool pinned = false;
  for (SmtCore* c : cores) pinned = pinned || c->cmp_pinned();
  if (pinned) {
    for (SmtCore* c : cores) c->tick();
    return;
  }

  // Tick every core (fixed order — the deterministic interleaving of shared
  // LLC/DRAM requests); no short-circuit, all cores must advance this cycle.
  bool any = false;
  for (SmtCore* c : cores)
    if (c->cmp_tick()) any = true;
  if (any) return;

  // Globally idle cycle: jump to the earliest cycle anything can happen at
  // on ANY core. The shared backend never wakes a core on its own (latency
  // chain), so the per-core wake bounds are machine-wide sound.
  Cycle wake = limit;
  for (SmtCore* c : cores) wake = std::min(wake, c->cmp_idle_wake(limit));
  if (wake <= cores.front()->now()) return;
  for (SmtCore* c : cores) c->cmp_replay_idle_to(wake);
}

}  // namespace

void run_lockstep(std::span<SmtCore* const> cores, u64 commit_target, u64 max_cycles,
                  u64 warmup_insts) {
  if (max_cycles == 0) max_cycles = (warmup_insts + commit_target) * 400 + 200000;
  auto now = [&] { return cores.front()->now(); };
  auto fastest_measured = [&] {
    u64 best = 0;
    for (const SmtCore* c : cores) best = std::max(best, c->fastest_measured());
    return best;
  };

  while (now() < max_cycles && fastest_measured() < warmup_insts) step_all(cores, max_cycles);
  // Open the measurement window even after a zero-length warmup: the cores'
  // constructor-time cache pre-warm must not count as measured traffic. Every
  // core resets at the same lockstep boundary; each also resets the shared
  // backend's stats (idempotent repeats).
  for (SmtCore* c : cores) c->reset_measurement();
  while (now() < max_cycles && fastest_measured() < commit_target) step_all(cores, max_cycles);
  for (SmtCore* c : cores) c->flush_chrome_trace();
}

RunResult CmpMachine::run(u64 commit_target, u64 max_cycles, u64 warmup_insts) {
  std::vector<SmtCore*> cores;
  cores.reserve(cores_.size());
  for (auto& c : cores_) cores.push_back(c.get());
  run_lockstep(cores, commit_target, max_cycles, warmup_insts);
  return snapshot_result();
}

RunResult CmpMachine::snapshot_result() const {
  RunResult r = cores_.front()->snapshot_result();
  for (size_t c = 1; c < cores_.size(); ++c) {
    const RunResult rc = cores_[c]->snapshot_result();
    // Threads concatenate core-major; cycles are lockstep-equal across cores.
    r.threads.insert(r.threads.end(), rc.threads.begin(), rc.threads.end());
    // Stall taxonomy concatenates in the same machine-global thread order
    // (empty vectors when telemetry is off keep this a no-op).
    r.stall_cycles.insert(r.stall_cycles.end(), rc.stall_cycles.begin(), rc.stall_cycles.end());
    r.dod_true.merge(rc.dod_true);
    r.dod_proxy.merge(rc.dod_proxy);
    // Per-core counters sum under their historical names ("l2.misses" is the
    // machine-wide L2 miss count, etc.).
    for (const auto& [name, v] : rc.counters) r.counters[name] += v;
  }
  if (cores_.size() > 1 && cores_.front()->samples().enabled()) {
    std::vector<const obs::IntervalSeries*> series;
    series.reserve(cores_.size());
    for (const auto& c : cores_) series.push_back(&c->samples());
    r.samples = obs::merge_core_series(series);
  }
  if (shared_ != nullptr) {
    auto& sm = const_cast<SharedMemory&>(*shared_);
    auto merge = [&r](const std::string& prefix, const StatGroup& g) {
      for (const auto& [name, c] : g.counters_map()) r.counters[prefix + name] = c.value();
    };
    merge("llc.", sm.llc().stats());
    merge("llc.", sm.stats());  // cross-core merges, MSHR stalls, writebacks
    merge("dram.", sm.dram().stats());
  }
  return r;
}

}  // namespace tlrob
