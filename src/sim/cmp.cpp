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

  // A 1-core machine with the LLC off has nothing to share; leaving shared_
  // null keeps that configuration on the exact legacy path (no llc.*/dram.*
  // counters, bit-identical results) while still exercising this engine.
  if (cfg.llc.enabled || cfg.num_cores > 1) {
    LlcConfig llc = cfg.llc;
    llc.enabled = true;
    shared_ = std::make_unique<SharedMemory>(llc, cfg.dram);
  }

  cores_.reserve(cfg.num_cores);
  for (u32 c = 0; c < cfg.num_cores; ++c) {
    MachineConfig core_cfg = cfg;
    core_cfg.num_cores = 1;
    core_cfg.force_cmp_engine = false;
    core_cfg.addr_space_id_base = c * cfg.num_threads;
    const std::vector<Benchmark> slice(benchmarks.begin() + c * cfg.num_threads,
                                       benchmarks.begin() + (c + 1) * cfg.num_threads);
    cores_.push_back(std::make_unique<SmtCore>(core_cfg, slice, shared_.get(), c));
  }
}

void CmpMachine::tick() {
  for (auto& c : cores_) c->tick();
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

void CmpMachine::step_all(Cycle limit) {
  // Any pinned core (auditor / text tracer) pins the whole machine: lockstep
  // only holds if nobody fast-forwards past a cycle a peer executed.
  bool pinned = false;
  for (auto& c : cores_) pinned = pinned || c->cmp_pinned();
  if (pinned) {
    for (auto& c : cores_) c->tick();
    return;
  }

  // Tick every core (fixed order — the deterministic interleaving of shared
  // LLC/DRAM requests); no short-circuit, all cores must advance this cycle.
  bool any = false;
  for (auto& c : cores_)
    if (c->cmp_tick()) any = true;
  if (any) return;

  // Globally idle cycle: jump to the earliest cycle anything can happen at
  // on ANY core. The shared backend never wakes a core on its own (latency
  // chain), so the per-core wake bounds are machine-wide sound.
  Cycle wake = limit;
  for (auto& c : cores_) wake = std::min(wake, c->cmp_idle_wake(limit));
  if (wake <= now()) return;
  for (auto& c : cores_) c->cmp_replay_idle_to(wake);
}

void CmpMachine::reset_measurement() {
  // Every core resets at the same lockstep boundary; each also resets the
  // shared backend's stats (idempotent repeats).
  for (auto& c : cores_) c->reset_measurement();
}

RunResult CmpMachine::run(u64 commit_target, u64 max_cycles, u64 warmup_insts) {
  if (cores_.size() == 1) {
    // Single core: the core's own run loop IS the machine (byte-identical to
    // the legacy engine when there is no backend); only the shared counter
    // families are appended on top.
    RunResult r = cores_.front()->run(commit_target, max_cycles, warmup_insts);
    append_shared_counters(r);
    return r;
  }

  if (max_cycles == 0) max_cycles = (warmup_insts + commit_target) * 400 + 200000;

  auto fastest_measured = [&] {
    u64 best = 0;
    for (const auto& c : cores_) best = std::max(best, c->fastest_measured());
    return best;
  };

  if (warmup_insts > 0) {
    while (now() < max_cycles && fastest_measured() < warmup_insts) step_all(max_cycles);
    reset_measurement();
  }
  while (now() < max_cycles && fastest_measured() < commit_target) step_all(max_cycles);
  for (auto& c : cores_) c->flush_chrome_trace();
  return snapshot_result();
}

void CmpMachine::append_shared_counters(RunResult& r) const {
  if (shared_ == nullptr) return;
  auto& sm = const_cast<SharedMemory&>(*shared_);
  auto merge = [&r](const std::string& prefix, const StatGroup& g) {
    for (const auto& [name, c] : g.counters_map()) r.counters[prefix + name] = c.value();
  };
  merge("llc.", sm.llc().stats());
  merge("llc.", sm.stats());  // cross-core merges, MSHR stalls, writebacks
  merge("dram.", sm.dram().stats());
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
  append_shared_counters(r);
  return r;
}

}  // namespace tlrob
