// The cycle-level SMT out-of-order core.
//
// Organisation (functional-first, timing-directed, as in M-Sim): each
// ThreadContext architecturally executes the correct path; the core's fetch
// stage consumes that stream (or synthesises wrong-path instructions after a
// detected misprediction), and the back end models Table 1's pipeline:
// rename with shared physical register files, shared issue queue, functional
// units, per-thread LSQs and per-thread ROBs with the optional shared
// second-level partition managed by TwoLevelRobController.
//
// Stage evaluation order within a tick: events (completions / fills / miss
// detections, which include branch resolution and squash) -> commit -> issue
// -> dispatch -> fetch -> ROB-policy tick.
//
// Hot-path design (DESIGN.md §8): completion events live in a calendar wheel
// (EventWheel) instead of a priority queue; every per-cycle scratch
// collection is a reused member buffer; the DynInst windows are fixed ring
// slabs; and the run loop fast-forwards runs of provably idle cycles —
// every stage reports whether it changed state, and when none did, the core
// jumps straight to the next cycle at which anything *can* happen (next scheduled
// event, next frontend-head maturity, next fetch-stall expiry, first
// controller re-check that would act), replaying the per-cycle stall
// counters and the deferring re-checks for the skipped distance. Statistics
// are bit-identical to the cycle-by-cycle execution; tests/golden pins that.
#pragma once

#include <chrono>  // tlrob-lint: allow(D2) host self-profiler time source, never architectural state
#include <memory>
#include <vector>

#include "common/flat_map.hpp"

#include "branch/load_hit_predictor.hpp"
#include "branch/predictor.hpp"
#include "common/ring_deque.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/interval_sampler.hpp"
#include "obs/self_profile.hpp"
#include "memory/memory_system.hpp"
#include "pipeline/dcra.hpp"
#include "pipeline/fetch_policy.hpp"
#include "pipeline/func_units.hpp"
#include "pipeline/issue_queue.hpp"
#include "pipeline/lsq.hpp"
#include "pipeline/rename.hpp"
#include "rob/allocation_policy.hpp"
#include "rob/rob.hpp"
#include "rob/two_level_rob.hpp"
#include "sim/event_wheel.hpp"
#include "sim/metrics.hpp"
#include "sim/presets.hpp"
#include "sim/trace.hpp"
#include "verify/invariant_checker.hpp"
#include "workload/thread_context.hpp"

namespace tlrob {

class SmtCore {
 public:
  /// One Benchmark per hardware thread; `benchmarks.size()` must equal
  /// cfg.num_threads. In CMP machines, `shared` is the machine-wide LLC/DRAM
  /// backend behind this core's L2 and `core_id` attributes its requests;
  /// standalone cores (null backend) keep the private fixed-latency channel.
  SmtCore(const MachineConfig& cfg, const std::vector<Benchmark>& benchmarks,
          SharedMemory* shared = nullptr, u32 core_id = 0);

  /// Runs until any thread has committed `commit_target` instructions or
  /// `max_cycles` elapse (0 = derive a generous bound from the target).
  /// `warmup_insts` commits per fastest thread are executed first and then
  /// excluded from every statistic — the stand-in for the paper's Simpoint
  /// fast-forwarding (cold caches otherwise dominate short runs). Each call
  /// opens a fresh measurement window. This core steps through the one run
  /// loop (run_lockstep, sim/cmp.hpp) as a one-core machine.
  RunResult run(u64 commit_target, u64 max_cycles = 0, u64 warmup_insts = 0);

  /// Zeroes every statistic (counters, histograms, IPC baselines) while
  /// preserving microarchitectural state. Used at the warmup boundary.
  void reset_measurement();

  /// Advances exactly one cycle (exposed for tests; never fast-forwards).
  void tick();

  Cycle now() const { return cycle_; }
  u64 committed(ThreadId t) const { return threads_[t].committed; }

  /// Largest measurement-relative commit count over this core's threads —
  /// the run loop's progress metric (run_lockstep).
  u64 fastest_measured() const {
    u64 best = 0;
    for (const auto& ts : threads_) {
      const u64 m = ts.committed - ts.committed_base;
      if (m > best) best = m;
    }
    return best;
  }
  u32 outstanding_l1(ThreadId t) const { return threads_[t].outstanding_l1; }
  u32 outstanding_l2(ThreadId t) const { return threads_[t].outstanding_l2; }
  const ReorderBuffer& rob(ThreadId t) const { return threads_[t].rob; }
  const IssueQueue& issue_queue() const { return iq_; }
  MemorySystem& memory() { return mem_; }
  TwoLevelRobController& rob_controller() { return *rob_ctrl_; }
  SecondLevelRob& second_level() { return second_; }
  RenameUnit& rename_unit() { return rename_; }
  BranchPredictor& branch_predictor() { return bpred_; }
  StatGroup& stats() { return stats_; }
  PipelineTracer& tracer() { return tracer_; }
  const MachineConfig& config() const { return cfg_; }
  const EventWheel& event_wheel() const { return wheel_; }

  /// Attaches a Chrome trace-event writer (nullptr detaches). Unlike the
  /// text tracer this does not pin the core to cycle-by-cycle execution:
  /// every span edge and instant happens in a state-changing tick, which
  /// the idle-cycle fast-forward never skips (obs/chrome_trace.hpp).
  void attach_chrome_trace(obs::ChromeTraceWriter* writer);

  /// Closes any still-open second-level tenure into the attached Chrome
  /// trace (span end = the current cycle) without disturbing the live
  /// grant; the run loop calls this at exit so traces never end with a
  /// dangling allocation.
  void flush_chrome_trace();

  /// Interval-telemetry series recorded so far (empty unless
  /// cfg.telemetry.sample_interval is nonzero).
  const obs::IntervalSeries& samples() const { return series_; }

  /// Host self-profiler (active when cfg.telemetry.profile).
  const obs::SelfProfiler& profiler() const { return profiler_; }

  /// Ticks actually executed (cycle_ minus fast-forwarded ones) — the
  /// denominator for the profiler's ns/cycle column.
  u64 executed_cycles() const { return cycle_ - fast_forwarded_; }

  /// Cycles the run loop skipped via idle fast-forward (diagnostics; counted
  /// in cycle_ exactly as if they had been ticked).
  u64 fast_forwarded_cycles() const { return fast_forwarded_; }

  /// The pipeline invariant auditor (cfg.audit decides what runs per cycle).
  InvariantChecker& auditor() { return auditor_; }

  /// Runs every registered invariant check against the current state
  /// immediately, regardless of the configured audit level or intervals.
  /// Returns the number of violations found by this sweep.
  u32 audit_now();

  /// Test-only mutable access to structures the audit tests corrupt; the
  /// simulator itself never uses these.
  ReorderBuffer& rob_for_test(ThreadId t) { return threads_[t].rob; }
  LoadStoreQueue& lsq_for_test(ThreadId t) { return threads_[t].lsq; }
  IssueQueue& iq_for_test() { return iq_; }
  EventWheel& wheel_for_test() { return wheel_; }

  /// Builds the RunResult for the current state (run() calls this at exit).
  RunResult snapshot_result() const;

  // -- Lockstep interface (run_lockstep, sim/cmp.cpp) --------------------------
  // The run loop ticks every core with these and fast-forwards only when
  // EVERY core proved its cycle idle. For one core a step is
  // { if (cmp_pinned()) tick; else if (!cmp_tick()) { w =
  // cmp_idle_wake(limit); if (w > now()) cmp_replay_idle_to(w); } }.

  /// The auditor/tracer pin this core to cycle-by-cycle execution.
  bool cmp_pinned() const { return auditor_.enabled() || tracer_.attached(); }
  /// One tick with the fast-forward stall baselines captured; returns true
  /// iff the tick changed machine state (a false return means
  /// cmp_idle_wake/cmp_replay_idle_to may be used for this cycle).
  bool cmp_tick();
  /// After an idle cmp_tick(): the earliest future cycle anything can happen
  /// at on this core, bounded by `limit`. A result <= now() means no skip.
  Cycle cmp_idle_wake(Cycle limit) const;
  /// Jumps the core to `wake`, replaying per-cycle stall counters, sample
  /// points and the ROB controller's deferring re-checks for the skipped
  /// distance (wake must not exceed this core's cmp_idle_wake bound).
  void cmp_replay_idle_to(Cycle wake);

 private:
  struct ThreadState {
    std::unique_ptr<ThreadContext> ctx;
    ReorderBuffer rob;
    LoadStoreQueue lsq;
    /// Fetched, awaiting dispatch (oldest front). Sized for the fetch buffer
    /// plus the whole ROB slab: FLUSH un-dispatch pushes a full window back.
    RingDeque<DynInst> frontend;
    /// Block index by entry PC. Sealed at construction; sorted flat storage
    /// so any future iteration (or emission) of it is deterministic (D1).
    FlatMap<Addr, u32> block_of_pc;

    u64 next_tseq = 1;
    u64 committed = 0;
    u64 committed_base = 0;  // committed count at the last measurement reset

    // Fetch state.
    bool wrong_path = false;  // fetching down a mispredicted path
    bool wp_dead = false;     // wrong-path cursor fell off the CFG
    u32 wp_block = 0;
    u32 wp_index = 0;
    Cycle fetch_stall_until = 0;

    // Outstanding-miss accounting (STALL/FLUSH gating, DCRA classification).
    u32 outstanding_l1 = 0;
    u32 outstanding_l2 = 0;
    u32 unresolved_ctrl = 0;  // dispatched control ops not yet resolved

    ThreadState(u32 rob_cap, u32 rob_max_extra, u32 lsq_cap, u32 frontend_cap)
        : rob(rob_cap, rob_max_extra),
          lsq(lsq_cap),
          frontend(frontend_cap + rob_cap + rob_max_extra) {}
  };

  // -- stages (each returns true iff it changed machine state this cycle) ----
  bool process_events();
  bool do_commit();
  bool do_issue();
  bool do_dispatch();
  bool do_fetch();
  bool do_early_release();

  /// One tick; returns true iff any stage (or the ROB controller) acted.
  /// The template parameter selects host self-profiling: <true> brackets
  /// each stage with steady_clock reads feeding profiler_, <false> compiles
  /// to the bare stage sequence (the two share one body via if constexpr,
  /// so they cannot drift apart).
  template <bool Profiled>
  bool tick_impl();
  /// tick_impl dispatch on the profiler flag (checked once per tick).
  bool tick_dispatch();

  // -- helpers ----------------------------------------------------------------
  void refresh_views();
  DynInst* find_inst(const InstRef& ref);
  void schedule(Cycle when, EvKind kind, const DynInst& di);
  void handle_fu_complete(DynInst& di);
  void handle_load_fill(DynInst& di);
  void handle_l2_miss_detect(DynInst& di);
  void handle_load_replay(DynInst& di);
  void finish_execution(DynInst& di);
  void resolve_control(DynInst& di);
  void squash_after(ThreadId tid, u64 tseq);
  void undispatch_after(ThreadId tid, u64 tseq);
  void drop_outstanding_counts(DynInst& di);
  void refresh_audit_ctx();
  /// Captures one interval sample labelled `label` from the current state
  /// (also called from cmp_replay_idle_to's fast-forward replay, where the
  /// quiescent state is exactly the state every skipped cycle saw).
  void record_sample(Cycle label);
  /// Stall-cycle taxonomy (active iff sampling is on): classifies thread `t`
  /// at cycle `c` from current machine state. Pure; every input except the
  /// cycle-indexed latency-chain segment comparison is invariant across an
  /// idle span, which is what lets the fast-forward attribute skipped spans
  /// piecewise instead of executing them.
  obs::StallClass classify_stall(ThreadId t, Cycle c, bool committed_now) const;
  /// Attributes the cycle being ticked (cycle_) for every thread; called at
  /// the end of tick_impl, before the sampler, so samples see it.
  void attribute_tick();
  /// Attributes the idle cycles [from, to) from the quiescent state,
  /// splitting at the head load's segment edges (at most three breakpoints).
  void attribute_idle_span(Cycle from, Cycle to);
  /// Observes second-level ownership transitions for the Chrome trace's
  /// grant-lifecycle spans and the text tracer's grant notes. Called at the
  /// end of a tick only while an observer is attached; transitions can only
  /// happen in state-changing ticks, which are never fast-forwarded.
  void poll_second_level();
  bool fetch_one(ThreadState& ts, ThreadId tid);
  DynInst make_correct_path_inst(ThreadState& ts, ThreadId tid);
  DynInst make_wrong_path_inst(ThreadState& ts, ThreadId tid);
  void predict_and_steer(ThreadState& ts, DynInst& di);
  bool try_dispatch_one(ThreadState& ts, ThreadId tid);
  bool issue_one(DynInst& di);
  void issue_load(DynInst& di);
  void replay_dependents_of(PhysReg reg);
  Addr icache_addr(const ThreadState& ts, Addr pc) const {
    return ts.ctx->addr_space_base() + pc;
  }

  MachineConfig cfg_;
  std::vector<Benchmark> benchmarks_;
  SharedMemory* shared_ = nullptr;  // not owned; null outside CMP machines
  std::vector<ThreadState> threads_;
  RenameUnit rename_;
  IssueQueue iq_;
  FuncUnitPool fus_;
  MemorySystem mem_;
  BranchPredictor bpred_;
  LoadHitPredictor lhp_;
  DcraController dcra_;
  std::unique_ptr<FetchPolicy> fetch_policy_;
  SecondLevelRob second_;
  std::unique_ptr<TwoLevelRobController> rob_ctrl_;

  EventWheel wheel_;
  Cycle cycle_ = 0;
  Cycle cycle_base_ = 0;  // cycle count at the last measurement reset
  SeqNum next_seq_ = 1;
  u64 commit_rr_ = 0;
  u64 fast_forwarded_ = 0;
  // Stall-counter values captured by cmp_tick() before the tick ran; the
  // deltas are what cmp_replay_idle_to() multiplies across skipped cycles.
  u64 ff_base_[7] = {0, 0, 0, 0, 0, 0, 0};
  Rng wp_rng_;

  // Reused per-cycle scratch (capacity retained; steady state never
  // allocates).
  std::vector<ThreadFetchView> views_;
  std::vector<ThreadId> order_;
  std::vector<DynInst*> ready_scratch_;
  std::vector<PhysReg> replay_regs_;     // worklist for replay_dependents_of
  std::vector<DynInst*> replay_victims_;

  StatGroup stats_;
  PipelineTracer tracer_;
  Histogram dod_true_{31};
  Histogram dod_proxy_{31};

  // Observability (src/obs). All off by default: sample_every_ == 0 makes
  // the per-tick sampler test one short-circuited compare, trace_ == nullptr
  // skips every event hook, and the profiler gates tick_impl selection.
  obs::ChromeTraceWriter* trace_ = nullptr;
  obs::IntervalSeries series_;
  Cycle sample_every_ = 0;
  Cycle next_sample_ = 0;
  // Closed stall-cycle taxonomy, gated with the sampler (sample_every_ != 0):
  // per thread, measurement-relative cycles per obs::StallClass — exactly one
  // class per thread per cycle, so each row sums to cycle_ - cycle_base_.
  // Kept out of stats_ so a sampling run's counter map stays identical to a
  // non-sampling run's (snapshot_result exports it as RunResult::stall_cycles).
  std::vector<std::array<u64, obs::kStallClassCount>> stall_cycles_;
  // Per-thread committed counts at the top of the current tick (kCommit
  // detection scratch; only maintained while the taxonomy is on).
  std::vector<u64> commit_base_scratch_;
  obs::SelfProfiler profiler_;
  // Detail attribution for the cross-cutting kMemory/kPredict phases: when
  // the profiler is on, ProfScope brackets the memory-hierarchy and
  // predictor calls, accumulating their time both into the detail phase and
  // into prof_steal_ns_, which tick_impl's per-stage lap() subtracts from
  // the enclosing stage. Off (the default), ProfScope is one predictable
  // branch.
  bool prof_detail_ = false;
  u64 prof_steal_ns_ = 0;
  struct ProfScope {
    SmtCore* core;
    obs::Phase phase;
    // tlrob-lint: allow(D2) profiler scope reads host time; feeds SelfProfiler only
    std::chrono::steady_clock::time_point t0;
    ProfScope(SmtCore* c, obs::Phase p) : core(c), phase(p) {
      if (core->prof_detail_) t0 = std::chrono::steady_clock::now();  // tlrob-lint: allow(D2) profiler
    }
    ~ProfScope() {
      if (!core->prof_detail_) return;
      // tlrob-lint: allow(D2) profiler scope exit: host-time delta for SelfProfiler
      const u64 dt = static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now() -  // tlrob-lint: allow(D2) profiler
                                          t0)
                                          .count());
      core->profiler_.add(phase, dt);
      core->prof_steal_ns_ += dt;
    }
  };
  // Second-level tenure being observed by poll_second_level().
  ThreadId sl_owner_ = SecondLevelRob::kNoOwner;
  Cycle sl_acquired_ = 0;
  u64 sl_allocs_ = 0;
  u64 sl_trigger_ = 0;

  InvariantChecker auditor_;
  AuditContext audit_ctx_;  // stable pointers into the members above

  // Cached stat handles (StatGroup map nodes are address-stable and reset()
  // zeroes in place, so these stay valid across reset_measurement()). The
  // per-cycle map lookups were ~a quarter of the profile. Declared after
  // stats_ (initialisation order). The stall counters are also what
  // cmp_replay_idle_to() replays across fast-forwarded cycles.
  Counter* cnt_events_dropped_;
  Counter* cnt_exec_completed_;
  Counter* cnt_issue_insts_;
  Counter* cnt_issue_replays_;
  Counter* cnt_commit_insts_;
  Counter* cnt_commit_wp_bug_;
  Counter* cnt_dispatch_insts_;
  Counter* cnt_stall_rob_;
  Counter* cnt_stall_iq_;
  Counter* cnt_stall_lsq_;
  Counter* cnt_stall_regs_;
  Counter* cnt_stall_reg_reserve_;
  Counter* cnt_stall_dcra_;
  Counter* cnt_fetch_insts_;
  Counter* cnt_fetch_wrong_path_;
  Counter* cnt_fetch_icache_stalls_;
  Counter* cnt_fetch_policy_gated_;
  Counter* cnt_squash_insts_;
  Counter* cnt_lsq_forwards_;
  Counter* cnt_loads_l1_miss_;
  Counter* cnt_loads_l1_miss_wp_;
  Counter* cnt_loads_spec_wakeups_;
  Counter* cnt_loads_l2_miss_;
  Counter* cnt_loads_l2_miss_wp_;
  Counter* cnt_loads_l2_miss_fills_;
  Counter* cnt_loads_l2_detect_after_fill_;
  Counter* cnt_loads_l2_miss_detect_;
  Counter* cnt_loads_l2_miss_detect_wp_;
  Counter* cnt_flush_triggered_;
  Counter* cnt_flush_undispatched_;
  Counter* cnt_mispredicts_resolved_;
  Counter* cnt_mispredicts_fetched_;
  Counter* cnt_early_released_;
};

}  // namespace tlrob
