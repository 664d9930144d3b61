// Second-level ROB allocation controllers (§4, §5.2, §5.3 of the paper):
//
//   kReactive (2-Level R-ROB):  after an L2 miss is detected, allocate the
//     second level iff (1) the missing load is the oldest instruction in its
//     thread's ROB, (2) the first-level ROB is full, and (3) the counted DoD
//     is below the threshold. Conditions are checked when the miss is
//     detected and re-checked every `recheck_interval` (10) cycles.
//   kRelaxedReactive (2-Level Relaxed R-ROB):  as reactive but without the
//     "first-level ROB full" requirement — the count may be taken over a
//     partially full ROB, which under-counts and occasionally over-allocates
//     (the paper's explanation for its slightly lower FT).
//   kCdr (2-Level CDR-ROB):  the dependence-count snapshot is taken a fixed
//     `cdr_delay` (32) cycles after miss detection, with the oldest/full
//     requirements relaxed.
//   kPredictive (2-Level P-ROB):  a PC-indexed last-value DoD predictor
//     decides at miss-detection time; the actual count, taken when the miss
//     service completes, verifies the prediction, updates the predictor, and
//     revokes an allocation that verification disproves.
//
// The DoD count is the paper's low-complexity proxy: the number of
// not-yet-executed instructions in the first-level window younger than the
// missing load (ReorderBuffer::count_unexecuted_younger).
#pragma once

#include <algorithm>
#include <compare>
#include <memory>
#include <vector>

#include "common/stats.hpp"
#include "rob/dod_predictor.hpp"
#include "rob/rob.hpp"
#include "rob/two_level_rob.hpp"

namespace tlrob {

enum class RobScheme : u8 {
  kBaseline,
  kReactive,
  kRelaxedReactive,
  kCdr,
  kPredictive,
  /// The comparison point of Sharkey, Balkan & Ponomarev (PACT 2006, the
  /// paper's ref [23]), simplified: each thread's PRIVATE ROB grows and
  /// shrinks in fixed-size partitions between the first-level size and
  /// `adaptive_max_extra` above it, driven by a periodic commit-bound /
  /// issue-bound phase classification. Unlike the two-level design there is
  /// no shared partition and no DoD test, and growth is bounded by the
  /// thread's own physical ROB — the limitation (no coverage of long memory
  /// latencies) the paper's §1 calls out.
  kAdaptive,
};

const char* rob_scheme_name(RobScheme scheme);

struct RobPolicyConfig {
  RobScheme scheme = RobScheme::kBaseline;
  u32 dod_threshold = 16;        // best R-ROB value per §5.2
  Cycle recheck_interval = 10;   // §5.2: conditions re-checked every 10 cycles
  Cycle cdr_delay = 32;          // §5.2: CDR snapshot delay
  u32 predictor_entries = 4096;
  /// Fairness bound on one thread's tenure of the shared partition: after
  /// this many cycles the lease stops being renewed by fresh misses, the
  /// holder drains back into its first level and the partition frees. The
  /// paper leaves the relinquish policy open ("unless this storage is
  /// relinquished..."); an unbounded lease lets one continuously-missing
  /// thread monopolise the partition, which defeats the mechanism on mixes
  /// with several memory-bound threads. Covers ~4 back-to-back miss
  /// services by default.
  Cycle lease_limit = 4000;
  /// After a thread's lease ends it may not re-acquire the partition for
  /// this many cycles, so continuously-missing threads take turns instead
  /// of re-grabbing it the moment they release.
  Cycle lease_cooldown = 2500;

  // kAdaptive only (ref [23] reconstruction):
  Cycle adaptive_interval = 128;  // phase-classification period
  u32 adaptive_step = 16;         // partition granularity
  u32 adaptive_max_extra = 96;    // 32 + 96 = 128-entry physical ROB
  /// Issue-bound when more unexecuted instructions than this sit in the
  /// window (they would clog the shared issue logic if the window grew).
  u32 adaptive_issue_bound_threshold = 16;

  auto operator<=>(const RobPolicyConfig&) const = default;
};

class TwoLevelRobController {
 public:
  /// `robs[t]` must outlive the controller.
  TwoLevelRobController(const RobPolicyConfig& cfg, std::vector<ReorderBuffer*> robs,
                        SecondLevelRob& second);

  /// Notification: the load's L2 miss became architecturally visible.
  void on_l2_miss_detected(DynInst& load, Cycle now);

  /// Notification: the load's line arrived. Called *before* the load is
  /// marked executed, so the DoD count still sees the pre-fill window.
  void on_load_fill(DynInst& load, Cycle now);

  /// Per-cycle policy evaluation (reactive re-checks, CDR snapshots, lease
  /// release when the holder has drained). Returns true iff the call changed
  /// controller-visible state (candidate retired, partition acquired /
  /// revoked / released, adaptive partition resized) — the core's idle-cycle
  /// fast-forward treats a false return as "this tick was a no-op".
  bool tick(Cycle now);

  /// Earliest future cycle at which tick() could act without any new
  /// notification arriving first, assuming the core stays quiescent until
  /// then: the first re-check grid point at which some reactive candidate
  /// would be retired or acquire the partition, the next phase-classification
  /// boundary (kAdaptive), or kNeverCycle (baseline / predictive, which act
  /// only on notifications). While the core is quiescent every input of a
  /// re-check is frozen except the cooldown and lease-limit time gates, so
  /// the deferrals in between are foreseeable and replay_idle() applies
  /// them. State-driven work (lease release on drain) is triggered by
  /// commits/fills, which are activity in their own right.
  Cycle next_wake(Cycle now) const;

  /// Applies the re-checks the quiescent cycles before `to` would have made
  /// (`to` must not pass next_wake()): each candidate's deferrals are counted
  /// one constant-outcome piece at a time and its next_check moves to the
  /// first grid point at or after `to`.
  void replay_idle(Cycle to);

  /// Squash hook: drops candidates of `tid` younger than `tseq`.
  void on_squash(ThreadId tid, u64 tseq);

  const RobPolicyConfig& config() const { return cfg_; }
  SecondLevelRob& second_level() { return second_; }
  DodPredictor* predictor() { return predictor_.get(); }
  StatGroup& stats() { return stats_; }

  /// Invariant-audit introspection: whether `tid`'s current grant is backed
  /// by a registered justifying miss, and which load it is. The audit's
  /// second-level check re-derives the paper's allocation contract from
  /// these plus the live ROB/partition state.
  bool audit_has_trigger(ThreadId tid) const { return threads_[tid].has_trigger; }
  u64 audit_trigger_tseq(ThreadId tid) const { return threads_[tid].trigger_tseq; }

  /// Stall-taxonomy introspection: whether `tid` has a registered allocation
  /// candidate (a long-latency load waiting on — or holding out for — the
  /// second-level window). Candidates mutate only in notification calls and
  /// active ticks, so this is constant across an idle fast-forwarded span.
  bool has_pending_candidate(ThreadId tid) const { return !threads_[tid].cands.empty(); }

 private:
  struct Candidate {
    u64 tseq = 0;
    Cycle detect = 0;
    Cycle next_check = 0;
    bool filled = false;
  };
  struct ThreadState {
    std::vector<Candidate> cands;
    u64 trigger_tseq = 0;     // load justifying current ownership
    bool has_trigger = false;
    Cycle cooldown_until = 0;  // earliest re-acquisition after a lease
    u32 adaptive_extra = 0;    // kAdaptive: current growth above level 1
  };

  /// What evaluate() does with a candidate at one re-check.
  enum class Verdict : u8 {
    kRetire,   // load gone or filled: candidate dropped
    kAcquire,  // conditions hold and the DoD is low: partition granted
    kReject,   // conditions hold but the DoD is high: counted deferral
    kDefer,    // a time gate or a positional condition fails: silent deferral
  };
  struct Decision {
    Verdict verdict;
    u32 dod;             // kAcquire / kReject: the counted DoD
    Cycle stable_until;  // next time gate at which the verdict may change
  };

  /// The pure re-check decision for `c` at cycle `now`. Only the cooldown and
  /// lease-limit gates depend on `now`; `stable_until` names the next one.
  Decision decide(ThreadId tid, const Candidate& c, Cycle now) const;
  /// Walks `c`'s re-check grid from c.next_check up to `to` assuming the
  /// core stays quiescent, calling on_deferrals(decision, k) once per piece
  /// of k equal deferrals. Returns the first grid point at which evaluate()
  /// would act, or else the first grid point at or after `to` (kNeverCycle
  /// when `to` is kNeverCycle and the candidate is deferred forever).
  template <class OnDeferrals>
  Cycle foresee(ThreadId tid, const Candidate& c, Cycle to, OnDeferrals&& on_deferrals) const;
  /// Re-check spacing; an interval of 0 re-checks every cycle.
  Cycle recheck_step() const { return std::max<Cycle>(cfg_.recheck_interval, 1); }

  /// Evaluates one candidate; returns true if it should be dropped (a drop
  /// — retirement or acquisition — always counts as tick() activity; a
  /// deferral only moves next_check, which next_wake() foresees).
  bool evaluate(ThreadId tid, Candidate& c, Cycle now);
  /// kAdaptive: periodic per-thread grow/shrink decision (ref [23]).
  /// Returns true iff any partition actually grew or shrank.
  bool adaptive_tick(Cycle now);
  void acquire(ThreadId tid, u64 tseq, Cycle now);
  /// Returns true iff state changed (trigger cleared, extra revoked, or the
  /// partition released).
  bool maybe_release(ThreadId tid, Cycle now);
  /// True when `tid` holds the partition past the fairness bound, so its
  /// lease must not be renewed by further misses.
  bool lease_expired(ThreadId tid, Cycle now) const;
  u32 dod_count(ThreadId tid, u64 tseq) const;

  RobPolicyConfig cfg_;
  std::vector<ReorderBuffer*> robs_;
  SecondLevelRob& second_;
  std::unique_ptr<DodPredictor> predictor_;
  std::vector<ThreadState> threads_;
  /// Lower bound on every live candidate's next_check; lets tick() skip the
  /// per-thread candidate loops on cycles where nothing can be due.
  Cycle next_check_floor_ = kNeverCycle;
  StatGroup stats_;

  // Cached stat handles: StatGroup::counter() is a map lookup and showed up
  // hot in the per-cycle profile; map nodes are address-stable and reset()
  // zeroes values in place, so these stay valid for the controller's life.
  // Declared after stats_ (initialisation order).
  Counter* cnt_allocations_;
  Counter* cnt_lease_grants_;
  Counter* cnt_releases_;
  Counter* cnt_l2_miss_candidates_;
  Counter* cnt_rejected_high_dod_;
  Counter* cnt_predictions_;
  Counter* cnt_prediction_cold_misses_;
  Counter* cnt_predictive_allocations_;
  Counter* cnt_verification_failures_;
  Counter* cnt_adaptive_grows_;
  Counter* cnt_adaptive_shrinks_;
  Average* avg_dod_at_decision_;
  std::vector<Counter*> cnt_allocations_tid_;  // "allocations.tN"
  std::vector<Counter*> cnt_busy_tid_;         // "busy.tN"
};

}  // namespace tlrob
