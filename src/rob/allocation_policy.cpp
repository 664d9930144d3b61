#include "rob/allocation_policy.hpp"

#include <algorithm>
#include <cassert>

namespace tlrob {

const char* rob_scheme_name(RobScheme scheme) {
  switch (scheme) {
    case RobScheme::kBaseline: return "baseline";
    case RobScheme::kReactive: return "r-rob";
    case RobScheme::kRelaxedReactive: return "relaxed-r-rob";
    case RobScheme::kCdr: return "cdr-rob";
    case RobScheme::kPredictive: return "p-rob";
    case RobScheme::kAdaptive: return "adaptive-rob";
  }
  return "unknown";
}

TwoLevelRobController::TwoLevelRobController(const RobPolicyConfig& cfg,
                                             std::vector<ReorderBuffer*> robs,
                                             SecondLevelRob& second)
    : cfg_(cfg), robs_(std::move(robs)), second_(second), threads_(robs_.size()) {
  if (cfg.scheme == RobScheme::kPredictive)
    predictor_ = std::make_unique<DodPredictor>(cfg.predictor_entries);
  cnt_allocations_ = &stats_.counter("allocations");
  cnt_lease_grants_ = &stats_.counter("lease_grants_or_renewals");
  cnt_releases_ = &stats_.counter("releases");
  cnt_l2_miss_candidates_ = &stats_.counter("l2_miss_candidates");
  cnt_rejected_high_dod_ = &stats_.counter("rejected_high_dod");
  cnt_predictions_ = &stats_.counter("predictions");
  cnt_prediction_cold_misses_ = &stats_.counter("prediction_cold_misses");
  cnt_predictive_allocations_ = &stats_.counter("predictive_allocations");
  cnt_verification_failures_ = &stats_.counter("verification_failures");
  cnt_adaptive_grows_ = &stats_.counter("adaptive.grows");
  cnt_adaptive_shrinks_ = &stats_.counter("adaptive.shrinks");
  avg_dod_at_decision_ = &stats_.average("dod_at_decision");
  for (u32 t = 0; t < threads_.size(); ++t) {
    cnt_allocations_tid_.push_back(&stats_.counter("allocations.t" + std::to_string(t)));
    cnt_busy_tid_.push_back(&stats_.counter("busy.t" + std::to_string(t)));
  }
}

u32 TwoLevelRobController::dod_count(ThreadId tid, u64 tseq) const {
  // The hardware scans the first-level window following the load.
  return robs_[tid]->count_unexecuted_younger(tseq, robs_[tid]->base_capacity());
}

void TwoLevelRobController::acquire(ThreadId tid, u64 tseq, Cycle now) {
  if (second_.available()) {
    second_.allocate(tid, now);
    robs_[tid]->grant_extra(second_.entries());
    cnt_allocations_->inc();
    cnt_allocations_tid_[tid]->inc();
  } else if (second_.owned_by(tid)) {
    // Renewal: a drain (revoked extra, waiting for release) can be re-armed
    // by a fresh qualifying miss while the lease lasts.
    robs_[tid]->grant_extra(second_.entries());
  }
  threads_[tid].trigger_tseq = tseq;
  threads_[tid].has_trigger = true;
  cnt_lease_grants_->inc();
}

bool TwoLevelRobController::maybe_release(ThreadId tid, Cycle now) {
  if (!second_.owned_by(tid)) return false;
  ThreadState& ts = threads_[tid];
  ReorderBuffer& rob = *robs_[tid];

  bool trigger_live = false;
  if (ts.has_trigger) {
    if (DynInst* t = rob.find(ts.trigger_tseq))
      trigger_live = !t->executed;  // still waiting on the miss
  }
  if (trigger_live) return false;

  // No justifying miss: stop dispatching into the second level and drain.
  bool changed = rob.extra() != 0 || ts.has_trigger;
  rob.revoke_extra();
  ts.has_trigger = false;
  if (rob.size() > rob.base_capacity()) return changed;  // drain into level 1 first

  cnt_busy_tid_[tid]->inc(now - second_.acquired_at());
  // The cooldown exists to rotate the partition among contenders; with no
  // other thread waiting for it, re-acquisition is free.
  bool contended = false;
  for (u32 o = 0; o < threads_.size(); ++o)
    if (o != tid && !threads_[o].cands.empty()) contended = true;
  ts.cooldown_until = contended ? now + cfg_.lease_cooldown : now;
  second_.release(now);
  cnt_releases_->inc();
  return true;
}

bool TwoLevelRobController::lease_expired(ThreadId tid, Cycle now) const {
  return second_.owned_by(tid) && now >= second_.acquired_at() + cfg_.lease_limit;
}

void TwoLevelRobController::on_l2_miss_detected(DynInst& load, Cycle now) {
  if (cfg_.scheme == RobScheme::kBaseline || cfg_.scheme == RobScheme::kAdaptive) return;
  if (load.wrong_path) return;
  const ThreadId tid = load.tid;
  ThreadState& ts = threads_[tid];
  cnt_l2_miss_candidates_->inc();

  if (cfg_.scheme == RobScheme::kPredictive) {
    const auto pred = predictor_->predict(tid, load.pc);
    if (pred.has_value()) {
      cnt_predictions_->inc();
      const bool can_acquire_fresh = second_.available() && now >= ts.cooldown_until;
      const bool can_renew = second_.owned_by(tid) && !lease_expired(tid, now);
      if (*pred < cfg_.dod_threshold && (can_acquire_fresh || can_renew)) {
        acquire(tid, load.tseq, now);
        cnt_predictive_allocations_->inc();
      }
    } else {
      cnt_prediction_cold_misses_->inc();
    }
    // Track for verification at fill regardless of the decision.
    ts.cands.push_back({load.tseq, now, kNeverCycle, false});
    return;
  }

  const Cycle first_check =
      cfg_.scheme == RobScheme::kCdr ? now + cfg_.cdr_delay : now;
  next_check_floor_ = std::min(next_check_floor_, first_check);
  ts.cands.push_back({load.tseq, now, first_check, false});
}

void TwoLevelRobController::on_load_fill(DynInst& load, Cycle now) {
  if (cfg_.scheme == RobScheme::kBaseline || cfg_.scheme == RobScheme::kAdaptive) return;
  if (load.wrong_path) return;
  const ThreadId tid = load.tid;
  ThreadState& ts = threads_[tid];

  if (cfg_.scheme == RobScheme::kPredictive) {
    // §4.2: the actual count is taken shortly before the miss service
    // completes, verifies the prediction and trains the predictor.
    const u32 actual = dod_count(tid, load.tseq);
    predictor_->update(tid, load.pc, actual);
    if (second_.owned_by(tid) && ts.has_trigger && ts.trigger_tseq == load.tseq &&
        actual >= cfg_.dod_threshold) {
      cnt_verification_failures_->inc();
      ts.has_trigger = false;  // lease no longer justified; release on drain
    }
  }

  ts.cands.erase(std::remove_if(ts.cands.begin(), ts.cands.end(),
                                [&](const Candidate& c) { return c.tseq == load.tseq; }),
                 ts.cands.end());
  maybe_release(tid, now);
}

TwoLevelRobController::Decision TwoLevelRobController::decide(ThreadId tid,
                                                              const Candidate& c,
                                                              Cycle now) const {
  const ReorderBuffer& rob = *robs_[tid];
  const DynInst* load = rob.find(c.tseq);
  // Gone (committed or squashed) or filled: nothing left to decide.
  if (load == nullptr || load->executed) return {Verdict::kRetire, 0, kNeverCycle};

  // Time gates: a free partition opens once the cooldown has passed; the
  // holder's own partition stays renewable until the lease limit. A partition
  // held by another thread stays closed until a release, which is activity.
  bool gate_open = false;
  Cycle stable_until = kNeverCycle;
  if (second_.available()) {
    const Cycle cooldown_until = threads_[tid].cooldown_until;
    gate_open = now >= cooldown_until;
    if (!gate_open) stable_until = cooldown_until;
  } else if (second_.owned_by(tid)) {
    const Cycle lease_end = second_.acquired_at() + cfg_.lease_limit;
    gate_open = now < lease_end;
    if (gate_open) stable_until = lease_end;
  }
  if (!gate_open) return {Verdict::kDefer, 0, stable_until};

  bool conditions = true;
  if (cfg_.scheme == RobScheme::kReactive) {
    conditions = rob.head() == load && rob.first_level_full();
  } else if (cfg_.scheme == RobScheme::kRelaxedReactive) {
    conditions = rob.head() == load;  // "full" requirement dropped
  }
  // kCdr: no positional requirements; the snapshot delay gated first_check.
  if (!conditions) return {Verdict::kDefer, 0, stable_until};

  // A high count can shrink as independent work executes; the caller keeps
  // re-checking while the miss is outstanding.
  const u32 dod = dod_count(tid, c.tseq);
  return {dod < cfg_.dod_threshold ? Verdict::kAcquire : Verdict::kReject, dod, stable_until};
}

template <class OnDeferrals>
Cycle TwoLevelRobController::foresee(ThreadId tid, const Candidate& c, Cycle to,
                                     OnDeferrals&& on_deferrals) const {
  // Each piece costs one decide(): at most one piece has its gate open (the
  // cooldown only opens, the lease only closes), so at most one DoD scan.
  const Cycle step = recheck_step();
  Cycle t = c.next_check;
  while (t < to) {
    const Decision d = decide(tid, c, t);
    if (d.verdict == Verdict::kRetire || d.verdict == Verdict::kAcquire) return t;
    const Cycle end = std::min(to, d.stable_until);
    if (end == kNeverCycle) return kNeverCycle;  // deferred until something happens
    const Cycle span = end - t;
    const u64 k = span / step + (span % step != 0);  // grid points in [t, end)
    if (k > (kNeverCycle - t) / step) return kNeverCycle;  // past the clock's range
    on_deferrals(d, k);
    t += k * step;
  }
  return t;
}

bool TwoLevelRobController::evaluate(ThreadId tid, Candidate& c, Cycle now) {
  const Decision d = decide(tid, c, now);
  switch (d.verdict) {
    case Verdict::kRetire:
      return true;
    case Verdict::kAcquire:
      avg_dod_at_decision_->sample(static_cast<double>(d.dod));
      acquire(tid, c.tseq, now);
      return true;  // decision made; candidate retired
    case Verdict::kReject:
      avg_dod_at_decision_->sample(static_cast<double>(d.dod));
      cnt_rejected_high_dod_->inc();
      break;
    case Verdict::kDefer:
      break;
  }
  c.next_check = now + recheck_step();
  return false;
}

bool TwoLevelRobController::adaptive_tick(Cycle now) {
  if (now % cfg_.adaptive_interval != 0) return false;
  bool resized = false;
  for (u32 tid = 0; tid < threads_.size(); ++tid) {
    ThreadState& ts = threads_[tid];
    ReorderBuffer& rob = *robs_[tid];
    if (rob.empty()) continue;
    const u32 unexecuted =
        rob.count_unexecuted_younger(rob.head()->tseq - 1, rob.base_capacity() + ts.adaptive_extra);
    const bool window_saturated = rob.size() + cfg_.adaptive_step / 2 >= rob.capacity();
    const bool head_blocked = !rob.head()->executed;

    if (unexecuted > cfg_.adaptive_issue_bound_threshold) {
      // Issue-bound phase: a larger window would only push more waiting
      // instructions at the shared issue logic — shrink one partition.
      if (ts.adaptive_extra >= cfg_.adaptive_step) {
        ts.adaptive_extra -= cfg_.adaptive_step;
        cnt_adaptive_shrinks_->inc();
        resized = true;
      }
    } else if (window_saturated && head_blocked) {
      // Commit-bound phase: the window is full behind a long-latency op and
      // the work in it drains quickly — grow one partition.
      if (ts.adaptive_extra + cfg_.adaptive_step <= cfg_.adaptive_max_extra) {
        ts.adaptive_extra += cfg_.adaptive_step;
        cnt_adaptive_grows_->inc();
        resized = true;
      }
    }
    rob.grant_extra(ts.adaptive_extra);
  }
  return resized;
}

bool TwoLevelRobController::tick(Cycle now) {
  if (cfg_.scheme == RobScheme::kBaseline) return false;
  if (cfg_.scheme == RobScheme::kAdaptive) return adaptive_tick(now);
  bool activity = false;
  // next_check_floor_ is a lower bound on every candidate's next_check: when
  // now hasn't reached it, the candidate loops below would evaluate nothing,
  // so only the per-thread release polls run. The bound is recomputed on
  // each full pass and lowered whenever a candidate is pushed or deferred;
  // erases can only raise the true minimum, which merely costs one extra
  // full pass.
  const bool cands_due = cfg_.scheme != RobScheme::kPredictive && now >= next_check_floor_;
  if (cands_due) next_check_floor_ = kNeverCycle;
  // Rotate the evaluation order so that when several threads have qualifying
  // candidates pending, the partition does not always go to the lowest id.
  const u32 n = static_cast<u32>(threads_.size());
  for (u32 i = 0; i < n; ++i) {
    const ThreadId tid = static_cast<ThreadId>((now + i) % n);
    ThreadState& ts = threads_[tid];
    if (cands_due) {
      for (auto it = ts.cands.begin(); it != ts.cands.end();) {
        if (it->next_check <= now && evaluate(tid, *it, now)) {
          it = ts.cands.erase(it);
          activity = true;  // retirement or acquisition; deferrals stay put
        } else {
          next_check_floor_ = std::min(next_check_floor_, it->next_check);
          ++it;
        }
      }
    }
    if (maybe_release(tid, now)) activity = true;
  }
  return activity;
}

Cycle TwoLevelRobController::next_wake(Cycle now) const {
  switch (cfg_.scheme) {
    case RobScheme::kBaseline:
    case RobScheme::kPredictive:
      // Notification-driven only (predictive candidates carry
      // next_check = kNeverCycle and are resolved at fill time).
      return kNeverCycle;
    case RobScheme::kAdaptive:
      return (now / cfg_.adaptive_interval + 1) * cfg_.adaptive_interval;
    default:
      break;
  }
  Cycle best = kNeverCycle;
  for (u32 tid = 0; tid < threads_.size(); ++tid)
    for (const Candidate& c : threads_[tid].cands)
      best = std::min(best, foresee(static_cast<ThreadId>(tid), c, best,
                                    [](const Decision&, u64) {}));
  return best;
}

void TwoLevelRobController::replay_idle(Cycle to) {
  // Only reactive candidates are on a re-check grid (predictive ones carry
  // next_check = kNeverCycle; the other schemes register none). Deferrals
  // touch no state but next_check and the two statistics, so applying them
  // per piece (k at once) is exact: the DoD is an integer, so the average's
  // sum stays bit-identical to k separate samples.
  next_check_floor_ = kNeverCycle;
  for (u32 tid = 0; tid < threads_.size(); ++tid) {
    for (Candidate& c : threads_[tid].cands) {
      c.next_check = foresee(static_cast<ThreadId>(tid), c, to, [&](const Decision& d, u64 k) {
        if (d.verdict != Verdict::kReject) return;
        cnt_rejected_high_dod_->inc(k);
        avg_dod_at_decision_->sample(static_cast<double>(d.dod), k);
      });
      assert(c.next_check >= to && "replay_idle skipped past a re-check that acts");
      next_check_floor_ = std::min(next_check_floor_, c.next_check);
    }
  }
}

void TwoLevelRobController::on_squash(ThreadId tid, u64 tseq) {
  if (cfg_.scheme == RobScheme::kBaseline || cfg_.scheme == RobScheme::kAdaptive) return;
  ThreadState& ts = threads_[tid];
  ts.cands.erase(std::remove_if(ts.cands.begin(), ts.cands.end(),
                                [&](const Candidate& c) { return c.tseq > tseq; }),
                 ts.cands.end());
  if (ts.has_trigger && ts.trigger_tseq > tseq) ts.has_trigger = false;
}

}  // namespace tlrob
