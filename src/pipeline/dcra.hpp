// DCRA-style dynamically controlled resource allocation (Cazorla et al.,
// MICRO 2004) — the paper's baseline resource-distribution mechanism.
//
// Threads are classified each cycle as *slow* (an in-flight L1 data miss;
// likely memory bound) or *fast*. Every shared resource of capacity C is
// partitioned: with F fast and S slow active threads and sharing factor X,
// a fast thread may occupy up to E_F = C / (F + S*X) entries and a slow
// thread up to X * E_F — slow threads receive a larger share so they can
// expose memory-level parallelism, while the cap keeps them from starving
// fast threads. A thread over its cap in any gated resource is barred from
// fetching/dispatching until it drains. The gated resources are the shared
// issue queue and the renameable portions of the two register files, per the
// original proposal.
#pragma once

#include <compare>
#include <vector>

#include "common/types.hpp"
#include "pipeline/fetch_policy.hpp"

namespace tlrob {

struct DcraConfig {
  double sharing = 2.5;  // X: slow-thread multiplier

  auto operator<=>(const DcraConfig&) const = default;
};

class DcraController {
 public:
  DcraController(const DcraConfig& cfg, u32 num_threads);

  /// Refreshes fast/slow classification and per-thread IQ usage snapshots
  /// from this cycle's thread views.
  void classify(const std::vector<ThreadFetchView>& views);

  bool is_slow(ThreadId t) const { return slow_[t]; }

  /// Marks the thread currently holding the second-level ROB partition
  /// (kNoPrivileged when none). Only this thread may borrow other threads'
  /// unused issue-queue share: its low-DoD qualification is precisely the
  /// guarantee that borrowed slots are vacated quickly, whereas letting a
  /// high-DoD (e.g. pointer-chasing) thread borrow pins the slack behind an
  /// outstanding miss — the clog DCRA exists to prevent.
  static constexpr ThreadId kNoPrivileged = 0xffffffffu;
  void set_privileged(ThreadId t) { privileged_ = t; }

  /// Base (guaranteed) share for a resource of total capacity `capacity`.
  u32 base_share(ThreadId t, u32 capacity) const;

  /// Effective cap: the base share, plus — for the privileged thread only —
  /// every other thread's currently unused base share (Cazorla et al.:
  /// resources not required by the other threads are shared out). The
  /// borrower is throttled back as soon as the lenders' own usage rises,
  /// because base shares are guaranteed.
  u32 cap(ThreadId t, u32 capacity) const;

  /// True if the thread's current usage of every gated resource is below its
  /// cap. Capacities are the *shared pools* (IQ entries, renameable int/fp
  /// registers).
  bool within_caps(ThreadId t, u32 iq_use, u32 iq_capacity, u32 int_use, u32 int_capacity,
                   u32 fp_use, u32 fp_capacity) const;

 private:
  DcraConfig cfg_;
  std::vector<bool> slow_;
  std::vector<u32> iq_usage_;
  u32 num_fast_ = 0;
  u32 num_slow_ = 0;
  ThreadId privileged_ = kNoPrivileged;
};

}  // namespace tlrob
