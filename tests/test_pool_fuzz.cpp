// Property/fuzz tests for the DynInst ring-slab pool and the event wheel.
//
// The hot-path rework replaced heap-backed deques with fixed ring slabs and
// the completion priority queue with a calendar wheel. Both trade allocator
// safety nets for speed: a recycled slot or a dropped wakeup would no longer
// crash — it would silently corrupt architectural state. These tests attack
// that surface from two sides:
//
//   * whole-core fuzz — randomized machine geometries (window, LSQ, IQ,
//     frontend sizes, scheme, thresholds, lease policy) run branchy mixes
//     under a deliberately starved branch predictor so squash storms recycle
//     slots constantly, with the full invariant-audit tier armed to abort on
//     the first recycled in-flight entry or wheel miscount;
//   * wheel-vs-reference model — a tiny-horizon wheel is driven with random
//     schedule/drain interleavings (including past-due and beyond-horizon
//     whens) and must hand out exactly the multiset of events a reference
//     stable-sorted queue produces, in the same order.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "sim/cmp.hpp"
#include "sim/event_wheel.hpp"
#include "sim/metrics.hpp"
#include "sim/presets.hpp"
#include "sim/smt_sim.hpp"
#include "workload/spec_profiles.hpp"

namespace tlrob {
namespace {

class PoolFuzz : public ::testing::TestWithParam<u32 /*seed*/> {};

TEST_P(PoolFuzz, RandomizedGeometrySurvivesSquashStormsUnderFullAudit) {
  std::mt19937 rng(GetParam() * 2654435761u + 1);
  auto pick = [&](u32 lo, u32 hi) { return lo + rng() % (hi - lo + 1); };

  static const RobScheme kSchemes[] = {
      RobScheme::kBaseline,  RobScheme::kReactive, RobScheme::kRelaxedReactive,
      RobScheme::kCdr,       RobScheme::kPredictive, RobScheme::kAdaptive,
  };
  MachineConfig cfg = two_level_config(kSchemes[rng() % 6], pick(4, 32));
  cfg.num_threads = pick(1, 4);
  cfg.rob_first_level = pick(8, 48);
  cfg.rob_second_level = pick(32, 256);
  cfg.lsq_entries = pick(8, 48);
  cfg.iq_entries = pick(16, 64);
  cfg.frontend_buffer = pick(8, 24);
  cfg.rob.recheck_interval = pick(1, 20);
  cfg.rob.lease_limit = pick(200, 4000);
  cfg.rob.lease_cooldown = pick(0, 2500);
  // Starve the predictor so mispredicts — and the squash storms that recycle
  // ring slots mid-flight — happen constantly instead of rarely.
  cfg.predictor.gshare_entries = 16;
  cfg.predictor.history_bits = 4;
  cfg.predictor.btb_entries = 16;
  cfg.audit.level = AuditLevel::kFull;
  cfg.audit.cheap_interval = 1;
  cfg.audit.full_interval = pick(1, 8);
  cfg.audit.abort_on_violation = true;
  cfg.seed = GetParam() * 7919 + 13;

  // Branchy integer codes squash hardest; salt in one memory-bound thread so
  // the second-level machinery engages and its slots churn too.
  static const char* kBranchy[] = {"crafty", "gzip", "twolf", "parser",
                                   "vpr",    "gap",  "perlbmk"};
  std::vector<Benchmark> work;
  work.push_back(spec_benchmark("mcf"));
  for (u32 t = 1; t < cfg.num_threads; ++t)
    work.push_back(spec_benchmark(kBranchy[rng() % 7]));

  SmtCore core(cfg, work);
  EXPECT_NO_THROW(core.run(3000)) << core.auditor().report();
  EXPECT_EQ(core.auditor().total_violations(), 0u) << core.auditor().report();
  EXPECT_GT(core.auditor().checks_executed(), 0u);

  // The storm must actually have stormed, and the wheel must still conserve:
  // every scheduled event either processed or still pending, none twice.
  const RunResult r = core.snapshot_result();
  EXPECT_GT(run_counter(r, "core.squash.insts"), 0u);
  const EventWheel& wheel = core.event_wheel();
  EXPECT_TRUE(wheel.audit_consistent());
  EXPECT_EQ(wheel.scheduled_total(), wheel.processed_total() + wheel.pending());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PoolFuzz, ::testing::Range(0u, 8u));

// ---------------------------------------------------------------------------
// Wheel vs reference model: exact drain order, no drop, no duplicate.
// ---------------------------------------------------------------------------

struct RefEvent {
  Cycle when;
  u64 order;
};

class WheelFuzz : public ::testing::TestWithParam<u32 /*seed*/> {};

TEST_P(WheelFuzz, MatchesStableSortedReferenceQueue) {
  std::mt19937 rng(GetParam() ^ 0x9e3779b9u);
  // Tiny horizon (16 cycles) with whens up to now+40: most events take the
  // overflow path and must migrate back in without losing FIFO order.
  EventWheel wheel(/*horizon_log2=*/4);
  std::vector<RefEvent> ref;
  u64 order = 0;
  Cycle drained = 0;  // reference mirror of wheel.drained_until()

  for (int step = 0; step < 500; ++step) {
    const u32 pushes = rng() % 4;
    for (u32 i = 0; i < pushes; ++i) {
      // Includes already-due whens (clamped to the cursor, like the wheel).
      Cycle when = drained + rng() % 41;
      if (rng() % 8 == 0 && drained > 0) when = drained - 1;
      wheel.schedule(when, EvKind::kWake, InstRef{0, order, 0});
      ref.push_back({std::max(when, drained), order});
      ++order;
    }

    const Cycle now = drained + rng() % 6;
    // Reference drain: stable order is ascending when, then schedule order.
    std::vector<RefEvent> expect;
    for (const RefEvent& e : ref)
      if (e.when <= now) expect.push_back(e);
    std::stable_sort(expect.begin(), expect.end(), [](const RefEvent& a, const RefEvent& b) {
      return a.when != b.when ? a.when < b.when : a.order < b.order;
    });
    std::erase_if(ref, [&](const RefEvent& e) { return e.when <= now; });

    // next_event_or must agree with the reference minimum before draining.
    Cycle ref_next = kNeverCycle;
    for (const RefEvent& e : ref) ref_next = std::min(ref_next, e.when);
    for (const RefEvent& e : expect) ref_next = std::min(ref_next, e.when);
    ASSERT_EQ(wheel.next_event_or(kNeverCycle), ref_next);

    std::vector<u64> got;
    wheel.process_due(now, [&](const SimEvent& ev) {
      ASSERT_LE(ev.when, now);
      got.push_back(ev.ref.tseq);  // tseq carries the schedule order
    });
    ASSERT_EQ(got.size(), expect.size());
    for (u32 i = 0; i < got.size(); ++i) ASSERT_EQ(got[i], expect[i].order);

    drained = now + 1;
    ASSERT_EQ(wheel.drained_until(), drained);
    ASSERT_TRUE(wheel.audit_consistent());
    ASSERT_EQ(wheel.pending(), ref.size());
  }
  ASSERT_EQ(wheel.scheduled_total(), wheel.processed_total() + wheel.pending());
}

INSTANTIATE_TEST_SUITE_P(Seeds, WheelFuzz, ::testing::Range(0u, 8u));

// A handler that schedules while its cycle is still draining: a same-cycle
// schedule appends to the very slot vector being iterated, and the growth
// past the vector's capacity reallocates it under the drain loop's feet. The
// wheel must survive the reallocation and still deliver the new events this
// cycle, exactly as the priority queue's while-top-due loop did.
TEST(WheelFuzz, HandlerSchedulingDuringDrainIsSafe) {
  EventWheel wheel(4);
  for (u64 i = 0; i < 12; ++i) wheel.schedule(5, EvKind::kWake, InstRef{0, i, 0});
  u32 fired_now = 0;
  wheel.process_due(5, [&](const SimEvent& ev) {
    ++fired_now;
    if (ev.ref.tid == 0 && ev.ref.tseq < 8) {
      wheel.schedule(5, EvKind::kWake, InstRef{1, ev.ref.tseq, 0});
      wheel.schedule(6, EvKind::kWake, InstRef{2, ev.ref.tseq, 0});
    }
  });
  EXPECT_EQ(fired_now, 20u);  // 12 initial + 8 scheduled mid-drain at cycle 5
  EXPECT_EQ(wheel.pending(), 8u);  // the cycle-6 events
  u32 fired_later = 0;
  wheel.process_due(6, [&](const SimEvent&) { ++fired_later; });
  EXPECT_EQ(fired_later, 8u);
  EXPECT_TRUE(wheel.audit_consistent());
  EXPECT_EQ(wheel.pending(), 0u);
}

// ---------------------------------------------------------------------------
// CMP fuzz: randomized multi-core geometries under the full audit tier.
// ---------------------------------------------------------------------------
//
// The lockstep engine adds two failure surfaces the single-core fuzz cannot
// reach: the machine-wide idle fast-forward (every core must prove the same
// cycle idle, and the replay must keep per-core stall counters exact) and
// the shared LLC/MSHR/DRAM bookkeeping that every core mutates in arrival
// order. Squash storms on several cores at once churn both.

class CmpFuzz : public ::testing::TestWithParam<u32 /*seed*/> {};

TEST_P(CmpFuzz, RandomizedCmpGeometrySurvivesSquashStormsUnderFullAudit) {
  std::mt19937 rng(GetParam() * 0x85EBCA6Bu + 7);
  auto pick = [&](u32 lo, u32 hi) { return lo + rng() % (hi - lo + 1); };

  static const RobScheme kSchemes[] = {RobScheme::kBaseline, RobScheme::kReactive,
                                       RobScheme::kPredictive};
  MachineConfig cfg = cmp_config(pick(2, 4), kSchemes[rng() % 3], pick(4, 24));
  cfg.num_threads = pick(1, 3);
  cfg.rob_first_level = pick(8, 48);
  cfg.lsq_entries = pick(8, 48);
  cfg.iq_entries = pick(16, 64);
  // A small thrash-prone LLC and few MSHRs so cross-core eviction, merge,
  // and pool-full paths all fire at fuzz run lengths.
  cfg.llc.geo = CacheGeometry{u64{1} << pick(13, 15), 1u << pick(1, 3), 128,
                              static_cast<u32>(pick(16, 32))};
  cfg.llc.mshr_entries = pick(2, 8);
  cfg.dram.channels = 1u << pick(0, 2);
  cfg.dram.banks_per_channel = 1u << pick(1, 3);
  cfg.dram.open_page = (rng() & 1) != 0;
  cfg.predictor.gshare_entries = 16;
  cfg.predictor.history_bits = 4;
  cfg.predictor.btb_entries = 16;
  cfg.audit.level = AuditLevel::kFull;
  cfg.audit.cheap_interval = 1;
  cfg.audit.full_interval = pick(1, 8);
  cfg.audit.abort_on_violation = true;
  cfg.seed = GetParam() * 6271 + 29;

  static const char* kBranchy[] = {"crafty", "gzip", "twolf", "parser",
                                   "vpr",    "gap",  "perlbmk"};
  // Core 0 thread 0 is memory-bound (shared-backend churn); every other
  // thread is branchy so squash storms fire even at 1 thread per core.
  std::vector<Benchmark> work;
  for (u32 c = 0; c < cfg.num_cores; ++c)
    for (u32 t = 0; t < cfg.num_threads; ++t)
      work.push_back(c == 0 && t == 0 ? spec_benchmark("mcf")
                                      : spec_benchmark(kBranchy[rng() % 7]));

  CmpMachine machine(cfg, work);
  EXPECT_NO_THROW(machine.run(2000));
  u64 squashes = 0;
  for (u32 c = 0; c < machine.num_cores(); ++c) {
    EXPECT_EQ(machine.core(c).auditor().total_violations(), 0u)
        << "core " << c << ": " << machine.core(c).auditor().report();
    EXPECT_GT(machine.core(c).auditor().checks_executed(), 0u);
  }
  const RunResult r = machine.snapshot_result();
  squashes = run_counter(r, "core.squash.insts");
  EXPECT_GT(squashes, 0u);
  // The shared backend saw traffic and still satisfies its own invariants.
  ASSERT_NE(machine.shared_memory(), nullptr);
  EXPECT_GT(run_counter(r, "llc.accesses"), 0u);
  EXPECT_EQ(machine.shared_memory()->audit_check(), "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, CmpFuzz, ::testing::Range(0u, 6u));

}  // namespace
}  // namespace tlrob
