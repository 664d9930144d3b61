// Unit tests for the paper's core contribution: the reorder buffer, the
// shared second-level partition, the DoD counting mechanism, the DoD
// predictor and the allocation controllers.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "rob/allocation_policy.hpp"
#include "rob/dod_predictor.hpp"
#include "rob/rob.hpp"
#include "rob/two_level_rob.hpp"

namespace tlrob {
namespace {

StaticInst static_load(Addr pc = 0x400000) {
  static std::vector<std::unique_ptr<StaticInst>> pool;
  pool.push_back(std::make_unique<StaticInst>());
  pool.back()->op = OpClass::kLoad;
  pool.back()->dest = ireg(1);
  pool.back()->agen_id = 0;
  pool.back()->pc = pc;
  return *pool.back();
}

DynInst make_inst(u64 tseq, bool executed = false, OpClass op = OpClass::kIntAlu) {
  DynInst di;
  di.tseq = tseq;
  di.seq = tseq;
  di.op = op;
  di.executed = executed;
  return di;
}

TEST(Rob, PushFindPop) {
  ReorderBuffer rob(4);
  rob.push(make_inst(1));
  rob.push(make_inst(2));
  rob.push(make_inst(5));  // gaps are fine (squashed tseqs are never reused)
  EXPECT_EQ(rob.size(), 3u);
  ASSERT_NE(rob.find(5), nullptr);
  EXPECT_EQ(rob.find(5)->tseq, 5u);
  EXPECT_EQ(rob.find(3), nullptr);
  EXPECT_EQ(rob.find(99), nullptr);
  rob.pop_head();
  EXPECT_EQ(rob.find(1), nullptr);
  EXPECT_EQ(rob.head()->tseq, 2u);
}

TEST(Rob, RejectsOverflowAndDisorder) {
  ReorderBuffer rob(2);
  rob.push(make_inst(1));
  rob.push(make_inst(2));
  EXPECT_TRUE(rob.full());
  EXPECT_THROW(rob.push(make_inst(3)), std::logic_error);
  ReorderBuffer rob2(4);
  rob2.push(make_inst(5));
  EXPECT_THROW(rob2.push(make_inst(5)), std::logic_error);
  EXPECT_THROW(rob2.push(make_inst(3)), std::logic_error);
}

TEST(Rob, CapacityGrowsAndShrinksWithGrant) {
  ReorderBuffer rob(32);
  EXPECT_EQ(rob.capacity(), 32u);
  rob.grant_extra(384);
  EXPECT_EQ(rob.capacity(), 416u);
  EXPECT_FALSE(rob.full());
  rob.revoke_extra();
  EXPECT_EQ(rob.capacity(), 32u);
}

TEST(Rob, FirstLevelFullIndependentOfGrant) {
  ReorderBuffer rob(2);
  rob.grant_extra(8);
  rob.push(make_inst(1));
  EXPECT_FALSE(rob.first_level_full());
  rob.push(make_inst(2));
  EXPECT_TRUE(rob.first_level_full());
  EXPECT_FALSE(rob.full());
}

TEST(Rob, SquashAfterRemovesSuffixYoungestFirst) {
  ReorderBuffer rob(8);
  for (u64 i = 1; i <= 5; ++i) rob.push(make_inst(i));
  std::vector<u64> removed;
  rob.squash_after(2, [&](DynInst& d) { removed.push_back(d.tseq); });
  EXPECT_EQ(removed, (std::vector<u64>{5, 4, 3}));
  EXPECT_EQ(rob.size(), 2u);
}

TEST(Rob, DodProxyCountsUnexecutedYoungerWithinWindow) {
  ReorderBuffer rob(8);
  rob.push(make_inst(1, /*executed=*/false, OpClass::kLoad));  // the missing load
  rob.push(make_inst(2, true));
  rob.push(make_inst(3, false));
  rob.push(make_inst(4, false));
  rob.push(make_inst(5, true));
  rob.push(make_inst(6, false));
  EXPECT_EQ(rob.count_unexecuted_younger(1, 32), 3u);
  EXPECT_EQ(rob.count_unexecuted_younger(1, 2), 1u);  // window clips the scan
  EXPECT_EQ(rob.count_unexecuted_younger(6, 32), 0u);
}

TEST(Rob, TrueDependentsFollowsTransitiveDataflow) {
  ReorderBuffer rob(8);
  DynInst load = make_inst(1, false, OpClass::kLoad);
  load.dest_phys = 100;
  DynInst direct = make_inst(2);
  direct.src_phys[0] = 100;
  direct.dest_phys = 101;
  DynInst indirect = make_inst(3);
  indirect.src_phys[1] = 101;
  indirect.dest_phys = 102;
  DynInst unrelated = make_inst(4);
  unrelated.src_phys[0] = 55;
  unrelated.dest_phys = 103;
  const DynInst& l = rob.push(std::move(load));
  rob.push(std::move(direct));
  rob.push(std::move(indirect));
  rob.push(std::move(unrelated));
  EXPECT_EQ(rob.count_true_dependents(l), 2u);
}

TEST(SecondLevel, SingleOwnerSemantics) {
  SecondLevelRob s(384);
  EXPECT_TRUE(s.available());
  s.allocate(2, 100);
  EXPECT_FALSE(s.available());
  EXPECT_TRUE(s.owned_by(2));
  EXPECT_THROW(s.allocate(1, 110), std::logic_error);
  s.release(250);
  EXPECT_TRUE(s.available());
  EXPECT_EQ(s.busy_cycles(300), 150u);
  EXPECT_EQ(s.total_allocations(), 1u);
  EXPECT_THROW(s.release(300), std::logic_error);
}

TEST(SecondLevel, ZeroEntriesNeverAvailable) {
  SecondLevelRob s(0);
  EXPECT_FALSE(s.available());
}

TEST(DodPredictor, LastValueSemantics) {
  DodPredictor p(256);
  EXPECT_FALSE(p.predict(0, 0x400).has_value());
  p.update(0, 0x400, 7);
  EXPECT_EQ(p.predict(0, 0x400).value(), 7u);
  p.update(0, 0x400, 3);
  EXPECT_EQ(p.predict(0, 0x400).value(), 3u);
  EXPECT_EQ(p.stats().counter_value("cold_installs"), 1u);
  EXPECT_EQ(p.stats().counter_value("value_changes"), 1u);
}

TEST(DodPredictor, ThreadsAndPcsAreDistinguished) {
  DodPredictor p(4096);
  p.update(0, 0x400, 5);
  p.update(1, 0x400, 9);
  EXPECT_EQ(p.predict(0, 0x400).value(), 5u);
  EXPECT_EQ(p.predict(1, 0x400).value(), 9u);
  EXPECT_FALSE(p.predict(0, 0x404).has_value());
}

TEST(DodPredictor, RejectsNonPowerOfTwo) {
  EXPECT_THROW(DodPredictor(100), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Controller tests drive the policy against hand-built ROB contents.
// ---------------------------------------------------------------------------

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest() : rob0_(32), rob1_(32), second_(384) {}

  TwoLevelRobController make(RobScheme scheme, u32 threshold) {
    RobPolicyConfig cfg;
    cfg.scheme = scheme;
    cfg.dod_threshold = threshold;
    cfg.lease_limit = 1000;
    cfg.lease_cooldown = 500;
    return TwoLevelRobController(cfg, {&rob0_, &rob1_}, second_);
  }

  /// Fills rob0 with a missing load at the head plus `unexec` unexecuted and
  /// the rest executed instructions (full 32-entry first level).
  DynInst& fill_rob0_with_miss(u32 unexec) {
    DynInst load = make_inst(next_tseq_++, false, OpClass::kLoad);
    load.si = &load_si_;
    load.pc = load_si_.pc;
    load.is_l2_miss = true;
    DynInst& ref = rob0_.push(std::move(load));
    for (u32 i = 1; i < 32; ++i)
      rob0_.push(make_inst(next_tseq_++, /*executed=*/i > unexec));
    return ref;
  }

  StaticInst load_si_ = static_load();
  ReorderBuffer rob0_;
  ReorderBuffer rob1_;
  SecondLevelRob second_;
  u64 next_tseq_ = 1;
};

TEST_F(ControllerTest, ReactiveAllocatesWhenAllConditionsHold) {
  auto ctrl = make(RobScheme::kReactive, 16);
  DynInst& load = fill_rob0_with_miss(/*unexec=*/5);
  ctrl.on_l2_miss_detected(load, 100);
  ctrl.tick(100);
  EXPECT_TRUE(second_.owned_by(0));
  EXPECT_EQ(rob0_.capacity(), 32u + 384u);
}

TEST_F(ControllerTest, ReactiveRejectsHighDod) {
  auto ctrl = make(RobScheme::kReactive, 16);
  DynInst& load = fill_rob0_with_miss(/*unexec=*/20);
  ctrl.on_l2_miss_detected(load, 100);
  ctrl.tick(100);
  EXPECT_TRUE(second_.available());
  EXPECT_GE(ctrl.stats().counter_value("rejected_high_dod"), 1u);
}

TEST_F(ControllerTest, ReactiveRequiresLoadAtHead) {
  auto ctrl = make(RobScheme::kReactive, 16);
  rob0_.push(make_inst(next_tseq_++, false));  // older non-load blocks
  DynInst load = make_inst(next_tseq_++, false, OpClass::kLoad);
  load.si = &load_si_;
  load.is_l2_miss = true;
  DynInst& ref = rob0_.push(std::move(load));
  for (u32 i = 2; i < 32; ++i) rob0_.push(make_inst(next_tseq_++, true));
  ctrl.on_l2_miss_detected(ref, 100);
  ctrl.tick(100);
  EXPECT_TRUE(second_.available());
}

TEST_F(ControllerTest, ReactiveRequiresFullFirstLevelButRelaxedDoesNot) {
  {
    auto ctrl = make(RobScheme::kReactive, 16);
    DynInst load = make_inst(next_tseq_++, false, OpClass::kLoad);
    load.si = &load_si_;
    load.is_l2_miss = true;
    DynInst& ref = rob0_.push(std::move(load));  // ROB only 1/32 full
    ctrl.on_l2_miss_detected(ref, 100);
    ctrl.tick(100);
    EXPECT_TRUE(second_.available());
  }
  {
    auto ctrl = make(RobScheme::kRelaxedReactive, 15);
    DynInst* head = rob0_.head();
    ctrl.on_l2_miss_detected(*head, 200);
    ctrl.tick(200);
    EXPECT_TRUE(second_.owned_by(0));
  }
}

TEST_F(ControllerTest, ReactiveRechecksEveryInterval) {
  auto ctrl = make(RobScheme::kReactive, 16);
  DynInst& load = fill_rob0_with_miss(/*unexec=*/20);
  ctrl.on_l2_miss_detected(load, 100);
  ctrl.tick(100);  // rejected: DoD 20 >= 16
  ASSERT_TRUE(second_.available());
  // Independent work completes; the count drops below the threshold.
  rob0_.for_each([](DynInst& d) {
    if (!d.is_load()) d.executed = true;
  });
  ctrl.tick(105);  // before the 10-cycle recheck: no decision yet
  EXPECT_TRUE(second_.available());
  ctrl.tick(110);
  EXPECT_TRUE(second_.owned_by(0));
}

TEST_F(ControllerTest, CdrWaitsForSnapshotDelay) {
  auto ctrl = make(RobScheme::kCdr, 15);
  DynInst& load = fill_rob0_with_miss(/*unexec=*/5);
  ctrl.on_l2_miss_detected(load, 100);
  ctrl.tick(100);
  EXPECT_TRUE(second_.available()) << "CDR must not decide before the 32-cycle delay";
  ctrl.tick(131);
  EXPECT_TRUE(second_.available());
  ctrl.tick(132);
  EXPECT_TRUE(second_.owned_by(0));
}

TEST_F(ControllerTest, PredictiveAllocatesOnlyWithTrainedPredictor) {
  auto ctrl = make(RobScheme::kPredictive, 8);
  DynInst& load = fill_rob0_with_miss(/*unexec=*/5);
  ctrl.on_l2_miss_detected(load, 100);  // cold: no prediction
  ctrl.tick(100);
  EXPECT_TRUE(second_.available());
  EXPECT_EQ(ctrl.stats().counter_value("prediction_cold_misses"), 1u);

  // The fill trains the predictor with the actual count (5 < 8).
  ctrl.on_load_fill(load, 600);
  ASSERT_TRUE(ctrl.predictor()->predict(0, load.pc).has_value());

  // Drain and reissue the same static load: now it predicts and allocates.
  rob0_.squash_after(0, [](DynInst&) {});
  DynInst& load2 = fill_rob0_with_miss(/*unexec=*/5);
  ctrl.on_l2_miss_detected(load2, 1200);
  EXPECT_TRUE(second_.owned_by(0));
  EXPECT_EQ(ctrl.stats().counter_value("predictive_allocations"), 1u);
}

TEST_F(ControllerTest, PredictiveVerificationFailureDropsLease) {
  auto ctrl = make(RobScheme::kPredictive, 8);
  DynInst& load = fill_rob0_with_miss(/*unexec=*/5);
  ctrl.on_load_fill(load, 50);  // trains count 5
  rob0_.squash_after(0, [](DynInst&) {});

  DynInst& load2 = fill_rob0_with_miss(/*unexec=*/20);  // actual DoD is high
  ctrl.on_l2_miss_detected(load2, 1000);                // predicted 5 -> allocate
  ASSERT_TRUE(second_.owned_by(0));
  ctrl.on_load_fill(load2, 1500);  // verification: 20 >= 8
  EXPECT_EQ(ctrl.stats().counter_value("verification_failures"), 1u);
  // Lease is no longer justified: once drained the partition frees.
  rob0_.squash_after(0, [](DynInst&) {});
  ctrl.tick(1501);
  EXPECT_TRUE(second_.available());
}

TEST_F(ControllerTest, ReleaseWaitsForTriggerAndDrain) {
  auto ctrl = make(RobScheme::kReactive, 16);
  DynInst& load = fill_rob0_with_miss(/*unexec=*/5);
  ctrl.on_l2_miss_detected(load, 100);
  ctrl.tick(100);
  ASSERT_TRUE(second_.owned_by(0));
  // Dispatch past the first level while the lease is held.
  for (u32 i = 0; i < 10; ++i) rob0_.push(make_inst(next_tseq_++, true));
  ctrl.tick(150);
  EXPECT_TRUE(second_.owned_by(0)) << "trigger still outstanding";
  load.executed = true;  // fill
  ctrl.tick(160);
  EXPECT_TRUE(second_.owned_by(0)) << "must drain to the first level first";
  EXPECT_EQ(rob0_.extra(), 0u) << "no further second-level dispatch while draining";
  while (rob0_.size() > 30) rob0_.pop_head();
  ctrl.tick(170);
  EXPECT_TRUE(second_.available());
}

TEST_F(ControllerTest, LeaseExpiryStopsRenewalAndCooldownBlocksReacquisition) {
  auto ctrl = make(RobScheme::kReactive, 16);  // lease 1000, cooldown 500
  DynInst& load = fill_rob0_with_miss(/*unexec=*/5);
  ctrl.on_l2_miss_detected(load, 100);
  ctrl.tick(100);
  ASSERT_TRUE(second_.owned_by(0));

  // A second thread now has a qualifying candidate pending.
  DynInst l1 = make_inst(1, false, OpClass::kLoad);
  l1.si = &load_si_;
  l1.tid = 1;
  l1.is_l2_miss = true;
  DynInst& load1 = rob1_.push(std::move(l1));
  for (u32 i = 1; i < 32; ++i) rob1_.push(make_inst(i + 1, true));
  ctrl.on_l2_miss_detected(load1, 150);

  // Past the lease limit the holder's fresh misses stop renewing.
  load.executed = true;
  ctrl.tick(1200);  // trigger dead + drained? not drained yet
  while (rob0_.size() > 0) rob0_.pop_head();
  ctrl.tick(1210);
  EXPECT_FALSE(second_.owned_by(0));
  // Thread 1's pending candidate grabs it on a later tick.
  ctrl.tick(1220);
  EXPECT_TRUE(second_.owned_by(1));

  // Thread 0 is in cooldown: a new qualifying miss must not steal it back
  // even after thread 1 releases.
  load1.executed = true;
  while (rob1_.size() > 0) rob1_.pop_head();
  ctrl.tick(1230);
  ASSERT_TRUE(second_.available());
  DynInst& load0b = fill_rob0_with_miss(5);
  ctrl.on_l2_miss_detected(load0b, 1240);
  ctrl.tick(1240);
  EXPECT_FALSE(second_.owned_by(0)) << "cooldown must block re-acquisition";
}

// While the core is quiescent, next_wake() reports only a re-check that
// would act; replay_idle() applies the deferrals the skipped ticks made.

TEST_F(ControllerTest, NextWakeSkipsRejectionsAndReplayCountsThem) {
  auto ctrl = make(RobScheme::kReactive, 16);
  DynInst& load = fill_rob0_with_miss(/*unexec=*/20);
  ctrl.on_l2_miss_detected(load, 100);
  ctrl.tick(100);  // rejected: DoD 20 >= 16
  ASSERT_EQ(ctrl.stats().counter_value("rejected_high_dod"), 1u);
  // Nothing time-gated can change the verdict: only a notification can.
  EXPECT_EQ(ctrl.next_wake(100), kNeverCycle);
  ctrl.replay_idle(175);  // the re-checks at 110, 120, ..., 170
  EXPECT_EQ(ctrl.stats().counter_value("rejected_high_dod"), 8u);
  ctrl.tick(175);  // between grid points: nothing due
  EXPECT_EQ(ctrl.stats().counter_value("rejected_high_dod"), 8u);
  ctrl.tick(180);
  EXPECT_EQ(ctrl.stats().counter_value("rejected_high_dod"), 9u);
}

TEST_F(ControllerTest, ReplayStopsCountingRenewalRejectionsAtTheLeaseLimit) {
  auto ctrl = make(RobScheme::kReactive, 16);  // lease 1000
  DynInst& trigger = fill_rob0_with_miss(/*unexec=*/5);
  ctrl.on_l2_miss_detected(trigger, 100);
  ctrl.tick(100);
  ASSERT_TRUE(second_.owned_by(0));
  // The trigger completes and retires with its first-level window; a second
  // missing load is now the head of a window still spilling into the
  // partition (41 entries), with 31 unexecuted instructions behind it.
  rob0_.head()->executed = true;
  DynInst renewal = make_inst(next_tseq_++, false, OpClass::kLoad);
  renewal.si = &load_si_;
  renewal.is_l2_miss = true;
  rob0_.push(std::move(renewal));
  for (u32 i = 0; i < 40; ++i) rob0_.push(make_inst(next_tseq_++, false));
  for (u32 i = 0; i < 32; ++i) rob0_.pop_head();
  ctrl.on_l2_miss_detected(*rob0_.head(), 200);
  ctrl.tick(200);  // renewal rejected (DoD 31); the holder starts draining
  ASSERT_TRUE(second_.owned_by(0));
  ASSERT_EQ(ctrl.stats().counter_value("rejected_high_dod"), 1u);

  // Rejections until the lease ends at 1100, silent deferrals after it.
  EXPECT_EQ(ctrl.next_wake(200), kNeverCycle);
  ctrl.replay_idle(1500);
  EXPECT_EQ(ctrl.stats().counter_value("rejected_high_dod"), 1u + 89u);  // 210..1090
  ctrl.tick(1500);
  EXPECT_EQ(ctrl.stats().counter_value("rejected_high_dod"), 90u);
  EXPECT_TRUE(second_.owned_by(0));
}

TEST_F(ControllerTest, NextWakeIsTheFirstRecheckAfterTheCooldown) {
  auto ctrl = make(RobScheme::kReactive, 16);  // cooldown 500
  DynInst& load = fill_rob0_with_miss(/*unexec=*/5);
  ctrl.on_l2_miss_detected(load, 100);
  ctrl.tick(100);
  ASSERT_TRUE(second_.owned_by(0));

  // Thread 1 has a candidate pending that never qualifies (its first level
  // is not full), so thread 0's release is contended and starts a cooldown.
  DynInst l1 = make_inst(1, false, OpClass::kLoad);
  l1.si = &load_si_;
  l1.tid = 1;
  l1.is_l2_miss = true;
  ctrl.on_l2_miss_detected(rob1_.push(std::move(l1)), 150);
  load.executed = true;
  while (!rob0_.empty()) rob0_.pop_head();
  ctrl.tick(160);  // release at 160: thread 0 cools down until 660
  ASSERT_TRUE(second_.available());

  DynInst& again = fill_rob0_with_miss(/*unexec=*/5);
  ctrl.on_l2_miss_detected(again, 165);
  ctrl.tick(165);  // deferred by the cooldown; next re-checks 175, 185, ...
  ASSERT_TRUE(second_.available());
  EXPECT_EQ(ctrl.next_wake(165), 665u);  // first re-check at or after 660
  ctrl.replay_idle(665);
  EXPECT_TRUE(second_.available());
  ctrl.tick(665);
  EXPECT_TRUE(second_.owned_by(0));
  EXPECT_EQ(ctrl.stats().counter_value("rejected_high_dod"), 0u);
}

TEST_F(ControllerTest, SquashDropsCandidates) {
  auto ctrl = make(RobScheme::kReactive, 16);
  DynInst& load = fill_rob0_with_miss(/*unexec=*/20);  // rejected, stays pending
  ctrl.on_l2_miss_detected(load, 100);
  ctrl.tick(100);
  ctrl.on_squash(0, 0);  // everything squashed
  rob0_.squash_after(0, [](DynInst&) {});
  ctrl.tick(110);  // must not dereference the dead candidate
  EXPECT_TRUE(second_.available());
}

TEST_F(ControllerTest, AdaptiveGrowsWhenCommitBoundAndShrinksWhenIssueBound) {
  RobPolicyConfig cfg;
  cfg.scheme = RobScheme::kAdaptive;
  cfg.adaptive_interval = 128;
  cfg.adaptive_step = 16;
  cfg.adaptive_max_extra = 96;
  TwoLevelRobController ctrl(cfg, {&rob0_, &rob1_}, second_);

  // Commit-bound: full window behind an unexecuted head, everything younger
  // executed.
  fill_rob0_with_miss(/*unexec=*/0);
  ctrl.tick(128);
  EXPECT_EQ(rob0_.extra(), 16u);
  // Growth continues only once the thread actually fills the new partition.
  ctrl.tick(256);
  EXPECT_EQ(rob0_.extra(), 16u);
  while (!rob0_.full()) rob0_.push(make_inst(next_tseq_++, true));
  ctrl.tick(384);
  EXPECT_EQ(rob0_.extra(), 32u);
  EXPECT_EQ(ctrl.stats().counter_value("adaptive.grows"), 2u);

  // Issue-bound: many unexecuted instructions in the window.
  rob0_.for_each([](DynInst& d) {
    if (!d.is_load()) d.executed = false;
  });
  ctrl.tick(512);
  EXPECT_EQ(rob0_.extra(), 16u);
  ctrl.tick(640);
  EXPECT_EQ(rob0_.extra(), 0u);
  ctrl.tick(768);
  EXPECT_EQ(rob0_.extra(), 0u);  // floor

  // Decisions only at the interval boundary; never touches the partition.
  ctrl.tick(830);
  EXPECT_EQ(ctrl.stats().counter_value("adaptive.shrinks"), 2u);
  EXPECT_TRUE(second_.available());
}

TEST_F(ControllerTest, AdaptiveGrowthIsBounded) {
  RobPolicyConfig cfg;
  cfg.scheme = RobScheme::kAdaptive;
  cfg.adaptive_interval = 1;
  TwoLevelRobController ctrl(cfg, {&rob0_, &rob1_}, second_);
  fill_rob0_with_miss(/*unexec=*/0);
  for (Cycle c = 1; c < 1000; ++c) {
    ctrl.tick(c);
    // Keep it saturated so it always wants to grow.
    while (!rob0_.full()) rob0_.push(make_inst(next_tseq_++, true));
  }
  EXPECT_EQ(rob0_.extra(), cfg.adaptive_max_extra);
}

TEST_F(ControllerTest, BaselineSchemeIsInert) {
  auto ctrl = make(RobScheme::kBaseline, 16);
  DynInst& load = fill_rob0_with_miss(/*unexec=*/2);
  ctrl.on_l2_miss_detected(load, 100);
  ctrl.tick(100);
  ctrl.on_load_fill(load, 600);
  EXPECT_TRUE(second_.available());
  EXPECT_EQ(ctrl.stats().counter_value("allocations"), 0u);
}

}  // namespace
}  // namespace tlrob
