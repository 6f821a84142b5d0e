// Tests for Algorithm 3 (resize_pool) and Algorithm 2 (steer): bin-packing
// semantics, the leftover rule, release preconditions (r_j <= t,
// c_j <= 0.2u), and victim ordering by restart cost.
#include <gtest/gtest.h>

#include "core/steering.h"
#include "util/check.h"

namespace wire::core {
namespace {

TEST(ResizePool, EmptyLoadNeedsNothing) {
  EXPECT_EQ(resize_pool({}, 900.0, 4), 0u);
}

TEST(ResizePool, TinyLoadGetsOneInstance) {
  // Line 28: p == 0 after the loop -> one instance.
  EXPECT_EQ(resize_pool({1.0, 2.0, 3.0}, 900.0, 4), 1u);
  EXPECT_EQ(resize_pool({0.0}, 900.0, 4), 1u);
}

TEST(ResizePool, FullSlotsForAUnitCountOneInstance) {
  // 4 tasks of exactly u on 4 slots: one fully charged instance, and the
  // tasks retire with it (no leftover).
  EXPECT_EQ(resize_pool({900.0, 900.0, 900.0, 900.0}, 900.0, 4), 1u);
}

TEST(ResizePool, LongTasksClaimOneInstancePerSlotGroup) {
  // 8 tasks of 2u on 4 slots: two instances fully busy for >= u each.
  const std::vector<double> load(8, 1800.0);
  EXPECT_EQ(resize_pool(load, 900.0, 4), 2u);
}

TEST(ResizePool, ShortTasksShareAnInstance) {
  // 16 tasks of u/4 on 4 slots: together they fill exactly one instance for
  // one unit.
  const std::vector<double> load(16, 225.0);
  EXPECT_EQ(resize_pool(load, 900.0, 4), 1u);
}

TEST(ResizePool, LeftoverAboveThresholdAddsAnInstance) {
  // One instance fully charged, then a leftover task of 0.3u (> 0.2u).
  std::vector<double> load(4, 900.0);
  load.push_back(270.0);
  EXPECT_EQ(resize_pool(load, 900.0, 4), 2u);
}

TEST(ResizePool, LeftoverBelowThresholdIsAbsorbed) {
  // Same, but the leftover is 0.1u (< 0.2u): no extra instance.
  std::vector<double> load(4, 900.0);
  load.push_back(90.0);
  EXPECT_EQ(resize_pool(load, 900.0, 4), 1u);
}

TEST(ResizePool, ThresholdIsConfigurable) {
  std::vector<double> load(4, 900.0);
  load.push_back(90.0);  // 0.1u leftover
  EXPECT_EQ(resize_pool(load, 900.0, 4, /*leftover_fraction=*/0.05), 2u);
}

TEST(ResizePool, ZeroPredictionsNeverAccumulate) {
  // Policy-1 tasks (predicted 0) flow through the slots without consuming
  // charged time: conservative sizing keeps one instance.
  const std::vector<double> load(100, 0.0);
  EXPECT_EQ(resize_pool(load, 900.0, 4), 1u);
}

TEST(ResizePool, MixedLoadMatchesHandComputation) {
  // l = 2, u = 10. Poll order: [10, 10, 4, 6, 8].
  //  - {10,10}: t_min 10 >= u -> p = 1.
  //  - {4,6}: t_min 4, T = 4; retire 4, {2}; add 8 -> {2,8}: t_min 2, T = 6;
  //    retire 2 -> {6}; queue empty, leftover max 6 > 0.2u -> p = 2.
  EXPECT_EQ(resize_pool({10.0, 10.0, 4.0, 6.0, 8.0}, 10.0, 2), 2u);
}

TEST(ResizePool, SingleSlotSequentialAccumulation) {
  // l = 1: pure sequential accumulation. 10 tasks of 1s, u = 5: two full
  // units -> 2 instances... wait: T accumulates 1s each until 5 -> p=1,
  // then the next 5 accumulate -> p=2. Exactly NR/U.
  const std::vector<double> load(10, 1.0);
  EXPECT_EQ(resize_pool(load, 5.0, 1), 2u);
}

TEST(ResizePool, InvalidArgumentsThrow) {
  EXPECT_THROW(resize_pool({1.0}, 0.0, 4), util::ContractViolation);
  EXPECT_THROW(resize_pool({1.0}, 10.0, 0), util::ContractViolation);
}

// ---------------------------------------------------------------------------
// Algorithm 2 (steer)
// ---------------------------------------------------------------------------

sim::CloudConfig test_config() {
  sim::CloudConfig config;
  config.lag_seconds = 180.0;
  config.charging_unit_seconds = 900.0;
  config.slots_per_instance = 4;
  return config;
}

sim::InstanceObservation instance(sim::InstanceId id, double r,
                                  bool draining = false,
                                  bool provisioning = false) {
  sim::InstanceObservation obs;
  obs.id = id;
  obs.time_to_next_charge = r;
  obs.draining = draining;
  obs.provisioning = provisioning;
  obs.free_slots = 4;
  return obs;
}

TEST(Steer, GrowsToPlannedSize) {
  LookaheadResult lookahead;
  for (int i = 0; i < 8; ++i) {
    lookahead.upcoming.push_back(UpcomingTask{1800.0,
                                              static_cast<dag::TaskId>(i)});
  }
  sim::MonitorSnapshot snap;
  snap.incomplete_tasks = 8;
  snap.instances.push_back(instance(0, 500.0));
  const sim::PoolCommand cmd = steer(lookahead, snap, test_config());
  EXPECT_EQ(cmd.grow, 1u);  // p = 2, m = 1
  EXPECT_TRUE(cmd.releases.empty());
}

TEST(Steer, EmptyLoadRetainsMinimalPool) {
  LookaheadResult lookahead;
  sim::MonitorSnapshot snap;
  snap.incomplete_tasks = 3;
  const sim::PoolCommand grow_cmd = steer(lookahead, snap, test_config());
  EXPECT_EQ(grow_cmd.grow, 1u);  // m = 0 but tasks remain

  snap.instances.push_back(instance(0, 500.0));
  const sim::PoolCommand hold_cmd = steer(lookahead, snap, test_config());
  EXPECT_EQ(hold_cmd.grow, 0u);
  EXPECT_TRUE(hold_cmd.releases.empty());  // r_j > lag: cannot release yet
}

TEST(Steer, ReleasesOnlyWhenUnitExpiresBeforeNextInterval) {
  LookaheadResult lookahead;  // empty load -> p = 1
  sim::MonitorSnapshot snap;
  snap.incomplete_tasks = 1;
  snap.instances.push_back(instance(0, 100.0));  // expires within lag
  snap.instances.push_back(instance(1, 100.0));
  snap.instances.push_back(instance(2, 800.0));  // does not
  const sim::PoolCommand cmd = steer(lookahead, snap, test_config());
  // p = 1, m = 3: release up to 2, but only ids 0/1 qualify.
  ASSERT_EQ(cmd.releases.size(), 2u);
  EXPECT_TRUE(cmd.releases[0].at_charge_boundary);
  EXPECT_EQ(cmd.releases[0].instance, 0u);
  EXPECT_EQ(cmd.releases[1].instance, 1u);
}

TEST(Steer, RestartCostBlocksRelease) {
  LookaheadResult lookahead;
  lookahead.restart_cost[0] = 0.5 * 900.0;  // > 0.2u: protected
  lookahead.restart_cost[1] = 0.1 * 900.0;  // <= 0.2u: releasable
  sim::MonitorSnapshot snap;
  snap.incomplete_tasks = 2;
  snap.instances.push_back(instance(0, 50.0));
  snap.instances.push_back(instance(1, 50.0));
  const sim::PoolCommand cmd = steer(lookahead, snap, test_config());
  ASSERT_EQ(cmd.releases.size(), 1u);
  EXPECT_EQ(cmd.releases[0].instance, 1u);
}

TEST(Steer, VictimsOrderedByRestartCost) {
  LookaheadResult lookahead;
  lookahead.restart_cost[0] = 120.0;
  lookahead.restart_cost[1] = 30.0;
  lookahead.restart_cost[2] = 60.0;
  sim::MonitorSnapshot snap;
  snap.incomplete_tasks = 3;
  for (sim::InstanceId id = 0; id < 3; ++id) {
    snap.instances.push_back(instance(id, 50.0));
  }
  // Load sized for p = 1 -> release two: cheapest restart costs first.
  lookahead.upcoming.push_back(UpcomingTask{10.0, 0});
  const sim::PoolCommand cmd = steer(lookahead, snap, test_config());
  ASSERT_EQ(cmd.releases.size(), 2u);
  EXPECT_EQ(cmd.releases[0].instance, 1u);
  EXPECT_EQ(cmd.releases[1].instance, 2u);
}

TEST(Steer, EqualRestartCostsBreakTiesByInstanceIdDeterministically) {
  // Two victims with bit-identical restart costs: the ordering must not
  // depend on the standard library's sort internals (introsort is not
  // stable), or byte-identical replay breaks on a toolchain change. The
  // comparator's explicit id tie-break pins ascending-id order — under both
  // snapshot orderings.
  for (bool reversed : {false, true}) {
    SCOPED_TRACE(reversed ? "snapshot lists 2 before 1"
                          : "snapshot lists 1 before 2");
    LookaheadResult lookahead;
    lookahead.restart_cost[1] = 30.0;
    lookahead.restart_cost[2] = 30.0;  // identical victim key
    lookahead.upcoming.push_back(UpcomingTask{10.0, 0});  // p = 1
    sim::MonitorSnapshot snap;
    snap.incomplete_tasks = 3;
    snap.instances.push_back(instance(0, 800.0));  // not expiring: survivor
    if (reversed) {
      snap.instances.push_back(instance(2, 50.0));
      snap.instances.push_back(instance(1, 50.0));
    } else {
      snap.instances.push_back(instance(1, 50.0));
      snap.instances.push_back(instance(2, 50.0));
    }
    const sim::PoolCommand cmd = steer(lookahead, snap, test_config());
    ASSERT_EQ(cmd.releases.size(), 2u);
    EXPECT_EQ(cmd.releases[0].instance, 1u);
    EXPECT_EQ(cmd.releases[1].instance, 2u);
  }
}

TEST(Steer, DrainingAndProvisioningAreNotVictims) {
  LookaheadResult lookahead;
  lookahead.upcoming.push_back(UpcomingTask{10.0, 0});  // p = 1
  sim::MonitorSnapshot snap;
  snap.incomplete_tasks = 1;
  snap.instances.push_back(instance(0, 50.0, /*draining=*/true));
  snap.instances.push_back(instance(1, 50.0, false, /*provisioning=*/true));
  snap.instances.push_back(instance(2, 50.0));
  // m counts the non-draining pair {1, 2}; p = 1 -> one release, and it must
  // be the ready instance 2 (provisioning instances are not candidates).
  const sim::PoolCommand cmd = steer(lookahead, snap, test_config());
  ASSERT_EQ(cmd.releases.size(), 1u);
  EXPECT_EQ(cmd.releases[0].instance, 2u);
}

TEST(Steer, NoChangeWhenPlannedEqualsCurrent) {
  LookaheadResult lookahead;
  for (int i = 0; i < 4; ++i) {
    lookahead.upcoming.push_back(UpcomingTask{900.0,
                                              static_cast<dag::TaskId>(i)});
  }
  sim::MonitorSnapshot snap;
  snap.incomplete_tasks = 4;
  snap.instances.push_back(instance(0, 400.0));
  const sim::PoolCommand cmd = steer(lookahead, snap, test_config());
  EXPECT_EQ(cmd.grow, 0u);
  EXPECT_TRUE(cmd.releases.empty());
}

}  // namespace
}  // namespace wire::core
