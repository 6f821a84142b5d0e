// Tests for the deadline-aware policy extension.
#include <gtest/gtest.h>

#include "policies/baselines.h"
#include "policies/deadline.h"
#include "predict/history.h"
#include "sim/driver.h"
#include "util/check.h"
#include "workload/generators.h"
#include "workload/profiles.h"

namespace wire::policies {
namespace {

sim::CloudConfig cloud(double u = 60.0, double lag = 60.0) {
  sim::CloudConfig config;
  config.lag_seconds = lag;
  config.charging_unit_seconds = u;
  config.slots_per_instance = 4;
  config.max_instances = 12;
  config.variability.instance_speed_sigma = 0.0;
  config.variability.interference_sigma = 0.0;
  config.variability.transfer_noise_sigma = 0.0;
  config.variability.transfer_latency_seconds = 0.0;
  return config;
}

sim::RunResult run_with_deadline(const dag::Workflow& wf, double deadline,
                                 std::uint64_t seed = 3) {
  DeadlinePolicy policy(deadline);
  sim::RunOptions options;
  options.seed = seed;
  options.initial_instances = 1;
  return sim::simulate(wf, policy, cloud(), options);
}

TEST(Deadline, RejectsNonPositiveDeadline) {
  EXPECT_THROW(DeadlinePolicy(0.0), util::ContractViolation);
  EXPECT_THROW(DeadlinePolicy(-5.0), util::ContractViolation);
}

TEST(Deadline, NameCarriesTheTarget) {
  EXPECT_EQ(DeadlinePolicy(1800.0).name(), "deadline-1800");
}

TEST(Deadline, TightDeadlineScalesOut) {
  // 64 x 300 s tasks = 19200 slot-seconds. A 900 s deadline needs ~21 slots
  // (and the boot lag eats into it), so the pool must grow well past one.
  const dag::Workflow wf = workload::linear_workflow(1, 64, 300.0);
  const sim::RunResult r = run_with_deadline(wf, 900.0);
  EXPECT_GE(r.peak_instances, 5u);
  EXPECT_LE(r.makespan, 1.35 * 900.0);  // meets the SLO within slack
}

TEST(Deadline, LooseDeadlineStaysCheap) {
  // The same workload with a 6 h deadline fits on very few instances.
  const dag::Workflow wf = workload::linear_workflow(1, 64, 300.0);
  const sim::RunResult loose = run_with_deadline(wf, 21600.0);
  const sim::RunResult tight = run_with_deadline(wf, 900.0);
  EXPECT_LT(loose.peak_instances, tight.peak_instances);
  EXPECT_LT(loose.cost_units, tight.cost_units);
  EXPECT_LE(loose.makespan, 21600.0);
}

TEST(Deadline, CostMonotoneInDeadline) {
  const dag::Workflow wf = workload::make_workflow(
      workload::tpch1_profile(workload::Scale::Large), 7);
  double previous_cost = 0.0;
  for (double deadline : {600.0, 1800.0, 7200.0}) {
    const sim::RunResult r = run_with_deadline(wf, deadline);
    if (previous_cost > 0.0) {
      EXPECT_LE(r.cost_units, previous_cost * 1.15)
          << "deadline " << deadline;
    }
    previous_cost = r.cost_units;
    for (const sim::TaskRuntime& rec : r.task_records) {
      EXPECT_EQ(rec.phase, sim::TaskPhase::Completed);
    }
  }
}

TEST(Deadline, PastDeadlineGoesAllOut) {
  // A deadline shorter than a single task: the policy goes to the useful
  // maximum (one slot per task: 32/4 = 8 instances, below the site cap) and
  // still completes.
  const dag::Workflow wf = workload::linear_workflow(1, 32, 500.0);
  const sim::RunResult r = run_with_deadline(wf, 100.0);
  EXPECT_EQ(r.peak_instances, 8u);
  for (const sim::TaskRuntime& rec : r.task_records) {
    EXPECT_EQ(rec.phase, sim::TaskPhase::Completed);
  }
}

TEST(Deadline, AheadOfScheduleReleases) {
  // A heavy wide burst then a narrow serial tail, with a deadline that
  // forces scale-out for the burst but is comfortably met afterwards: the
  // pool must grow for the burst and shrink during the tail.
  dag::WorkflowBuilder builder("burst-tail");
  const auto s0 = builder.add_stage("burst");
  std::vector<dag::TaskId> burst;
  for (int i = 0; i < 64; ++i) {
    burst.push_back(
        builder.add_task(s0, "b" + std::to_string(i), 0, 0, 240.0, {}));
  }
  const auto s1 = builder.add_stage("tail");
  dag::TaskId prev = builder.add_task(s1, "t0", 0, 0, 60.0, burst);
  for (int i = 1; i < 10; ++i) {
    prev = builder.add_task(s1, "t" + std::to_string(i), 0, 0, 60.0, {prev});
  }
  const dag::Workflow wf = builder.build();

  DeadlinePolicy policy(2400.0);
  sim::RunOptions options;
  options.seed = 3;
  options.initial_instances = 1;
  options.record_pool_timeline = true;
  const sim::RunResult r = sim::simulate(wf, policy, cloud(), options);
  std::uint32_t peak = 0;
  for (const sim::PoolSample& s : r.pool_timeline) {
    peak = std::max(peak, s.live_instances);
  }
  EXPECT_GE(peak, 2u);
  EXPECT_LT(r.pool_timeline.back().live_instances, peak);
  EXPECT_LE(r.makespan, 2400.0);
}

TEST(Deadline, RevokingInstanceIsNeitherCapacityNorVictim) {
  // An instance under a revocation notice is already written off: the
  // provider reclaims it on its own schedule. Counting it as stable capacity
  // under-grows the pool, and releasing it double-counts the loss. The row
  // here is the cheapest possible victim (idle, unit expiring before the
  // next interval), so a policy that does not exclude it picks it.
  const sim::CloudConfig config = cloud();
  const auto snapshot = [](const dag::Workflow& wf) {
    sim::MonitorSnapshot snap;
    snap.tasks.assign(wf.task_count(), sim::TaskObservation{});
    snap.incomplete_tasks = static_cast<std::uint32_t>(wf.task_count());
    for (dag::TaskId t = 0; t < wf.task_count(); ++t) {
      snap.tasks[t].phase = sim::TaskPhase::Ready;
      snap.ready_queue.push_back(t);
    }
    snap.ready_queue.erase(snap.ready_queue.begin());
    snap.tasks[0].phase = sim::TaskPhase::Running;
    snap.tasks[0].elapsed = 10.0;
    snap.tasks[0].instance = 0;
    sim::InstanceObservation stable;
    stable.id = 0;
    stable.time_to_next_charge = 50.0;
    stable.running_tasks = {0};
    sim::InstanceObservation revoking;
    revoking.id = 1;
    revoking.revoking = true;
    revoking.time_to_next_charge = 10.0;
    snap.instances = {stable, revoking};
    return snap;
  };

  // One task: the plan is one instance, which the stable row provides.
  const dag::Workflow single = workload::linear_workflow(1, 1, 300.0);
  DeadlinePolicy relaxed(21600.0);
  relaxed.on_run_start(single, config);
  const sim::PoolCommand hold = relaxed.plan(snapshot(single));
  EXPECT_TRUE(hold.releases.empty()) << "released a revoking instance";
  EXPECT_EQ(hold.grow, 0u);

  // Eight tasks past the point of no return: the plan is the useful maximum
  // of two instances, and only one of the live rows will still be there.
  const dag::Workflow wide = workload::linear_workflow(1, 8, 300.0);
  DeadlinePolicy urgent(30.0);
  urgent.on_run_start(wide, config);
  const sim::PoolCommand grow = urgent.plan(snapshot(wide));
  EXPECT_TRUE(grow.releases.empty());
  EXPECT_EQ(grow.grow, 1u) << "counted a revoking instance as capacity";
}

TEST(Deadline, HistoryArchiveCoversUnstartedStages) {
  // Deep DAG (12 sequential PageRank stages): online estimates see no work
  // in unstarted stages (policy 1), so the controller under-provisions and
  // misses SLOs that a history-backed estimate meets.
  const dag::Workflow wf = workload::make_workflow(
      workload::pagerank_profile(workload::Scale::Small), 7);

  StaticPolicy full_site(12, "full-site");
  sim::RunOptions prior_options;
  prior_options.seed = 1;
  prior_options.initial_instances = 12;
  const sim::RunResult prior =
      sim::simulate(wf, full_site, cloud(), prior_options);
  const auto archive =
      std::make_shared<const std::vector<predict::HistoryRecord>>(
          predict::history_from_records(prior.task_records));

  const double deadline = prior.makespan * 1.6;
  DeadlinePolicy with_history(deadline, archive);
  EXPECT_EQ(with_history.name(),
            "deadline-history-" +
                std::to_string(static_cast<long>(deadline)));
  sim::RunOptions options;
  options.seed = 2;
  options.initial_instances = 1;
  const sim::RunResult r = sim::simulate(wf, with_history, cloud(), options);
  EXPECT_LE(r.makespan, deadline);
  for (const sim::TaskRuntime& rec : r.task_records) {
    EXPECT_EQ(rec.phase, sim::TaskPhase::Completed);
  }
}

}  // namespace
}  // namespace wire::policies
