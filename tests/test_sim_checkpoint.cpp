// Tests for the checkpointing extension: salvage bookkeeping, shortened
// re-execution, and the restart-cost discount in the steering policies.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/steering.h"
#include "exp/settings.h"
#include "policies/baselines.h"
#include "policies/deadline.h"
#include "sim/driver.h"
#include "sim/framework.h"
#include "workload/generators.h"
#include "workload/profiles.h"

namespace wire::sim {
namespace {

TEST(Checkpoint, SalvageRecordedOnKill) {
  const dag::Workflow wf = workload::linear_workflow(1, 2, 100.0);
  FrameworkMaster fm(wf, 5, /*checkpoint_fraction=*/0.5);
  fm.register_instance(0, 2);
  const dag::TaskId t = fm.pop_ready();
  fm.on_dispatch(t, 0, 0, 0.0);
  fm.on_transfer_in_done(t, 2.0);
  // Killed after 40 s of execution: half is salvaged.
  fm.resubmit_tasks_on(0, 42.0);
  EXPECT_DOUBLE_EQ(fm.runtime(t).salvaged_exec, 20.0);
  // A second, later kill can only raise the salvage.
  const dag::TaskId again = fm.pop_ready();
  (void)again;
  fm.on_dispatch(t, 0, 0, 50.0);
  fm.on_transfer_in_done(t, 52.0);
  fm.resubmit_tasks_on(0, 62.0);  // only 10 s this time
  EXPECT_DOUBLE_EQ(fm.runtime(t).salvaged_exec, 20.0);  // kept the max
}

TEST(Checkpoint, NoSalvageWhenDisabled) {
  const dag::Workflow wf = workload::linear_workflow(1, 1, 100.0);
  FrameworkMaster fm(wf, 5, /*checkpoint_fraction=*/0.0);
  fm.register_instance(0, 1);
  const dag::TaskId t = fm.pop_ready();
  fm.on_dispatch(t, 0, 0, 0.0);
  fm.on_transfer_in_done(t, 0.0);
  fm.resubmit_tasks_on(0, 50.0);
  EXPECT_DOUBLE_EQ(fm.runtime(t).salvaged_exec, 0.0);
}

TEST(Checkpoint, KilledTaskResumesFaster) {
  // One 100 s task; a policy kills the instance at the first tick (t = 40)
  // and replaces it. With perfect checkpointing the task resumes with ~60 s
  // remaining; without, it restarts from scratch.
  class KillOnce final : public ScalingPolicy {
   public:
    std::string name() const override { return "kill-once"; }
    void on_run_start(const dag::Workflow&, const CloudConfig&) override {
      fired_ = false;
    }
    PoolCommand plan(const MonitorSnapshot& snapshot) override {
      PoolCommand cmd;
      if (!fired_ && snapshot.now >= 40.0) {
        fired_ = true;
        for (const InstanceObservation& inst : snapshot.instances) {
          cmd.releases.push_back(Release{inst.id, false});
        }
        cmd.grow = 1;
      }
      return cmd;
    }

   private:
    bool fired_ = false;
  };

  const dag::Workflow wf = workload::linear_workflow(1, 1, 100.0);
  CloudConfig config;
  config.lag_seconds = 40.0;
  config.charging_unit_seconds = 600.0;
  config.slots_per_instance = 1;
  config.variability.instance_speed_sigma = 0.0;
  config.variability.interference_sigma = 0.0;
  config.variability.transfer_noise_sigma = 0.0;
  config.variability.transfer_latency_seconds = 0.0;

  RunOptions options;
  options.initial_instances = 1;

  KillOnce no_ckpt;
  const RunResult plain = simulate(wf, no_ckpt, config, options);
  // Kill at 40, replacement ready at 80, full re-run: 180 s.
  EXPECT_DOUBLE_EQ(plain.makespan, 180.0);
  EXPECT_EQ(plain.task_restarts, 1u);

  config.checkpoint_fraction = 1.0;
  KillOnce full_ckpt;
  const RunResult ckpt = simulate(wf, full_ckpt, config, options);
  // Replacement ready at 80, only 60 s remain: 140 s.
  EXPECT_DOUBLE_EQ(ckpt.makespan, 140.0);

  config.checkpoint_fraction = 0.5;
  KillOnce half_ckpt;
  const RunResult half = simulate(wf, half_ckpt, config, options);
  EXPECT_DOUBLE_EQ(half.makespan, 160.0);  // 20 s salvaged
}

TEST(Checkpoint, SteeringDiscountsRestartCosts) {
  // An instance whose task has sunk 300 s: protected at 0.2u = 180 without
  // checkpointing, releasable with a 0.9 checkpoint fraction (residual 30).
  core::LookaheadResult lookahead;  // empty load -> p = 1
  sim::MonitorSnapshot snap;
  snap.incomplete_tasks = 2;
  snap.tasks.assign(2, TaskObservation{});
  snap.tasks[0].phase = TaskPhase::Running;
  snap.tasks[0].elapsed = 250.0;
  for (InstanceId id = 0; id < 2; ++id) {
    InstanceObservation inst;
    inst.id = id;
    inst.time_to_next_charge = 50.0;
    if (id == 0) inst.running_tasks = {0};
    snap.instances.push_back(inst);
  }
  CloudConfig config;
  config.lag_seconds = 180.0;
  config.charging_unit_seconds = 900.0;

  const PoolCommand plain = core::steer(lookahead, snap, config);
  ASSERT_EQ(plain.releases.size(), 1u);  // only the idle instance qualifies
  EXPECT_EQ(plain.releases[0].instance, 1u);

  config.checkpoint_fraction = 0.9;
  const PoolCommand ckpt = core::steer(lookahead, snap, config);
  // With 90 % salvage both instances qualify; p = 1 keeps one.
  EXPECT_EQ(ckpt.releases.size(), 1u);
  // The busy instance now has the LOWER effective cost ((250+50)*0.1 = 30 vs
  // the idle instance's 0) — victims are still cheapest-first, so the idle
  // one goes; but a p = 0 plan would take both. Verify eligibility directly:
  sim::MonitorSnapshot only_busy = snap;
  only_busy.instances.erase(only_busy.instances.begin() + 1);
  const PoolCommand busy_only = core::steer(lookahead, only_busy, config);
  EXPECT_TRUE(busy_only.releases.empty());  // p = 1 == m, nothing to do
  only_busy.incomplete_tasks = 1;
  // Force a shrink attempt by adding a second copy of the busy instance.
  sim::InstanceObservation clone = snap.instances[0];
  clone.id = 5;
  only_busy.instances.push_back(clone);
  const PoolCommand shrink = core::steer(lookahead, only_busy, config);
  ASSERT_EQ(shrink.releases.size(), 1u);  // a busy instance IS releasable now

  // The lookahead's restart-cost floor meets the salvage discount. Under the
  // legacy fraction the floor is discounted with the observed sunk cost
  // (max(floor, elapsed + ttc) * (1 - f)); under scheduled checkpointing it
  // is not (only the observed progress is reduced, by the durable prefix).
  core::LookaheadResult floored;  // empty load -> p = 1
  floored.restart_cost = {{0, 300.0}, {1, 100.0}, {2, 380.0}};
  sim::MonitorSnapshot trio;
  trio.incomplete_tasks = 1;
  trio.tasks.assign(1, TaskObservation{});
  trio.tasks[0].phase = TaskPhase::Running;
  trio.tasks[0].elapsed = 230.0;
  trio.tasks[0].checkpointed_exec = 200.0;
  for (InstanceId id = 0; id < 3; ++id) {
    InstanceObservation inst;
    inst.id = id;
    inst.time_to_next_charge = 50.0;
    if (id == 1) inst.running_tasks = {0};
    trio.instances.push_back(inst);
  }
  const auto victims = [&](const CloudConfig& c) {
    std::string out;
    for (const Release& r : core::steer(floored, trio, c).releases) {
      out += std::to_string(r.instance) + (r.at_charge_boundary ? "b " : " ");
    }
    return out;
  };
  CloudConfig legacy = config;
  legacy.checkpoint_fraction = 0.0;
  // Undiscounted: 300, 280 and 380 all exceed 0.2u = 180.
  EXPECT_EQ(victims(legacy), "");
  legacy.checkpoint_fraction = 0.5;
  // Discounted: 150, 140, 190 -> instances 1 then 0, cheapest first.
  EXPECT_EQ(victims(legacy), "1b 0b ");
  CloudConfig scheduled = legacy;
  scheduled.checkpoint.channel_bandwidth_mb_per_s = 400.0;
  // Checkpoint mode: floors stay 300 / 100 / 380; instance 1's unsalvaged
  // progress is 230 + 50 - 200 = 80 under its floor of 100.
  EXPECT_EQ(victims(scheduled), "1b ");
}

/// Counts the instances a wrapped policy orders released over a whole run.
class ReleaseCounter final : public ScalingPolicy {
 public:
  explicit ReleaseCounter(ScalingPolicy& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  void on_run_start(const dag::Workflow& workflow,
                    const CloudConfig& config) override {
    released_ = 0;
    inner_.on_run_start(workflow, config);
  }
  PoolCommand plan(const MonitorSnapshot& snapshot) override {
    PoolCommand cmd = inner_.plan(snapshot);
    released_ += cmd.releases.size();
    return cmd;
  }
  std::size_t released() const { return released_; }

 private:
  ScalingPolicy& inner_;
  std::size_t released_ = 0;
};

TEST(Checkpoint, ReleaseDisciplineGoldens) {
  // Whole runs of the two non-WIRE policies that release under Algorithm 2's
  // discipline, on a quiet cloud under each salvage model, pinned bit for
  // bit. Any change to the victim filter, the sunk-cost arithmetic or the
  // release order shows up as a string diff.
  const dag::Workflow wf = workload::make_workflow(
      workload::pagerank_profile(workload::Scale::Large), 7);
  const auto site = [](const std::string& mode) {
    CloudConfig config = exp::paper_cloud(300.0);
    if (mode == "fraction") {
      config.checkpoint_fraction = 0.5;
    } else if (mode == "scheduled") {
      config.checkpoint.channel_bandwidth_mb_per_s = 400.0;
      config.checkpoint.interval_policy =
          CheckpointConfig::IntervalPolicy::Static;
      config.checkpoint.static_interval_seconds = 60.0;
    }
    return config;
  };
  struct Cell {
    const char* policy;
    const char* mode;
    const char* golden;
  };
  const Cell cells[] = {
      {"reactive-conserving", "none",
       "makespan=0x1.f50c46a44a051p+11 cost=0x1.1cp+6 released=34"},
      {"reactive-conserving", "fraction",
       "makespan=0x1.1c11502431593p+12 cost=0x1.1cp+6 released=38"},
      {"reactive-conserving", "scheduled",
       "makespan=0x1.10fb1d74384fdp+12 cost=0x1.28p+6 released=43"},
      {"deadline", "none",
       "makespan=0x1.38ab66430114fp+12 cost=0x1.48p+6 released=2"},
      {"deadline", "fraction",
       "makespan=0x1.3a356255cd4d2p+12 cost=0x1.3cp+6 released=5"},
      {"deadline", "scheduled",
       "makespan=0x1.385ad1d3a86d7p+12 cost=0x1.48p+6 released=2"},
  };
  for (const Cell& cell : cells) {
    policies::ReactiveConservingPolicy conserving;
    policies::DeadlinePolicy deadline(3600.0);
    ScalingPolicy& inner = std::string(cell.policy) == "deadline"
                               ? static_cast<ScalingPolicy&>(deadline)
                               : conserving;
    ReleaseCounter counter(inner);
    RunOptions options;
    options.seed = 11;
    options.initial_instances = 1;
    const RunResult r = simulate(wf, counter, site(cell.mode), options);
    char buf[128];
    std::snprintf(buf, sizeof(buf), "makespan=%a cost=%a released=%zu",
                  r.makespan, r.cost_units, counter.released());
    EXPECT_EQ(std::string(buf), cell.golden)
        << cell.policy << " / " << cell.mode;
  }
}

}  // namespace
}  // namespace wire::sim
