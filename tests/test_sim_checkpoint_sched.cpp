// Scheduled-checkpointing suite (the hazard-driven cooperative checkpoint
// subsystem): interval policy math, hazard-estimator convergence to the
// configured crash rate, deterministic salvage through explicit checkpoint
// events, window deferral, checkpoint-aware victim selection, and the
// differential chaos sweep proving that
// scheduled-checkpoint runs are bit-replayable from their recorded
// FaultTrace (the subsystem draws no RNG of its own).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "core/steering.h"
#include "policies/baselines.h"
#include "policies/checkpoint.h"
#include "sim/driver.h"
#include "sim/engine.h"
#include "sim/faults.h"
#include "workload/generators.h"

namespace wire::sim {
namespace {

/// A policy that kills every instance at the first tick past t = 40 and
/// replaces the pool (same shape as the legacy checkpoint-fraction test, so
/// the two salvage models are directly comparable).
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

CloudConfig quiet_cloud() {
  CloudConfig config;
  config.lag_seconds = 40.0;
  config.charging_unit_seconds = 600.0;
  config.slots_per_instance = 1;
  config.variability.instance_speed_sigma = 0.0;
  config.variability.interference_sigma = 0.0;
  config.variability.transfer_noise_sigma = 0.0;
  config.variability.transfer_latency_seconds = 0.0;
  return config;
}

TEST(CheckpointScheduler, YoungDalyIntervalMath) {
  CheckpointConfig config;
  config.channel_bandwidth_mb_per_s = 256.0;
  config.min_interval_seconds = 30.0;
  policies::CheckpointScheduler sched(config);

  // Zero hazard (no prior, no crash): never checkpoint.
  EXPECT_TRUE(std::isinf(sched.interval_seconds(1.0)));

  // One crash over one observed hour (plus the unit prior weight at zero
  // prior rate): hazard = 1 / 2 per hour, MTBF = 7200 s.
  sched.hazard().record_crash();
  sched.hazard().add_exposure_hours(1.0);
  EXPECT_DOUBLE_EQ(sched.hazard().hazard_per_hour(), 0.5);
  EXPECT_DOUBLE_EQ(sched.interval_seconds(2.0),
                   std::sqrt(2.0 * 2.0 * 7200.0));

  // Zero write cost degenerates to "never" (nothing to amortize).
  EXPECT_TRUE(std::isinf(sched.interval_seconds(0.0)));

  // The floor binds under an extreme hazard estimate.
  for (int i = 0; i < 10000; ++i) sched.hazard().record_crash();
  EXPECT_DOUBLE_EQ(sched.interval_seconds(1e-4),
                   config.min_interval_seconds);
}

TEST(CheckpointScheduler, StaticIntervalIsTheAblation) {
  CheckpointConfig config;
  config.channel_bandwidth_mb_per_s = 256.0;
  config.interval_policy = CheckpointConfig::IntervalPolicy::Static;
  config.static_interval_seconds = 120.0;
  policies::CheckpointScheduler sched(config);
  // The hazard estimate is irrelevant to the static ablation.
  EXPECT_DOUBLE_EQ(sched.interval_seconds(1.0), 120.0);
  sched.hazard().record_crash();
  EXPECT_DOUBLE_EQ(sched.interval_seconds(1.0), 120.0);
  // The floor still binds.
  config.static_interval_seconds = 5.0;
  policies::CheckpointScheduler floored(config);
  EXPECT_DOUBLE_EQ(floored.interval_seconds(1.0),
                   config.min_interval_seconds);
}

TEST(CheckpointScheduler, PriorBlendsWithObservation) {
  CheckpointConfig config;
  config.channel_bandwidth_mb_per_s = 1.0;
  config.hazard_prior_per_hour = 2.0;
  config.hazard_prior_weight_hours = 4.0;
  policies::CheckpointScheduler sched(config);
  // Pure prior before any exposure.
  EXPECT_DOUBLE_EQ(sched.hazard().hazard_per_hour(), 2.0);
  // (2*4 + 4 crashes) / (4 + 12 hours) = 0.75.
  for (int i = 0; i < 4; ++i) sched.hazard().record_crash();
  sched.hazard().add_exposure_hours(12.0);
  EXPECT_DOUBLE_EQ(sched.hazard().hazard_per_hour(), 0.75);
}

TEST(CheckpointScheduler, CrashBeforeExposureYieldsFiniteHazard) {
  // The crash-before-exposure timeline with a zero-weight prior: instances
  // crash (or are revoked while provisioning) before any ready
  // instance-hours accrue. The estimator must NOT report zero hazard —
  // that read as "reliable cloud" at the exact moment it proved otherwise,
  // and Young/Daly turned it into an infinite checkpoint interval (crashes
  // seen, never checkpoints). The estimate is floored at one observed
  // exposure instance-second.
  policies::HazardEstimator fresh(/*prior_per_hour=*/0.0,
                                  /*prior_weight_hours=*/0.0);
  EXPECT_DOUBLE_EQ(fresh.hazard_per_hour(), 0.0);  // no crash: still zero
  fresh.record_crash();
  EXPECT_GT(fresh.hazard_per_hour(), 0.0);
  EXPECT_TRUE(std::isfinite(fresh.hazard_per_hour()));
  EXPECT_DOUBLE_EQ(fresh.hazard_per_hour(), 3600.0);  // 1 crash / 1 inst-sec
  fresh.record_crash();
  EXPECT_DOUBLE_EQ(fresh.hazard_per_hour(), 7200.0);

  // And the scheduler consuming it now picks a finite (floored) interval
  // instead of "never".
  CheckpointConfig config;
  config.channel_bandwidth_mb_per_s = 1.0;
  config.hazard_prior_per_hour = 0.0;
  config.hazard_prior_weight_hours = 0.0;
  config.min_interval_seconds = 30.0;
  policies::CheckpointScheduler sched(config);
  sched.hazard().record_crash();
  const double interval = sched.interval_seconds(/*write_cost_seconds=*/4.0);
  EXPECT_TRUE(std::isfinite(interval));
  EXPECT_GE(interval, config.min_interval_seconds);

  // Once real exposure accrues, the floor disengages and the ordinary
  // estimate takes over.
  fresh.add_exposure_hours(4.0);
  EXPECT_DOUBLE_EQ(fresh.hazard_per_hour(), 0.5);
}

// Explicit checkpoint events: a killed attempt salvages exactly its last
// COMMITTED checkpoint; execution past it (and any in-flight write) is lost.
// The schedule is fully deterministic, so the run's timeline is exact.
TEST(CheckpointSched, SalvageStopsAtLastCommittedCheckpoint) {
  const dag::Workflow wf = workload::linear_workflow(1, 1, 100.0);
  CloudConfig config = quiet_cloud();
  // Static 30 s interval; 256 MB image over 256 MB/s = 1 s blocking write.
  config.checkpoint.channel_bandwidth_mb_per_s = 256.0;
  config.checkpoint.default_size_mb = 256.0;
  config.checkpoint.interval_policy = CheckpointConfig::IntervalPolicy::Static;
  config.checkpoint.static_interval_seconds = 30.0;

  RunOptions options;
  options.initial_instances = 1;

  KillOnce policy;
  const RunResult r = simulate(wf, policy, config, options);
  // Timeline: exec 0-30, write 30-31 (commits 30 s durable), exec resumes
  // 31; the kill at t = 40 stages 39 s of progress and salvages the 30 s
  // checkpoint -> 9 s of lost work. The replacement is ready at 80 with 70 s
  // of demand left: exec 80-110, write 110-111, exec 111-141, write 141-142,
  // final 10 s -> done at 152.
  EXPECT_DOUBLE_EQ(r.makespan, 152.0);
  EXPECT_EQ(r.task_restarts, 1u);
  EXPECT_EQ(r.checkpoints_completed, 3u);
  EXPECT_EQ(r.checkpoints_lost, 0u);
  EXPECT_DOUBLE_EQ(r.checkpoint_io_slot_seconds, 3.0);
  EXPECT_DOUBLE_EQ(r.lost_work_seconds, 9.0);
}

// An in-flight write at the kill is lost: it never committed, so it salvages
// nothing and is counted as lost checkpoint I/O.
TEST(CheckpointSched, InFlightWriteAtKillIsLost) {
  const dag::Workflow wf = workload::linear_workflow(1, 1, 100.0);
  CloudConfig config = quiet_cloud();
  // 38 s interval with a 16 s write: the first write spans 38-54, so the
  // kill at t = 40 catches it mid-flight.
  config.checkpoint.channel_bandwidth_mb_per_s = 16.0;
  config.checkpoint.default_size_mb = 256.0;
  config.checkpoint.interval_policy = CheckpointConfig::IntervalPolicy::Static;
  config.checkpoint.static_interval_seconds = 38.0;

  RunOptions options;
  options.initial_instances = 1;

  KillOnce policy;
  const RunResult r = simulate(wf, policy, config, options);
  // Nothing durable at the kill: all 38 s of progress are lost (execution
  // was stalled inside the write from 38 on, so staged progress is 38, not
  // 40). Replacement at 80 re-runs the full 100 s: ckpt write 118-134, exec
  // resumes to 142+24=... segments: exec 80-118 (38 s), write 118-134,
  // exec 134-172 (38 s, 76 done), write 172-188, remaining 24 s -> 212.
  EXPECT_DOUBLE_EQ(r.makespan, 212.0);
  EXPECT_EQ(r.checkpoints_completed, 2u);
  EXPECT_EQ(r.checkpoints_lost, 1u);
  // Lost I/O: 2 s of channel time burned by the doomed write (38..40).
  EXPECT_DOUBLE_EQ(r.checkpoint_io_slot_seconds, 2.0 + 16.0 + 16.0);
  EXPECT_DOUBLE_EQ(r.lost_work_seconds, 38.0);
}

// Young/Daly on a quiet cloud with no prior: the hazard estimate stays zero,
// no checkpoint is ever written, and the run is identical to the
// checkpoint-disabled baseline (the zero-rate discipline).
TEST(CheckpointSched, ZeroHazardNeverCheckpoints) {
  const dag::Workflow wf = workload::linear_workflow(1, 1, 100.0);
  CloudConfig config = quiet_cloud();
  RunOptions options;
  options.initial_instances = 1;

  KillOnce plain_policy;
  const RunResult plain = simulate(wf, plain_policy, config, options);
  EXPECT_DOUBLE_EQ(plain.makespan, 180.0);

  config.checkpoint.channel_bandwidth_mb_per_s = 256.0;
  config.checkpoint.interval_policy =
      CheckpointConfig::IntervalPolicy::YoungDaly;
  KillOnce ckpt_policy;
  const RunResult ckpt = simulate(wf, ckpt_policy, config, options);
  EXPECT_EQ(ckpt.checkpoints_completed, 0u);
  EXPECT_EQ(ckpt.checkpoints_lost, 0u);
  EXPECT_DOUBLE_EQ(ckpt.checkpoint_io_slot_seconds, 0.0);
  EXPECT_DOUBLE_EQ(ckpt.makespan, plain.makespan);
  // The kill's progress is now all lost work (nothing durable existed).
  EXPECT_DOUBLE_EQ(ckpt.lost_work_seconds, 40.0);
}

// The staggering window defers checkpoint *starts*: a write whose natural
// fire time falls outside [offset + k*period, offset + k*period + length)
// slides to the next opening while execution continues underneath.
TEST(CheckpointSched, WindowDefersCheckpointStarts) {
  const dag::Workflow wf = workload::linear_workflow(1, 1, 100.0);
  CloudConfig config = quiet_cloud();
  config.checkpoint.channel_bandwidth_mb_per_s = 256.0;
  config.checkpoint.default_size_mb = 256.0;
  config.checkpoint.interval_policy = CheckpointConfig::IntervalPolicy::Static;
  config.checkpoint.static_interval_seconds = 30.0;

  RunOptions options;
  options.initial_instances = 1;

  // Windows of 5 s every 50 s starting at t = 45: the natural fire at 30
  // slides to 45.
  class NullPolicy final : public ScalingPolicy {
   public:
    std::string name() const override { return "null"; }
    void on_run_start(const dag::Workflow&, const CloudConfig&) override {}
    PoolCommand plan(const MonitorSnapshot&) override { return {}; }
  };

  NullPolicy policy;
  JobEngine engine(wf, policy, config, options);
  engine.set_checkpoint_window(/*offset=*/45.0, /*length=*/5.0,
                               /*period=*/50.0);
  engine.start();
  while (!engine.done()) engine.step();
  const RunResult r = engine.result();
  // Deferred write at 45 commits 45 s durable at 46; next natural fire at
  // 76 defers to 95, commits 94 s durable at 96; remaining 6 s -> 102.
  EXPECT_DOUBLE_EQ(r.makespan, 102.0);
  EXPECT_EQ(r.checkpoints_completed, 2u);
  EXPECT_DOUBLE_EQ(r.checkpoint_io_slot_seconds, 2.0);
}

// Satellite regression: victim selection under scheduled checkpointing
// charges unsalvaged progress (elapsed - committed checkpoint), and equal
// restart costs still tie-break on the instance id.
TEST(CheckpointSched, VictimSelectionChargesUnsalvagedProgress) {
  core::LookaheadResult lookahead;  // empty load -> p = 1
  MonitorSnapshot snap;
  snap.incomplete_tasks = 3;
  snap.tasks.assign(3, TaskObservation{});
  for (dag::TaskId t = 0; t < 3; ++t) {
    snap.tasks[t].phase = TaskPhase::Running;
    snap.tasks[t].elapsed = 250.0;
  }
  // Task 0: no checkpoint. Task 1: 240 s committed -> residual 60 with the
  // boundary 50 s away. Task 2: same as task 1 (tie on residual).
  snap.tasks[1].checkpointed_exec = 240.0;
  snap.tasks[2].checkpointed_exec = 240.0;
  for (InstanceId id = 0; id < 3; ++id) {
    InstanceObservation inst;
    inst.id = id;
    inst.time_to_next_charge = 50.0;
    inst.running_tasks = {static_cast<dag::TaskId>(id)};
    snap.instances.push_back(inst);
  }
  CloudConfig config;
  config.lag_seconds = 180.0;
  config.charging_unit_seconds = 900.0;
  config.checkpoint.channel_bandwidth_mb_per_s = 256.0;

  // restart_cost_fraction * unit = 0.2 * 900 = 180: instance 0's residual
  // (250 + 50 = 300) is protected; instances 1 and 2 (residual 60) qualify.
  // p = 1 releases two of them, cheapest first with id tie-break: 1 then 2.
  const PoolCommand cmd = core::steer(lookahead, snap, config);
  ASSERT_EQ(cmd.releases.size(), 2u);
  EXPECT_EQ(cmd.releases[0].instance, 1u);
  EXPECT_EQ(cmd.releases[1].instance, 2u);

  // Legacy model on the same snapshot: no fraction -> everything at full
  // sunk cost, nothing qualifies.
  CloudConfig legacy = config;
  legacy.checkpoint.channel_bandwidth_mb_per_s = 0.0;
  const PoolCommand none = core::steer(lookahead, snap, legacy);
  EXPECT_TRUE(none.releases.empty());
}

// The engine-side hazard estimator converges toward the configured crash
// rate: crashes over tick-sampled ready instance-hours is exactly the
// quantity FaultConfig::crash_rate_per_hour parameterizes.
TEST(CheckpointSched, HazardEstimateConvergesToConfiguredRate) {
  const double kRate = 20.0;
  // A long workflow so the site accrues hours of exposure: 20 stages of
  // four 300 s tasks keeps a handful of instances busy for over an hour of
  // simulated time, dozens of expected crashes at 20/hour.
  const dag::Workflow wf = workload::linear_workflow(20, 4, 300.0);
  CloudConfig config;
  config.lag_seconds = 30.0;
  config.charging_unit_seconds = 120.0;
  config.slots_per_instance = 2;
  config.max_instances = 6;
  config.faults.crash_rate_per_hour = kRate;
  config.checkpoint.channel_bandwidth_mb_per_s = 512.0;
  config.checkpoint.default_size_mb = 64.0;

  double crashes = 0.0;
  double exposure = 0.0;
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE("run seed " + std::to_string(seed));
    policies::PureReactivePolicy policy;
    RunOptions options;
    options.seed = seed;
    options.initial_instances = 2;
    options.max_sim_seconds = 3.0e6;
    JobEngine engine(wf, policy, config, options);
    engine.start();
    while (!engine.done()) engine.step();
    const RunResult r = engine.result();
    EXPECT_GE(r.instance_crashes, 1u);
    crashes += static_cast<double>(r.instance_crashes);
    EXPECT_GT(engine.checkpoint_hazard_per_hour(), 0.0);
    // Recover the run's observed exposure from the estimator identity:
    // estimate = crashes / (prior_weight + exposure).
    exposure += static_cast<double>(r.instance_crashes) /
                    engine.checkpoint_hazard_per_hour() -
                config.checkpoint.hazard_prior_weight_hours;
  }
  // Pooled across runs the empirical rate is a consistent estimate of the
  // configured rate; the tolerance absorbs Poisson noise and the tick
  // sampling of exposure (crash exposure accrues up to the crash, the
  // sample only to the last tick).
  const double pooled = crashes / (exposure + 3.0);
  EXPECT_GT(pooled, kRate * 0.4);
  EXPECT_LT(pooled, kRate * 2.5);
}

/// Hostile cloud with scheduled checkpointing on: every fault class fires
/// alongside checkpoint traffic.
CloudConfig hostile_ckpt_cloud(CheckpointConfig::IntervalPolicy policy) {
  CloudConfig config;
  config.lag_seconds = 30.0;
  config.charging_unit_seconds = 120.0;
  config.slots_per_instance = 2;
  config.max_instances = 6;
  config.faults.crash_rate_per_hour = 20.0;
  config.faults.crash_notice_seconds = 20.0;
  config.faults.provision_failure_prob = 0.2;
  config.faults.straggler_prob = 0.3;
  config.faults.straggler_lag_multiplier = 2.5;
  config.faults.task_failure_prob = 0.15;
  config.faults.monitor_dropout_prob = 0.2;
  config.retry.max_attempts = 3;
  config.retry.backoff_base_seconds = 5.0;
  config.retry.backoff_factor = 2.0;
  config.checkpoint.channel_bandwidth_mb_per_s = 64.0;
  config.checkpoint.default_size_mb = 128.0;
  config.checkpoint.interval_policy = policy;
  config.checkpoint.static_interval_seconds = 60.0;
  config.checkpoint.hazard_prior_per_hour = 10.0;
  config.checkpoint.min_interval_seconds = 30.0;
  return config;
}

struct ChaosOutcome {
  std::string trace;
  RunResult result;
};

/// One scheduled-checkpoint chaos run; returns the rendered FaultTrace and
/// the result for replay comparison.
ChaosOutcome run_ckpt_chaos(std::uint64_t seed,
                            CheckpointConfig::IntervalPolicy interval) {
  // Tasks must outlive the checkpoint interval (~30-60 s here) or the
  // subsystem never engages; the default 8 s mean would make the sweep
  // vacuous.
  workload::RandomDagOptions dag_options;
  dag_options.mean_exec_seconds = 150.0;
  const dag::Workflow wf = workload::random_layered(dag_options, seed);
  const CloudConfig config = hostile_ckpt_cloud(interval);
  policies::PureReactivePolicy policy;
  RunOptions options;
  options.seed = seed + 101;
  options.initial_instances = 1;
  options.max_sim_seconds = 3.0e6;

  JobEngine engine(wf, policy, config, options);
  engine.start();
  std::uint64_t steps = 0;
  while (!engine.done()) {
    EXPECT_LT(steps, 400000u) << "chaos run failed to converge";
    if (steps >= 400000u) break;
    engine.step();
    ++steps;
  }
  ChaosOutcome out;
  out.result = engine.result();
  out.trace = render_fault_trace(out.result.fault_trace);

  // Waste accounting invariants under chaos: both components are finite and
  // non-negative, committed + lost covers every write the journal charged.
  EXPECT_GE(out.result.lost_work_seconds, 0.0);
  EXPECT_GE(out.result.checkpoint_io_slot_seconds, 0.0);
  if (out.result.checkpoints_completed == 0 &&
      out.result.checkpoints_lost == 0) {
    EXPECT_DOUBLE_EQ(out.result.checkpoint_io_slot_seconds, 0.0);
  }
  // Exactly-once completion still holds with checkpoint events interleaved.
  EXPECT_EQ(out.result.task_records.size(), wf.task_count());
  for (dag::TaskId t = 0; t < static_cast<dag::TaskId>(wf.task_count());
       ++t) {
    const TaskRuntime& rec = out.result.task_records[t];
    if (!rec.quarantined) {
      EXPECT_EQ(static_cast<int>(rec.phase),
                static_cast<int>(TaskPhase::Completed))
          << "task " << t << " neither completed nor quarantined";
    }
  }
  return out;
}

class CheckpointChaos : public ::testing::TestWithParam<int> {};

TEST_P(CheckpointChaos, ScheduledCheckpointRunsAreBitReplayable) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  for (const auto interval : {CheckpointConfig::IntervalPolicy::YoungDaly,
                              CheckpointConfig::IntervalPolicy::Static}) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed) + " policy " +
                 (interval == CheckpointConfig::IntervalPolicy::YoungDaly
                      ? "young-daly"
                      : "static"));
    const ChaosOutcome a = run_ckpt_chaos(seed, interval);
    // The hostile rates with a hazard prior make checkpoint traffic all but
    // certain; an all-zero run would mean the subsystem never engaged.
    EXPECT_FALSE(a.result.fault_trace.empty());
    EXPECT_GT(a.result.checkpoints_completed + a.result.checkpoints_lost, 0u);
    // Same seed -> byte-identical fault schedule AND bit-identical results:
    // the checkpoint subsystem adds no RNG draws, so the recorded FaultTrace
    // fully determines the run.
    const ChaosOutcome b = run_ckpt_chaos(seed, interval);
    EXPECT_EQ(a.trace, b.trace);
    EXPECT_EQ(a.result.makespan, b.result.makespan);
    EXPECT_EQ(a.result.cost_units, b.result.cost_units);
    EXPECT_EQ(a.result.busy_slot_seconds, b.result.busy_slot_seconds);
    EXPECT_EQ(a.result.wasted_slot_seconds, b.result.wasted_slot_seconds);
    EXPECT_EQ(a.result.lost_work_seconds, b.result.lost_work_seconds);
    EXPECT_EQ(a.result.checkpoint_io_slot_seconds,
              b.result.checkpoint_io_slot_seconds);
    EXPECT_EQ(a.result.checkpoints_completed, b.result.checkpoints_completed);
    EXPECT_EQ(a.result.checkpoints_lost, b.result.checkpoints_lost);
    EXPECT_EQ(a.result.task_restarts, b.result.task_restarts);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckpointChaos, ::testing::Range(0, 4));

TEST(CheckpointChaos, EnvironmentSeedRuns) {
  const char* env = std::getenv("WIRE_FUZZ_SEED");
  if (env == nullptr) GTEST_SKIP() << "WIRE_FUZZ_SEED not set";
  const std::uint64_t seed = std::strtoull(env, nullptr, 10);
  SCOPED_TRACE("WIRE_FUZZ_SEED=" + std::to_string(seed));
  std::printf("running checkpoint chaos with WIRE_FUZZ_SEED=%llu\n",
              static_cast<unsigned long long>(seed));
  const ChaosOutcome a =
      run_ckpt_chaos(seed, CheckpointConfig::IntervalPolicy::YoungDaly);
  const ChaosOutcome b =
      run_ckpt_chaos(seed, CheckpointConfig::IntervalPolicy::YoungDaly);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.result.makespan, b.result.makespan);
}

}  // namespace
}  // namespace wire::sim
