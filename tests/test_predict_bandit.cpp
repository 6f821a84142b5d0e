// Differential chaos suite for online predictor selection
// (predict::BanditSelector) and the reconfiguration seams it exercises:
// selector-off byte-identity (hexfloat, including fault chaos), same-seed
// replay determinism of the arm-switch sequence, regret sanity against the
// worst fixed arm, TaskPredictor::reconfigure discipline (mid-run switches
// must leave the controller's projection bit-identical to a fresh
// self-seeded one at every tick), and the explorer unit behaviour on
// synthetic costs. WIRE_FUZZ_SEED widens the chaos seed set in CI.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/controller.h"
#include "predict/bandit.h"
#include "predict/task_predictor.h"
#include "projection_check.h"
#include "sim/driver.h"
#include "sim/memory.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/generators.h"
#include "workload/profiles.h"

namespace wire::predict {
namespace {

sim::CloudConfig quiet_cloud() {
  sim::CloudConfig config;
  config.lag_seconds = 60.0;
  config.charging_unit_seconds = 60.0;
  config.slots_per_instance = 4;
  config.max_instances = 12;
  config.variability.instance_speed_sigma = 0.0;
  config.variability.interference_sigma = 0.0;
  config.variability.transfer_noise_sigma = 0.0;
  config.variability.transfer_latency_seconds = 0.0;
  return config;
}

/// quiet_cloud plus the hostile fault model of the ensemble chaos suites.
sim::CloudConfig crashy_cloud() {
  sim::CloudConfig config = quiet_cloud();
  config.faults.crash_rate_per_hour = 0.6;
  config.faults.crash_notice_seconds = 120.0;
  config.faults.provision_failure_prob = 0.1;
  config.faults.straggler_prob = 0.15;
  config.faults.task_failure_prob = 0.05;
  config.faults.monitor_dropout_prob = 0.1;
  return config;
}

sim::RunResult run(const dag::Workflow& wf, sim::ScalingPolicy& policy,
                   const sim::CloudConfig& site, std::uint64_t seed) {
  sim::RunOptions options;
  options.seed = seed;
  options.initial_instances = 1;
  return sim::simulate(wf, policy, site, options);
}

/// Hexfloat signature of the run's continuous outcome: any bit of drift in
/// any double shows up as a string diff.
std::string hex_signature(const sim::RunResult& r) {
  char buf[64];
  std::string sig;
  auto add = [&](double v) {
    std::snprintf(buf, sizeof(buf), "%a;", v);
    sig += buf;
  };
  add(r.makespan);
  add(r.cost_units);
  add(r.ready_instance_seconds);
  add(r.busy_slot_seconds);
  add(r.wasted_slot_seconds);
  add(r.utilization);
  for (const sim::TaskRuntime& t : r.task_records) {
    add(t.completed_at);
    add(t.exec_time);
    add(t.transfer_in_time);
  }
  return sig;
}

core::WireOptions selector_options(std::uint32_t arms, std::uint64_t seed,
                                   Explorer explorer =
                                       Explorer::EpsilonGreedyDecay) {
  core::WireOptions options;
  options.bandit.arms = arms;
  options.bandit.seed = seed;
  options.bandit.explorer = explorer;
  options.bandit.switch_period_ticks = 4;
  return options;
}

// ---------------------------------------------------------------------------
// The stock arm set

TEST(BanditArms, DefaultSetShape) {
  const std::vector<BanditArm> arms = default_bandit_arms();
  ASSERT_EQ(arms.size(), 9u);
  // Arm 0 is the paper default, so `arms == 1` degenerates to the fixed
  // predictor.
  const PredictorConfig paper;
  EXPECT_EQ(arms[0].config.use_mean, paper.use_mean);
  EXPECT_EQ(arms[0].config.disable_ogd, paper.disable_ogd);
  EXPECT_EQ(arms[0].config.harvest_failed_attempts,
            paper.harvest_failed_attempts);
  EXPECT_FALSE(arms[0].adaptive_horizon);
  // Labels are distinct, and the full centre x OGD x harvest grid is
  // covered by the eight non-horizon arms.
  std::vector<std::string> labels;
  int grid_seen[8] = {};
  for (const BanditArm& arm : arms) {
    for (const std::string& label : labels) EXPECT_NE(label, arm.label);
    labels.push_back(arm.label);
    EXPECT_EQ(arm.config.input_bucket_rel_tol, paper.input_bucket_rel_tol);
    if (!arm.adaptive_horizon) {
      const int cell = (arm.config.use_mean ? 4 : 0) +
                       (arm.config.disable_ogd ? 2 : 0) +
                       (arm.config.harvest_failed_attempts ? 1 : 0);
      ++grid_seen[cell];
    }
  }
  for (int cell = 0; cell < 8; ++cell) {
    EXPECT_EQ(grid_seen[cell], 1) << "ablation cell " << cell;
  }
}

TEST(BanditArms, SelectorContractViolations) {
  BanditOptions off;  // arms == 0: the off sentinel is not constructible
  EXPECT_THROW(BanditSelector{off}, util::ContractViolation);
  BanditOptions too_many;
  too_many.arms = 64;
  EXPECT_THROW(BanditSelector{too_many}, util::ContractViolation);
  BanditOptions mixed_tol;
  mixed_tol.arms = 2;
  mixed_tol.arm_set = default_bandit_arms();
  mixed_tol.arm_set[1].config.input_bucket_rel_tol = 0.5;
  EXPECT_THROW(BanditSelector{mixed_tol}, util::ContractViolation);
}

// ---------------------------------------------------------------------------
// Explorer unit behaviour on synthetic regret feeds

/// Feeds one full decision period of `cost` per completion.
void feed_period(BanditSelector& selector, double cost_per_completion,
                 std::uint32_t period_ticks) {
  for (std::uint32_t i = 0; i + 1 < period_ticks; ++i) {
    selector.tick(0.0, 0);
  }
  selector.tick(cost_per_completion, 1);
}

BanditOptions synthetic(std::uint32_t arms, Explorer explorer, double epsilon0,
                        std::uint64_t seed = 7) {
  BanditOptions options;
  options.arms = arms;
  options.explorer = explorer;
  options.epsilon0 = epsilon0;
  options.switch_period_ticks = 2;
  options.seed = seed;
  return options;
}

TEST(BanditSelector, PrimesArmsInIndexOrderThenExploits) {
  // epsilon0 = 0: pure exploitation after the priming sweep, so the
  // decision sequence is fully deterministic: 1, 2 (priming), then always
  // the cheapest arm (index 1 here).
  BanditSelector selector(
      synthetic(3, Explorer::EpsilonGreedyDecay, /*epsilon0=*/0.0));
  EXPECT_EQ(selector.current(), 0u);
  const double cost_of[3] = {5.0, 1.0, 9.0};
  for (int period = 0; period < 8; ++period) {
    feed_period(selector, cost_of[selector.current()], 2);
  }
  const std::vector<std::uint32_t>& d = selector.decisions();
  ASSERT_EQ(d.size(), 8u);
  EXPECT_EQ(d[0], 1u);  // arm 0 pulled by construction; prime 1 next
  EXPECT_EQ(d[1], 2u);
  for (std::size_t i = 2; i < d.size(); ++i) {
    EXPECT_EQ(d[i], 1u) << "decision " << i;
  }
  EXPECT_EQ(selector.stats(1).pulls, 6u);
  EXPECT_DOUBLE_EQ(selector.stats(1).mean_cost(), 1.0);
  EXPECT_EQ(selector.switches(), 3u);  // 0 -> 1 -> 2 -> 1, then pinned
}

TEST(BanditSelector, Ucb1PrefersLowCostAfterPriming) {
  // Moderate confidence width: the cheap arm's mean advantage (1 vs 10)
  // dominates the bonus, so after priming UCB1 settles on arm 0.
  BanditSelector selector(synthetic(2, Explorer::Ucb1, 0.0));
  const double cost_of[2] = {1.0, 10.0};
  for (int period = 0; period < 10; ++period) {
    feed_period(selector, cost_of[selector.current()], 2);
  }
  const std::vector<std::uint32_t>& d = selector.decisions();
  ASSERT_EQ(d.size(), 10u);
  for (std::size_t i = 4; i < d.size(); ++i) {
    EXPECT_EQ(d[i], 0u) << "decision " << i;
  }
  EXPECT_GT(selector.stats(0).pulls, selector.stats(1).pulls);
}

TEST(BanditSelector, EmptyPeriodsHoldTheArmAndDecideNothing) {
  BanditSelector selector(
      synthetic(3, Explorer::EpsilonGreedyDecay, /*epsilon0=*/1.0));
  for (int tick = 0; tick < 20; ++tick) {
    EXPECT_FALSE(selector.tick(0.0, 0));
  }
  EXPECT_TRUE(selector.decisions().empty());
  EXPECT_EQ(selector.current(), 0u);
  EXPECT_EQ(selector.stats(0).pulls, 0u);
  // Once a completion lands, the period that closes over it finalizes into
  // the live arm's stats as one pull.
  selector.tick(3.0, 2);
  selector.tick(0.0, 0);  // period boundary
  EXPECT_EQ(selector.stats(0).pulls, 1u);
  EXPECT_EQ(selector.stats(0).completions, 2u);
  EXPECT_DOUBLE_EQ(selector.stats(0).total_cost, 3.0);
}

TEST(BanditSelector, SameSeedReplaysTheSameDecisionSequence) {
  // Full-exploration selectors are pure functions of (seed, regret feed):
  // identical feeds must replay identical decision sequences, draw by draw.
  for (std::uint64_t seed : {1ull, 42ull, 0xfeedull}) {
    BanditSelector a(synthetic(4, Explorer::EpsilonGreedyDecay, 1.0, seed));
    BanditSelector b(synthetic(4, Explorer::EpsilonGreedyDecay, 1.0, seed));
    util::Rng feed(seed);
    for (int period = 0; period < 64; ++period) {
      const double cost = feed.uniform(0.0, 10.0);
      const std::uint32_t completions =
          static_cast<std::uint32_t>(feed.uniform_int(0, 3));
      const bool switched_a = a.tick(cost, completions);
      const bool switched_b = b.tick(cost, completions);
      EXPECT_EQ(switched_a, switched_b);
      EXPECT_EQ(a.current(), b.current());
    }
    EXPECT_EQ(a.decisions(), b.decisions());
    EXPECT_EQ(a.switches(), b.switches());
  }
}

// ---------------------------------------------------------------------------
// Reconfiguration seams (the bugfix satellites)

/// One 6-task stage plus a dependent 2-task stage (mirrors the predictor
/// policy suite's fixture).
dag::Workflow make_two_stage() {
  dag::WorkflowBuilder builder("pred");
  const auto s0 = builder.add_stage("wide");
  const auto s1 = builder.add_stage("tail");
  std::vector<dag::TaskId> firsts;
  const double sizes[6] = {10.0, 10.0, 20.0, 20.0, 40.0, 80.0};
  for (int i = 0; i < 6; ++i) {
    firsts.push_back(builder.add_task(s0, "w" + std::to_string(i), sizes[i],
                                      1.0, 5.0, {}));
  }
  builder.add_task(s1, "t0", 5.0, 1.0, 3.0, firsts);
  builder.add_task(s1, "t1", 5.0, 1.0, 3.0, firsts);
  return builder.build();
}

sim::MonitorSnapshot blank_snapshot(const dag::Workflow& wf) {
  sim::MonitorSnapshot snap;
  snap.tasks.assign(wf.task_count(), sim::TaskObservation{});
  for (const dag::TaskSpec& t : wf.tasks()) {
    snap.tasks[t.id].input_mb = t.input_mb;
  }
  snap.incomplete_tasks = static_cast<std::uint32_t>(wf.task_count());
  return snap;
}

void complete(sim::MonitorSnapshot& snap, dag::TaskId t, double exec) {
  snap.tasks[t].phase = sim::TaskPhase::Completed;
  snap.tasks[t].exec_time = exec;
}

TEST(Reconfigure, SwapsCentreStatisticReversibly) {
  const dag::Workflow wf = make_two_stage();
  TaskPredictor predictor(wf);
  sim::MonitorSnapshot snap = blank_snapshot(wf);
  complete(snap, 0, 4.0);
  complete(snap, 1, 6.0);
  complete(snap, 2, 20.0);
  predictor.observe(snap);
  // Pending task 3 reads the stage centre (policy 3): median of {4, 6, 20}.
  EXPECT_DOUBLE_EQ(predictor.predict_exec(3, snap).exec_seconds, 6.0);

  PredictorConfig mean_config;
  mean_config.use_mean = true;
  ASSERT_TRUE(predictor.reconfigure(mean_config));
  // The cached centre was rebuilt under the new statistic.
  EXPECT_DOUBLE_EQ(predictor.predict_exec(3, snap).exec_seconds, 10.0);
  EXPECT_TRUE(predictor.config().use_mean);

  // Identical config: a strict no-op (arms == 1 selectors must stay
  // byte-identical to selector-off).
  EXPECT_FALSE(predictor.reconfigure(mean_config));
  EXPECT_EQ(predictor.predict_exec(3, snap).exec_seconds, 10.0);

  // Toggling back reproduces the original centre bit-for-bit (mean from the
  // arrival-order sum, median from the sorted multiset — both reversible).
  ASSERT_TRUE(predictor.reconfigure(PredictorConfig{}));
  EXPECT_EQ(predictor.predict_exec(3, snap).exec_seconds, 6.0);
}

TEST(Reconfigure, RejectsBucketToleranceChanges) {
  const dag::Workflow wf = make_two_stage();
  TaskPredictor predictor(wf);
  PredictorConfig rebucket;
  rebucket.input_bucket_rel_tol = 0.5;
  EXPECT_THROW(predictor.reconfigure(rebucket), util::ContractViolation);
}

TEST(Reconfigure, MemoryPredictorSwapsSizing) {
  const dag::Workflow wf = make_two_stage();
  sim::MemoryConfig mem;
  mem.instance_mem_mb = 4096.0;
  mem.sizing = sim::MemoryConfig::Sizing::Percentile;
  mem.percentile = 0.95;
  mem.safety_factor = 1.0;
  mem.min_reservation_mb = 0.0;
  MemoryPredictor predictor(wf, mem, /*slots_per_instance=*/4);
  sim::MonitorSnapshot snap = blank_snapshot(wf);
  complete(snap, 0, 4.0);
  snap.tasks[0].peak_mem_mb = 100.0;
  complete(snap, 1, 6.0);
  snap.tasks[1].peak_mem_mb = 300.0;
  predictor.observe(snap);
  const double p95 = predictor.predict_reservation(2, snap);

  sim::MemoryConfig mean = mem;
  mean.sizing = sim::MemoryConfig::Sizing::Mean;
  ASSERT_TRUE(predictor.reconfigure(mean));
  const double avg = predictor.predict_reservation(2, snap);
  EXPECT_NE(avg, p95);
  EXPECT_DOUBLE_EQ(avg, 200.0);
  // Stage 1 never ingested a peak: its cold-start reservation follows the
  // new configuration too, bitwise what an engine-side sizer computes.
  EXPECT_EQ(predictor.predict_reservation(6, snap),
            sim::TaskMemorySizer(mean, 4, wf.stage_count())
                .reservation_mb(1, wf.task(6).ref_peak_mem_mb, 0));
  EXPECT_FALSE(predictor.reconfigure(mean));  // identical config: no-op
  sim::MemoryConfig off;
  EXPECT_THROW(predictor.reconfigure(off), util::ContractViolation);
}

TEST(Reconfigure, CounterfactualMatchesReadyPoliciesPreHarvest) {
  const dag::Workflow wf = make_two_stage();
  TaskPredictor predictor(wf);
  double out = 0.0;
  // No harvested completions: no counterfactual.
  EXPECT_FALSE(predictor.counterfactual_exec(0, &out));

  sim::MonitorSnapshot snap = blank_snapshot(wf);
  complete(snap, 0, 4.0);
  complete(snap, 2, 11.0);
  predictor.observe(snap);
  // Task 1 shares task 0's input size: the counterfactual is policy 4's
  // group centre, exactly what predict_exec returns for a Ready peer.
  snap.tasks[1].phase = sim::TaskPhase::Ready;
  ASSERT_TRUE(predictor.counterfactual_exec(1, &out));
  EXPECT_EQ(out, predictor.predict_exec(1, snap).exec_seconds);
  EXPECT_DOUBLE_EQ(out, 4.0);
  // Task 4 (40 MB, unseen size): policy 5, the OGD estimate — and never the
  // recorded actual, even after task 4 completes in a later snapshot.
  ASSERT_TRUE(predictor.counterfactual_exec(4, &out));
  EXPECT_EQ(out, predictor.stage_model(0).predict(40.0));
  sim::MonitorSnapshot later = snap;
  complete(later, 4, 77.0);
  double counterfactual = 0.0;
  ASSERT_TRUE(predictor.counterfactual_exec(4, &counterfactual));
  EXPECT_EQ(counterfactual, out);
  EXPECT_EQ(later.tasks[4].exec_time, 77.0);
}

// ---------------------------------------------------------------------------
// Whole-run identity and determinism contracts

dag::Workflow table1_workflow(std::uint64_t seed = 7) {
  return workload::make_workflow(
      workload::epigenomics_profile(workload::Scale::Small), seed);
}

TEST(BanditIdentity, SelectorOffAndSingleDefaultArmMatchBaseline) {
  // bandit.arms == 0 must be byte-identical to the pre-bandit controller,
  // and a single-default-arm selector (which can never switch and whose
  // initial arm IS the paper default) must be byte-identical to both —
  // under the quiet site and under fault chaos.
  const dag::Workflow wf = table1_workflow();
  for (bool chaotic : {false, true}) {
    const sim::CloudConfig site = chaotic ? crashy_cloud() : quiet_cloud();
    for (std::uint64_t seed : {3ull, 11ull}) {
      SCOPED_TRACE(std::string(chaotic ? "crashy" : "quiet") + " seed=" +
                   std::to_string(seed));
      core::WireController baseline{core::WireOptions{}};
      const sim::RunResult expect = run(wf, baseline, site, seed);

      core::WireController off{core::WireOptions{}};  // arms defaults to 0
      EXPECT_EQ(hex_signature(run(wf, off, site, seed)),
                hex_signature(expect));
      EXPECT_EQ(off.bandit(), nullptr);

      core::WireController single{selector_options(/*arms=*/1, /*seed=*/99)};
      const sim::RunResult single_run = run(wf, single, site, seed);
      EXPECT_EQ(hex_signature(single_run), hex_signature(expect));
      ASSERT_NE(single.bandit(), nullptr);
      EXPECT_EQ(single.bandit()->current(), 0u);
      EXPECT_EQ(single.bandit()->switches(), 0u);
    }
  }
}

TEST(BanditIdentity, OracleAndHistoryIgnoreTheSelector) {
  const dag::Workflow wf = table1_workflow();
  core::WireOptions oracle;
  oracle.oracle_estimator = true;
  core::WireController reference{oracle};
  const std::string expect = hex_signature(run(wf, reference, quiet_cloud(), 5));
  core::WireOptions oracle_bandit = oracle;
  oracle_bandit.bandit.arms = 4;
  core::WireController with_bandit{oracle_bandit};
  EXPECT_EQ(hex_signature(run(wf, with_bandit, quiet_cloud(), 5)), expect);
  EXPECT_EQ(with_bandit.bandit(), nullptr);
}

TEST(BanditDeterminism, SameSeedSameArmSequenceAndReport) {
  // The replay-determinism acceptance: with the selector enabled, the same
  // run seed yields the identical arm-switch sequence and the identical
  // final report across repeated runs — quiet and chaotic, both explorers.
  const dag::Workflow wf = table1_workflow();
  for (Explorer explorer :
       {Explorer::EpsilonGreedyDecay, Explorer::Ucb1}) {
    for (bool chaotic : {false, true}) {
      const sim::CloudConfig site = chaotic ? crashy_cloud() : quiet_cloud();
      SCOPED_TRACE(std::string(chaotic ? "crashy" : "quiet") + " explorer=" +
                   std::to_string(static_cast<int>(explorer)));
      core::WireController a{selector_options(9, /*seed=*/21, explorer)};
      core::WireController b{selector_options(9, /*seed=*/21, explorer)};
      const sim::RunResult ra = run(wf, a, site, 17);
      const sim::RunResult rb = run(wf, b, site, 17);
      EXPECT_EQ(hex_signature(ra), hex_signature(rb));
      ASSERT_NE(a.bandit(), nullptr);
      ASSERT_NE(b.bandit(), nullptr);
      EXPECT_EQ(a.bandit()->decisions(), b.bandit()->decisions());
      EXPECT_EQ(a.bandit()->total_cost(), b.bandit()->total_cost());
      EXPECT_EQ(ra.policy_name, "wire-bandit");
    }
  }
}

/// Mean misprediction cost of a fixed arm, measured through a single-arm
/// selector so the regret accounting is identical to the selector's own.
double fixed_arm_mean_cost(const dag::Workflow& wf, const BanditArm& arm,
                           const sim::CloudConfig& site, std::uint64_t seed) {
  core::WireOptions options;
  options.bandit.arms = 1;
  options.bandit.arm_set = {arm};
  options.bandit.seed = 1;
  core::WireController controller{options};
  run(wf, controller, site, seed);
  const BanditSelector* selector = controller.bandit();
  if (selector->total_completions() == 0) return 0.0;
  return selector->total_cost() /
         static_cast<double>(selector->total_completions());
}

TEST(BanditRegret, SelectorNoWorseThanTheWorstFixedArm) {
  // Regret-monotonicity sanity: across seeds, the selector's cumulative
  // misprediction cost per completion stays at or below the worst fixed
  // arm's. (The bench asserts the stronger within-10%-of-best property on
  // the full Table-I matrix; this is the cheap always-on floor.)
  const dag::Workflow wf = table1_workflow();
  const sim::CloudConfig site = crashy_cloud();
  const std::vector<BanditArm> arms = default_bandit_arms();
  const std::uint32_t k = 4;  // centre/OGD/horizon variants
  for (std::uint64_t seed : {2ull, 9ull, 23ull}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    double worst = 0.0;
    for (std::uint32_t i = 0; i < k; ++i) {
      worst = std::max(worst, fixed_arm_mean_cost(wf, arms[i], site, seed));
    }
    core::WireController controller{
        selector_options(k, util::derive_seed(seed, 77))};
    run(wf, controller, site, seed);
    const BanditSelector* selector = controller.bandit();
    ASSERT_NE(selector, nullptr);
    ASSERT_GT(selector->total_completions(), 0u);
    const double mean = selector->total_cost() /
                        static_cast<double>(selector->total_completions());
    EXPECT_LE(mean, worst * 1.0001);
  }
}

/// Constant arm churn: explore every decision, switch every two ticks.
core::WireOptions churn_options(std::uint64_t seed) {
  core::WireOptions churn = selector_options(9, seed);
  churn.bandit.epsilon0 = 1.0;
  churn.bandit.decay = 0.0;
  churn.bandit.switch_period_ticks = 2;
  return churn;
}

TEST(BanditDifferential, ArmSwitchesKeepTheProjectionExactAtEveryTick) {
  // Arm switches reconfigure the live predictor between ticks and flip the
  // adaptive horizon with the horizon arm. At every tick, quiet and
  // chaotic, the controller's projection must still equal a fresh
  // self-seeded simulate_interval under the arm that tick ran with, and the
  // borrowed predecessor counters must come back unchanged
  // (projection_check.h).
  const dag::Workflow wf = table1_workflow();
  for (bool chaotic : {false, true}) {
    const sim::CloudConfig site = chaotic ? crashy_cloud() : quiet_cloud();
    for (std::uint64_t seed : {4ull, 31ull}) {
      SCOPED_TRACE(std::string(chaotic ? "crashy" : "quiet") + " seed=" +
                   std::to_string(seed));
      test_support::ProjectionCheckedController checked{
          churn_options(/*seed=*/5)};
      run(wf, checked, site, seed);
      EXPECT_GT(checked.ticks(), 0u);
      // The churn setting must actually have switched arms, or this test
      // proves nothing.
      ASSERT_NE(checked.controller().bandit(), nullptr);
      EXPECT_GT(checked.controller().bandit()->switches(), 0u);
    }
  }
}

TEST(BanditChaos, EnvironmentSeedRuns) {
  // CI chaos: WIRE_FUZZ_SEED (echoed in the job log) picks one extra seed
  // for the per-tick projection differential under the hostile fault model
  // with constant arm churn.
  const char* env = std::getenv("WIRE_FUZZ_SEED");
  if (env == nullptr) GTEST_SKIP() << "WIRE_FUZZ_SEED not set";
  const std::uint64_t seed = std::strtoull(env, nullptr, 10);
  SCOPED_TRACE("WIRE_FUZZ_SEED=" + std::to_string(seed));
  std::printf("running bandit differential with WIRE_FUZZ_SEED=%llu\n",
              static_cast<unsigned long long>(seed));
  const dag::Workflow wf = table1_workflow();
  test_support::ProjectionCheckedController checked{
      churn_options(util::derive_seed(seed, 3))};
  run(wf, checked, crashy_cloud(), seed);
  EXPECT_GT(checked.ticks(), 0u);
}

}  // namespace
}  // namespace wire::predict
