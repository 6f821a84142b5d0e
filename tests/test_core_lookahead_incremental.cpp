// Differential chaos suite and property tests for the controller's reused
// lookahead projection (core/lookahead.*, tests/projection_check.h).
//
// The hard contract: at EVERY control tick the controller's projection —
// RunState counters borrowed under an undo log, one LookaheadResult and one
// scratch arena reused across ticks — equals a fresh self-seeded
// simulate_interval bit for bit (full `upcoming` vector, `restart_cost` map,
// `projected_completions`), under every fault-model scenario the chaos suite
// knows (crashes with revocation notice, straggler boots, provision
// failures, transient task faults, dropout-coalesced snapshots). A single
// ulp of drift in the reused path shows up here before it can flip a
// steering decision.
//
// Alongside, seeded property sweeps pin the projection's output invariants
// over random DAGs × predictors. Two of the stated invariants deserve their
// honest, implementation-true form:
//   - "restart_cost[i] <= horizon - now" holds only for instances whose
//     projected tasks were all dispatched inside the lookahead
//     (attempt_start >= now). An observed-running task's sunk cost counts
//     from its real occupancy_start, which can precede now by many lags, so
//     the global bound is horizon - min(observed occupancy_start, now).
//   - Q_task ordering: the on-slot entries form a strict prefix — first the
//     still-busy tasks with strictly positive remaining occupancy in
//     non-decreasing order, then the speculative completions pinned at zero
//     (they never release their slots) — followed by the projected ready
//     queue in dispatch order, preserving the relative order of the
//     surviving snapshot ready-queue members.
//
// Every randomized test announces its seed via SCOPED_TRACE, and
// WIRE_FUZZ_SEED adds one environment-chosen chaos seed (DESIGN.md §4.10).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/controller.h"
#include "core/lookahead.h"
#include "core/run_state.h"
#include "core/steering.h"
#include "dag/workflow.h"
#include "predict/task_predictor.h"
#include "projection_check.h"
#include "sim/driver.h"
#include "sim/engine.h"
#include "workload/generators.h"

namespace wire::core {
namespace {

using dag::TaskId;
using sim::CloudConfig;
using sim::MonitorSnapshot;
using sim::TaskPhase;

void expect_lookahead_invariants(const MonitorSnapshot& snap,
                                 const LookaheadResult& result,
                                 const CloudConfig& config) {
  const double horizon = snap.now + config.lag_seconds;

  // No task appears twice in Q_task.
  std::set<TaskId> seen;
  for (const UpcomingTask& u : result.upcoming) {
    EXPECT_TRUE(seen.insert(u.task).second)
        << "task " << u.task << " appears twice in upcoming";
  }

  // Ordering: on-slot prefix (positives non-decreasing, then zeros), then
  // the queued suffix.
  std::size_t first_queued = result.upcoming.size();
  for (std::size_t i = 0; i < result.upcoming.size(); ++i) {
    if (!result.upcoming[i].on_slot) {
      first_queued = i;
      break;
    }
  }
  double prev_positive = 0.0;
  bool in_zero_tail = false;
  for (std::size_t i = 0; i < result.upcoming.size(); ++i) {
    const UpcomingTask& u = result.upcoming[i];
    if (i >= first_queued) {
      EXPECT_FALSE(u.on_slot) << "on-slot entry after the queued suffix began";
      continue;
    }
    if (u.remaining_occupancy > 0.0) {
      EXPECT_FALSE(in_zero_tail)
          << "still-busy entry after a speculative completion";
      EXPECT_GE(u.remaining_occupancy, prev_positive)
          << "still-busy prefix not ordered by projected completion";
      prev_positive = u.remaining_occupancy;
    } else {
      in_zero_tail = true;  // speculative completions: pinned at zero
    }
  }

  // Speculative completions never release slots: every task observed Running
  // on a stable (non-draining, non-revoking, ready) instance stays on a slot
  // at the horizon.
  for (const sim::InstanceObservation& inst : snap.instances) {
    if (inst.draining || inst.revoking || inst.provisioning) continue;
    for (TaskId task : inst.running_tasks) {
      bool found_on_slot = false;
      for (const UpcomingTask& u : result.upcoming) {
        if (u.task == task) {
          found_on_slot = u.on_slot;
          break;
        }
      }
      EXPECT_TRUE(found_on_slot)
          << "running task " << task << " lost its slot in the projection";
    }
  }

  // Queued suffix preserves the relative order of the surviving snapshot
  // ready-queue members (FIFO dispatch consumes only the front).
  std::map<TaskId, std::size_t> queue_rank;
  for (std::size_t i = 0; i < snap.ready_queue.size(); ++i) {
    queue_rank.emplace(snap.ready_queue[i], i);
  }
  std::size_t last_rank = 0;
  bool have_rank = false;
  for (std::size_t i = first_queued; i < result.upcoming.size(); ++i) {
    const auto it = queue_rank.find(result.upcoming[i].task);
    if (it == queue_rank.end()) continue;  // fired or requeued in-lookahead
    if (have_rank) {
      EXPECT_GT(it->second, last_rank)
          << "ready-queue order not preserved at task "
          << result.upcoming[i].task;
    }
    last_rank = it->second;
    have_rank = true;
  }

  // Restart costs: positive, and bounded by the sunk horizon. For instances
  // hosting only lookahead-dispatched tasks the bound is the lag itself;
  // observed-running tasks push it back to their real occupancy_start.
  double min_start = snap.now;
  std::map<sim::InstanceId, bool> has_observed_running;
  for (const sim::InstanceObservation& inst : snap.instances) {
    bool any = false;
    for (TaskId task : inst.running_tasks) {
      if (snap.tasks[task].phase != TaskPhase::Running) continue;
      any = true;
      min_start = std::min(min_start, snap.tasks[task].occupancy_start);
    }
    has_observed_running[inst.id] = any;
  }
  for (const auto& [inst, cost] : result.restart_cost) {
    EXPECT_GT(cost, 0.0);
    EXPECT_LE(cost, horizon - min_start);
    const auto it = has_observed_running.find(inst);
    if (it == has_observed_running.end() || !it->second) {
      // Only speculative work: attempt_start >= now, so cost <= lag.
      EXPECT_LE(cost, horizon - snap.now)
          << "speculative-only instance " << inst << " overcharged";
    }
  }
}

/// The chaos suite's fault scenarios (mirrors test_sim_faults.cpp).
enum class Scenario {
  kHostileMix,
  kDropoutAlways,
  kRevocationHeavy,
  kFlakyBoots,
  kReliable,
};

const char* scenario_name(Scenario s) {
  switch (s) {
    case Scenario::kHostileMix:
      return "hostile-mix";
    case Scenario::kDropoutAlways:
      return "dropout-always";
    case Scenario::kRevocationHeavy:
      return "revocation-heavy";
    case Scenario::kFlakyBoots:
      return "flaky-boots";
    case Scenario::kReliable:
      return "reliable";
  }
  return "unknown";
}

CloudConfig scenario_config(Scenario s) {
  CloudConfig config;
  config.lag_seconds = 30.0;
  config.charging_unit_seconds = 120.0;
  config.slots_per_instance = 2;
  config.max_instances = 6;
  config.retry.max_attempts = 3;
  config.retry.backoff_base_seconds = 5.0;
  config.retry.backoff_factor = 2.0;
  switch (s) {
    case Scenario::kHostileMix:
      config.faults.crash_rate_per_hour = 20.0;
      config.faults.crash_notice_seconds = 20.0;
      config.faults.provision_failure_prob = 0.2;
      config.faults.straggler_prob = 0.3;
      config.faults.straggler_lag_multiplier = 2.5;
      config.faults.task_failure_prob = 0.15;
      config.faults.monitor_dropout_prob = 0.2;
      break;
    case Scenario::kDropoutAlways:
      config.faults.monitor_dropout_prob = 1.0;
      break;
    case Scenario::kRevocationHeavy:
      config.faults.crash_rate_per_hour = 40.0;
      config.faults.crash_notice_seconds = 30.0;
      break;
    case Scenario::kFlakyBoots:
      config.faults.provision_failure_prob = 0.4;
      config.faults.straggler_prob = 0.5;
      config.faults.straggler_lag_multiplier = 3.0;
      break;
    case Scenario::kReliable:
      break;
  }
  return config;
}

/// The lookahead suite's per-tick extras: the output invariants, and the
/// adaptive horizon cap's contract — a capped projection of the same tick
/// steers identically, and an idle cap leaves the projection untouched.
void check_invariants_and_cap(const test_support::CheckedTick& tick) {
  expect_lookahead_invariants(tick.snapshot, tick.reference, tick.config);
  const LookaheadResult capped = simulate_interval(
      tick.workflow, tick.snapshot, tick.controller.estimator(), tick.config,
      /*state=*/nullptr, /*scratch=*/nullptr,
      tick.controller.memory_predictor(), /*adaptive_horizon=*/true);
  SCOPED_TRACE("adaptive horizon at t=" + std::to_string(tick.snapshot.now));
  test_support::expect_steering_eq(
      steer(capped, tick.snapshot, tick.config), tick.command);
  if (capped.truncated_tasks == 0) {
    test_support::expect_lookahead_eq(capped, tick.reference);
  }
}

void run_differential(Scenario scenario, std::uint64_t seed,
                      test_support::ProjectionCheckedController& policy) {
  const dag::Workflow wf =
      workload::random_layered(workload::RandomDagOptions{}, seed);
  sim::RunOptions options;
  options.seed = seed + 101;
  options.initial_instances = 1;
  options.max_sim_seconds = 3.0e6;

  sim::JobEngine engine(wf, policy, scenario_config(scenario), options);
  engine.start();
  std::uint64_t steps = 0;
  while (!engine.done()) {
    ASSERT_LT(steps, 400000u) << "differential run failed to converge";
    engine.step();
    ++steps;
  }
  EXPECT_GT(policy.ticks(), 0u);
}

class LookaheadDifferential : public ::testing::TestWithParam<int> {};

TEST_P(LookaheadDifferential, ControllerMatchesFreshProjectionUnderChaos) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  for (Scenario scenario :
       {Scenario::kHostileMix, Scenario::kDropoutAlways,
        Scenario::kRevocationHeavy, Scenario::kFlakyBoots,
        Scenario::kReliable}) {
    SCOPED_TRACE(std::string("scenario ") + scenario_name(scenario) +
                 " seed " + std::to_string(seed));
    test_support::ProjectionCheckedController policy(
        WireOptions{}, check_invariants_and_cap);
    run_differential(scenario, seed, policy);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LookaheadDifferential, ::testing::Range(0, 3));

TEST(LookaheadDifferential, EnvironmentSeedRuns) {
  const char* env = std::getenv("WIRE_FUZZ_SEED");
  if (env == nullptr) GTEST_SKIP() << "WIRE_FUZZ_SEED not set";
  const std::uint64_t seed = std::strtoull(env, nullptr, 10);
  SCOPED_TRACE("WIRE_FUZZ_SEED=" + std::to_string(seed));
  std::printf("running lookahead differential with WIRE_FUZZ_SEED=%llu\n",
              static_cast<unsigned long long>(seed));
  test_support::ProjectionCheckedController policy(WireOptions{},
                                                   check_invariants_and_cap);
  run_differential(Scenario::kHostileMix, seed, policy);
}

TEST(LookaheadProperties, InvariantsHoldAcrossPredictorsAndDags) {
  // Seeded sweep over random DAGs × predictor variants. The per-tick
  // invariant checks run inside the checked controller, so driving a run to
  // completion sweeps them over every reachable wavefront shape.
  struct Variant {
    const char* label;
    WireOptions options;
  };
  std::vector<Variant> variants;
  variants.push_back({"online-median", {}});
  {
    WireOptions mean;
    mean.predictor.use_mean = true;
    variants.push_back({"online-mean", mean});
  }
  {
    WireOptions no_ogd;
    no_ogd.predictor.disable_ogd = true;
    variants.push_back({"online-no-ogd", no_ogd});
  }
  {
    WireOptions oracle;
    oracle.oracle_estimator = true;
    variants.push_back({"oracle", oracle});
  }

  for (const Variant& v : variants) {
    for (std::uint64_t seed : {11u, 12u}) {
      for (Scenario scenario :
           {Scenario::kReliable, Scenario::kRevocationHeavy}) {
        SCOPED_TRACE(std::string("predictor ") + v.label + " seed " +
                     std::to_string(seed) + " scenario " +
                     scenario_name(scenario));
        test_support::ProjectionCheckedController policy(
            v.options, check_invariants_and_cap);
        run_differential(scenario, seed, policy);
      }
    }
  }
}

TEST(LookaheadProperties, ReplayedSnapshotIsIdempotent) {
  // Benches replay the same snapshot into plan(); a projection that borrows
  // the RunState's counters must leave them exactly as found, so replaying
  // the tick into the same reused result and scratch reproduces it.
  const dag::Workflow wf = workload::linear_workflow(2, 4, 60.0);
  predict::TaskPredictor predictor(wf);
  RunState run_state;
  const CloudConfig config = scenario_config(Scenario::kReliable);

  MonitorSnapshot snap;
  snap.now = 300.0;
  snap.tasks.assign(wf.task_count(), sim::TaskObservation{});
  for (const dag::TaskSpec& t : wf.tasks()) {
    snap.tasks[t.id].input_mb = t.input_mb;
  }
  snap.incomplete_tasks = static_cast<std::uint32_t>(wf.task_count());
  snap.tasks[0].phase = TaskPhase::Completed;
  snap.tasks[0].exec_time = 60.0;
  snap.tasks[0].transfer_time = 1.0;
  --snap.incomplete_tasks;
  snap.tasks[1].phase = TaskPhase::Running;
  snap.tasks[1].ready_since = 250.0;
  snap.tasks[1].occupancy_start = 250.0;
  snap.tasks[1].elapsed = 50.0;
  snap.tasks[1].elapsed_exec = 49.0;
  snap.tasks[1].transfer_in_time = 1.0;
  snap.tasks[1].instance = 0;
  snap.tasks[2].phase = TaskPhase::Ready;
  snap.tasks[2].ready_since = 260.0;
  snap.tasks[3].phase = TaskPhase::Ready;
  snap.tasks[3].ready_since = 260.0;
  snap.ready_queue = {2, 3};
  sim::InstanceObservation inst;
  inst.id = 0;
  inst.time_to_next_charge = 80.0;
  inst.running_tasks = {1};
  inst.free_slots = 1;
  snap.instances.push_back(inst);

  predictor.observe(snap);
  run_state.update(wf, snap);
  const std::vector<std::uint32_t> preds = run_state.remaining_preds();

  const LookaheadResult reference =
      simulate_interval(wf, snap, predictor, config);
  ASSERT_GT(reference.projected_completions, 0u)
      << "the fixture must fire successors, or the borrow is never exercised";
  PlanScratch scratch;
  LookaheadResult reused;
  for (int replay = 0; replay < 2; ++replay) {
    SCOPED_TRACE("replay " + std::to_string(replay));
    simulate_interval(wf, snap, predictor, config, reused, &run_state,
                      &scratch);
    test_support::expect_lookahead_eq(reused, reference);
    EXPECT_EQ(run_state.remaining_preds(), preds)
        << "borrowed predecessor counters were not restored";
  }
}

TEST(LookaheadDedupe, RequeuedDrainingTaskAlreadyInReadyQueueProjectsOnce) {
  // The crash/refresh race: a task requeued off a draining instance is
  // already back in snapshot.ready_queue (phase Ready) while the instance's
  // stale row still lists it under running_tasks. Before the dedupe fix the
  // drain-requeue loop pushed it a second time — double dispatch, phantom
  // load, and a predecessor-underflow trip once both copies completed.
  // Execution times dwarf the lag so the dispatched task is still on its
  // slot at the horizon (a double dispatch would surface as two entries; a
  // task that completes inside the horizon legitimately leaves Q_task).
  const dag::Workflow wf = workload::linear_workflow(2, 2, 300.0);
  predict::TaskPredictor predictor(wf);
  MonitorSnapshot snap;
  snap.now = 100.0;
  snap.tasks.assign(wf.task_count(), sim::TaskObservation{});
  for (const dag::TaskSpec& t : wf.tasks()) {
    snap.tasks[t.id].input_mb = t.input_mb;
  }
  snap.incomplete_tasks = static_cast<std::uint32_t>(wf.task_count());
  snap.tasks[0].phase = TaskPhase::Completed;
  snap.tasks[0].exec_time = 300.0;
  snap.tasks[0].transfer_time = 0.5;
  --snap.incomplete_tasks;
  // Task 1: requeued (Ready, in the queue) but still listed on the draining
  // instance's stale row.
  snap.tasks[1].phase = TaskPhase::Ready;
  snap.tasks[1].ready_since = 95.0;
  snap.ready_queue = {1};
  sim::InstanceObservation draining;
  draining.id = 0;
  draining.draining = true;
  draining.time_to_next_charge = 10.0;
  draining.running_tasks = {1};  // stale
  snap.instances.push_back(draining);
  sim::InstanceObservation stable;
  stable.id = 1;
  stable.time_to_next_charge = 100.0;
  stable.free_slots = 2;
  snap.instances.push_back(stable);
  predictor.observe(snap);

  const sim::CloudConfig config = scenario_config(Scenario::kReliable);
  const LookaheadResult result =
      simulate_interval(wf, snap, predictor, config);
  std::size_t task1_count = 0;
  for (const UpcomingTask& u : result.upcoming) {
    if (u.task == 1) ++task1_count;
  }
  EXPECT_EQ(task1_count, 1u) << "requeued task projected twice";
  expect_lookahead_invariants(snap, result, config);
  // A genuinely stranded task (still observed Running on the draining
  // instance) is still requeued and projected.
  snap.ready_queue.clear();
  snap.tasks[1].phase = TaskPhase::Running;
  snap.tasks[1].occupancy_start = 95.0;
  snap.tasks[1].elapsed = 5.0;
  snap.tasks[1].instance = 0;
  const LookaheadResult stranded =
      simulate_interval(wf, snap, predictor, config);
  task1_count = 0;
  for (const UpcomingTask& u : stranded.upcoming) {
    if (u.task == 1) ++task1_count;
  }
  EXPECT_EQ(task1_count, 1u);
}

TEST(LookaheadAdaptiveHorizon, CapEngagesAndPreservesTheRunByteForByte) {
  // A wide stage overloading a small site: hundreds of queued tasks against
  // a 3-instance ceiling. With the cap on, the queue tail is truncated once
  // Algorithm 3's pool size saturates the ceiling — and the whole run must
  // still reproduce byte-for-byte, because the clamped steering decision
  // never changes (the unclamped demand signal saturates, which single-
  // tenant runs do not consume).
  const dag::Workflow wf = workload::linear_workflow(2, 200, 300.0);
  CloudConfig config;
  config.lag_seconds = 60.0;
  config.charging_unit_seconds = 300.0;
  config.slots_per_instance = 2;
  config.max_instances = 3;
  sim::RunOptions options;
  options.seed = 7;
  options.initial_instances = 1;

  WireController plain;
  const sim::RunResult base = sim::simulate(wf, plain, config, options);

  WireOptions capped_options;
  capped_options.adaptive_horizon = true;
  test_support::ProjectionCheckedController capped(capped_options);
  const sim::RunResult capped_result =
      sim::simulate(wf, capped, config, options);

  EXPECT_GT(capped.capped_ticks(), 0u)
      << "overload scenario never engaged the cap";
  EXPECT_GT(capped.truncated_tasks(), 0u);
  EXPECT_EQ(capped_result.makespan, base.makespan);
  EXPECT_EQ(capped_result.cost_units, base.cost_units);
  EXPECT_EQ(capped_result.control_ticks, base.control_ticks);
  EXPECT_EQ(capped_result.task_restarts, base.task_restarts);
}

}  // namespace
}  // namespace wire::core
