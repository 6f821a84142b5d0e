// The memory dimension's test suite: sizing algebra, the controller-side
// predictor, OOM-retry semantics, and the two identity contracts that make
// memory a safe second resource axis:
//
//   1. Memory OFF is byte-identical to the pre-memory implementation — the
//      MemoryConfig knobs are inert while instance_mem_mb == 0, and an
//      ample-capacity memory-ON run (where admission never blocks and OOM
//      never fires) reproduces the memory-off schedule bit-for-bit, because
//      both dispatchers pick the first ascending-id instance with a free
//      slot and the true-peak draws come from a private RNG stream.
//
//   2. Memory ON keeps the controller's projection exact: at EVERY control
//      tick, under fault chaos and memory pressure alike, the controller's
//      projection (RunState borrowed, result and scratch reused) — including
//      the per-entry reservation — equals a fresh self-seeded memory-aware
//      simulate_interval bitwise, and the steering command derived from
//      either is identical (projection_check.h).
//
// Every randomized test announces its seed via SCOPED_TRACE, and
// WIRE_FUZZ_SEED adds one environment-chosen chaos seed (DESIGN.md §4.10).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/controller.h"
#include "core/lookahead.h"
#include "core/run_state.h"
#include "core/steering.h"
#include "exp/settings.h"
#include "predict/memory_predictor.h"
#include "predict/task_predictor.h"
#include "projection_check.h"
#include "sim/driver.h"
#include "sim/engine.h"
#include "sim/memory.h"
#include "workload/generators.h"
#include "workload/profiles.h"

namespace wire {
namespace {

using core::LookaheadResult;
using core::UpcomingTask;
using dag::TaskId;
using sim::CloudConfig;
using sim::MemoryConfig;
using sim::MonitorSnapshot;
using sim::TaskPhase;

// ---------------------------------------------------------------------------
// Sizing algebra (sim/memory.h): the statistical core both sides share.
// ---------------------------------------------------------------------------

MemoryConfig tight_config(double cap_mb) {
  MemoryConfig config;
  config.instance_mem_mb = cap_mb;
  return config;
}

TEST(MemorySizing, ClampIsMonotoneFlooredAndCapped) {
  MemoryConfig config = tight_config(4096.0);
  config.min_reservation_mb = 64.0;
  config.upsize_factor = 2.0;
  // Monotone non-decreasing in the OOM count, for bases above and below the
  // floor.
  for (double base : {1.0, 40.0, 100.0, 700.0}) {
    double prev = 0.0;
    for (std::uint32_t ooms = 0; ooms <= 8; ++ooms) {
      const double res = sim::clamp_reservation(base, config, ooms);
      EXPECT_GE(res, prev) << "upsizing shrank base " << base << " at oom "
                           << ooms;
      EXPECT_GE(res, config.min_reservation_mb);
      EXPECT_LE(res, config.instance_mem_mb);
      prev = res;
    }
  }
  // Floor engages below it, exact growth above it, ceiling past the cap.
  EXPECT_EQ(sim::clamp_reservation(10.0, config, 0), 64.0);
  EXPECT_EQ(sim::clamp_reservation(100.0, config, 0), 100.0);
  EXPECT_EQ(sim::clamp_reservation(100.0, config, 1), 200.0);
  EXPECT_EQ(sim::clamp_reservation(100.0, config, 2), 400.0);
  EXPECT_EQ(sim::clamp_reservation(3000.0, config, 1), 4096.0);
}

TEST(MemorySizing, PercentilePicksTheCoveringSample) {
  MemoryConfig config = tight_config(1.0e6);
  config.sizing = MemoryConfig::Sizing::Percentile;
  config.safety_factor = 1.0;
  const std::vector<double> peaks = {10.0, 20.0, 30.0, 40.0, 50.0,
                                     60.0, 70.0, 80.0, 90.0, 100.0};
  // q = 0.95 over 10 samples: ceil(9.5) - 1 = index 9, the maximum.
  config.percentile = 0.95;
  EXPECT_EQ(sim::sized_from_history(peaks, config, 0.0, 0.0), 100.0);
  // q = 0.5: ceil(5) - 1 = index 4 (the smallest sample covering half).
  config.percentile = 0.5;
  EXPECT_EQ(sim::sized_from_history(peaks, config, 0.0, 0.0), 50.0);
  // q = 1.0 is the maximum; the safety factor multiplies on top.
  config.percentile = 1.0;
  config.safety_factor = 1.1;
  EXPECT_EQ(sim::sized_from_history(peaks, config, 0.0, 0.0), 100.0 * 1.1);
  // Mean sizing folds the sorted history.
  config.sizing = MemoryConfig::Sizing::Mean;
  config.safety_factor = 1.0;
  EXPECT_EQ(sim::sized_from_history(peaks, config, 0.0, 0.0), 55.0);
  // Oracle ignores the history entirely.
  config.sizing = MemoryConfig::Sizing::Oracle;
  config.safety_factor = 1.1;
  EXPECT_EQ(sim::sized_from_history(peaks, config, 0.0, 123.0), 123.0 * 1.1);
}

TEST(MemorySizing, SizerColdStartIsFairShareAndHistoryIsOrderInsensitive) {
  MemoryConfig config = tight_config(1000.0);
  config.sizing = MemoryConfig::Sizing::Percentile;
  config.percentile = 0.95;
  config.safety_factor = 1.0;
  config.min_reservation_mb = 64.0;
  sim::TaskMemorySizer cold(config, /*slots_per_instance=*/4,
                            /*stage_count=*/2);
  // No history: the fair share instance_mem_mb / slots (above the floor).
  EXPECT_EQ(cold.reservation_mb(0, 0.0, 0), 250.0);
  // default_mb overrides the fair share when set.
  MemoryConfig with_default = config;
  with_default.default_mb = 333.0;
  sim::TaskMemorySizer defaulted(with_default, 4, 2);
  EXPECT_EQ(defaulted.reservation_mb(0, 0.0, 0), 333.0);

  // Two sizers fed the same peaks in different orders agree bitwise (the
  // history is kept sorted; this is what lets the engine-side and the
  // controller-side observers converge on identical reservations).
  sim::TaskMemorySizer a(config, 4, 2);
  sim::TaskMemorySizer b(config, 4, 2);
  const std::vector<double> peaks = {512.0, 130.0, 470.0, 130.0, 260.0};
  for (double p : peaks) a.observe_peak(0, p);
  for (auto it = peaks.rbegin(); it != peaks.rend(); ++it) {
    b.observe_peak(0, *it);
  }
  for (std::uint32_t ooms = 0; ooms < 3; ++ooms) {
    EXPECT_EQ(a.reservation_mb(0, 0.0, ooms), b.reservation_mb(0, 0.0, ooms));
  }
  // Stage 1 saw nothing; it still sizes at the cold-start fair share.
  EXPECT_EQ(a.reservation_mb(1, 0.0, 0), 250.0);
}

// ---------------------------------------------------------------------------
// The controller-side MemoryPredictor mirrors the engine-side sizer.
// ---------------------------------------------------------------------------

TEST(MemoryPredictorTest, MirrorsEngineSizerAndHarvestsOnce) {
  const dag::Workflow wf = workload::linear_workflow(2, 2, 60.0);
  MemoryConfig config = tight_config(2048.0);
  config.sizing = MemoryConfig::Sizing::Percentile;
  predict::MemoryPredictor predictor(wf, config, /*slots_per_instance=*/4);

  MonitorSnapshot snap;
  snap.now = 120.0;
  snap.tasks.assign(wf.task_count(), sim::TaskObservation{});
  snap.incomplete_tasks = static_cast<std::uint32_t>(wf.task_count());

  const dag::StageId stage0 = wf.task(0).stage;
  EXPECT_EQ(predictor.total_refits(), 0u);
  EXPECT_EQ(predictor.stage_samples(stage0), 0u);

  // Cold start: every prediction is the sized-and-clamped fair share, and it
  // matches the engine-side sizer with the same (empty) history bitwise.
  sim::TaskMemorySizer sizer(config, 4, wf.stage_count());
  EXPECT_EQ(predictor.predict_reservation(0, snap),
            sizer.reservation_mb(stage0, wf.task(0).ref_peak_mem_mb, 0));

  // One completion reveals its peak; the harvest refits the stage exactly
  // once and is idempotent on a replayed snapshot.
  snap.tasks[0].phase = TaskPhase::Completed;
  snap.tasks[0].exec_time = 60.0;
  snap.tasks[0].peak_mem_mb = 612.0;
  --snap.incomplete_tasks;
  predictor.observe(snap);
  sizer.observe_peak(stage0, 612.0);
  EXPECT_EQ(predictor.stage_samples(stage0), 1u);
  EXPECT_EQ(predictor.total_refits(), 1u);
  predictor.observe(snap);  // replay: nothing new to ingest
  EXPECT_EQ(predictor.stage_samples(stage0), 1u);
  EXPECT_EQ(predictor.total_refits(), 1u);

  // The peer of the completed task now sizes from the one-sample history —
  // bitwise what the engine's sizer computes — including under upsizing.
  snap.tasks[1].phase = TaskPhase::Ready;
  snap.tasks[1].ready_since = 100.0;
  for (std::uint32_t ooms = 0; ooms < 3; ++ooms) {
    snap.tasks[1].oom_attempts = ooms;
    EXPECT_EQ(predictor.predict_reservation(1, snap),
              sizer.reservation_mb(stage0, wf.task(1).ref_peak_mem_mb, ooms));
  }
  snap.tasks[1].oom_attempts = 0;

  // A running task's booked reservation is observable, not predicted.
  snap.tasks[1].phase = TaskPhase::Running;
  snap.tasks[1].occupancy_start = 110.0;
  snap.tasks[1].mem_reservation_mb = 777.0;
  EXPECT_EQ(predictor.predict_reservation(1, snap), 777.0);

  // State accounting covers the harvested history it just accumulated.
  EXPECT_GT(predictor.state_bytes(), sizeof(predict::MemoryPredictor));
}

// ---------------------------------------------------------------------------
// Differential chaos suite: the controller's memory-aware projection == a
// fresh memory-aware reference, bitwise, at every control tick.
// ---------------------------------------------------------------------------

void expect_memory_invariants(const MonitorSnapshot& snap,
                              const LookaheadResult& result,
                              const CloudConfig& config) {
  for (const UpcomingTask& u : result.upcoming) {
    EXPECT_GE(u.mem_mb, 0.0);
    // Reservations are clamped to instance capacity (anything larger could
    // never be admitted and would deadlock both dispatchers).
    EXPECT_LE(u.mem_mb, config.memory.instance_mem_mb + 1e-9)
        << "task " << u.task << " projected above instance capacity";
  }
  // An observed-running task's projected reservation is the booked one.
  for (const sim::InstanceObservation& inst : snap.instances) {
    if (inst.draining || inst.revoking || inst.provisioning) continue;
    for (TaskId task : inst.running_tasks) {
      if (snap.tasks[task].phase != TaskPhase::Running) continue;
      for (const UpcomingTask& u : result.upcoming) {
        if (u.task != task || !u.on_slot) continue;
        EXPECT_EQ(u.mem_mb,
                  std::max(0.0, snap.tasks[task].mem_reservation_mb))
            << "running task " << task << " lost its booked reservation";
        break;
      }
    }
  }
}

/// The memory suite's per-tick extra: reservation invariants on the
/// projection the controller steered from.
void check_memory_invariants(const test_support::CheckedTick& tick) {
  WIRE_REQUIRE(tick.config.memory.enabled(),
               "the memory differential needs the memory dimension on");
  expect_memory_invariants(tick.snapshot, tick.reference, tick.config);
}

/// Fault chaos (mirrors the lookahead suite's scenarios).
enum class Faults { kHostileMix, kDropoutAlways, kReliable };

const char* faults_name(Faults f) {
  switch (f) {
    case Faults::kHostileMix:
      return "hostile-mix";
    case Faults::kDropoutAlways:
      return "dropout-always";
    case Faults::kReliable:
      return "reliable";
  }
  return "unknown";
}

/// Memory pressure: ample capacity (admission never blocks) vs a tight cap
/// that forces head-of-line blocking, OOM retries and quarantine.
enum class Pressure { kAmple, kTight };

const char* pressure_name(Pressure p) {
  return p == Pressure::kAmple ? "ample" : "tight";
}

CloudConfig memory_chaos_config(Faults faults, Pressure pressure) {
  CloudConfig config;
  config.lag_seconds = 30.0;
  config.charging_unit_seconds = 120.0;
  config.slots_per_instance = 2;
  config.max_instances = 6;
  config.retry.max_attempts = 3;
  config.retry.backoff_base_seconds = 5.0;
  config.retry.backoff_factor = 2.0;
  switch (faults) {
    case Faults::kHostileMix:
      config.faults.crash_rate_per_hour = 20.0;
      config.faults.crash_notice_seconds = 20.0;
      config.faults.provision_failure_prob = 0.2;
      config.faults.straggler_prob = 0.3;
      config.faults.straggler_lag_multiplier = 2.5;
      config.faults.task_failure_prob = 0.15;
      config.faults.monitor_dropout_prob = 0.2;
      break;
    case Faults::kDropoutAlways:
      config.faults.monitor_dropout_prob = 1.0;
      break;
    case Faults::kReliable:
      break;
  }
  // Mean task peak is ~600 MB (see run_memory_differential): ample capacity
  // fits both slots with headroom; the tight cap cannot even hold one
  // upsized task past ~900 MB, so some tasks quarantine through the OOM cap.
  config.memory.instance_mem_mb = pressure == Pressure::kAmple ? 4096.0
                                                               : 900.0;
  config.memory.noise_sigma = 0.3;
  return config;
}

void run_memory_differential(Faults faults, Pressure pressure,
                             std::uint64_t seed,
                             test_support::ProjectionCheckedController& policy) {
  workload::RandomDagOptions dag_options;
  dag_options.mean_peak_mem_mb = 600.0;
  const dag::Workflow wf = workload::random_layered(dag_options, seed);
  sim::RunOptions options;
  options.seed = seed + 101;
  options.initial_instances = 1;
  options.max_sim_seconds = 3.0e6;

  sim::JobEngine engine(wf, policy, memory_chaos_config(faults, pressure),
                        options);
  engine.start();
  std::uint64_t steps = 0;
  while (!engine.done()) {
    ASSERT_LT(steps, 400000u) << "memory differential failed to converge";
    engine.step();
    ++steps;
  }
}

class MemoryDifferential : public ::testing::TestWithParam<int> {};

TEST_P(MemoryDifferential, ControllerMatchesMemoryAwareReferenceAtEveryTick) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  for (Pressure pressure : {Pressure::kAmple, Pressure::kTight}) {
    for (Faults faults :
         {Faults::kHostileMix, Faults::kDropoutAlways, Faults::kReliable}) {
      SCOPED_TRACE(std::string("faults ") + faults_name(faults) +
                   " pressure " + pressure_name(pressure) + " seed " +
                   std::to_string(seed));
      test_support::ProjectionCheckedController policy(
          core::WireOptions{}, check_memory_invariants);
      run_memory_differential(faults, pressure, seed, policy);
      EXPECT_GT(policy.ticks(), 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemoryDifferential, ::testing::Range(0, 2));

TEST(MemoryDifferential, EnvironmentSeedRuns) {
  const char* env = std::getenv("WIRE_FUZZ_SEED");
  if (env == nullptr) GTEST_SKIP() << "WIRE_FUZZ_SEED not set";
  const std::uint64_t seed = std::strtoull(env, nullptr, 10);
  SCOPED_TRACE("WIRE_FUZZ_SEED=" + std::to_string(seed));
  std::printf("running memory differential with WIRE_FUZZ_SEED=%llu\n",
              static_cast<unsigned long long>(seed));
  test_support::ProjectionCheckedController policy(core::WireOptions{},
                                                   check_memory_invariants);
  run_memory_differential(Faults::kHostileMix, Pressure::kTight, seed,
                          policy);
}

// ---------------------------------------------------------------------------
// OOM-retry semantics on the ground-truth engine.
// ---------------------------------------------------------------------------

TEST(OomSemantics, KillsRetriesUpsizesAndQuarantinesExactlyOnce) {
  // Deliberate under-provisioning: ~600 MB peaks against a 250 MB cold-start
  // fair share (1000 MB / 4 slots). First attempts OOM, upsized retries
  // climb toward the capacity clamp; tasks whose true peak exceeds even the
  // full instance quarantine through max_oom_attempts.
  workload::RandomDagOptions dag_options;
  dag_options.mean_peak_mem_mb = 600.0;
  const dag::Workflow wf = workload::random_layered(dag_options, 42);
  CloudConfig config;
  config.lag_seconds = 60.0;
  config.charging_unit_seconds = 300.0;
  config.slots_per_instance = 4;
  config.max_instances = 6;
  config.memory.instance_mem_mb = 1000.0;
  config.memory.noise_sigma = 0.3;
  sim::RunOptions options;
  options.seed = 7;
  options.initial_instances = 1;

  core::WireController controller;
  const sim::RunResult result = sim::simulate(wf, controller, config, options);

  // The pressure is real: this scenario must actually exercise the machinery.
  EXPECT_GT(result.oom_kills, 0u) << "under-provisioned run never OOM-killed";

  // Exactly-once journaling: every kill is one OomKill event, the trace's
  // per-task attempt numbers count 1..k with no gaps or repeats, and the
  // result counter equals both the journal and the per-task records.
  std::map<TaskId, std::uint32_t> ooms_seen;
  std::uint32_t journaled = 0;
  for (const sim::FaultEvent& e : result.fault_trace) {
    if (e.kind != sim::FaultKind::OomKill) continue;
    ++journaled;
    const TaskId task = e.subject;
    EXPECT_EQ(e.attempt, ooms_seen[task] + 1)
        << "task " << task << " OOM attempts not consecutive";
    ooms_seen[task] = e.attempt;
    EXPECT_GT(e.detail, 0.0) << "OomKill journaled without its true peak";
  }
  EXPECT_EQ(result.oom_kills, journaled);
  std::uint32_t from_records = 0;
  for (const sim::TaskRuntime& rt : result.task_records) {
    from_records += rt.oom_attempts;
  }
  EXPECT_EQ(result.oom_kills, from_records);

  // Per-task outcome: every OOM-killed task either eventually completed on a
  // reservation covering its true peak, or was quarantined at the cap.
  std::vector<bool> quarantined(wf.task_count(), false);
  for (TaskId t : result.quarantined_tasks) quarantined[t] = true;
  for (TaskId t = 0; t < static_cast<TaskId>(wf.task_count()); ++t) {
    const sim::TaskRuntime& rt = result.task_records[t];
    EXPECT_EQ(rt.oom_attempts, ooms_seen.count(t) ? ooms_seen[t] : 0u);
    if (rt.phase == TaskPhase::Completed && rt.true_peak_mem_mb >= 0.0) {
      // Survival means the final attempt's reservation held the peak.
      EXPECT_GE(rt.mem_reservation_mb, rt.true_peak_mem_mb)
          << "task " << t << " completed above its reservation";
    }
    if (rt.oom_attempts >= config.memory.max_oom_attempts) {
      EXPECT_TRUE(quarantined[t])
          << "task " << t << " exhausted OOM retries but escaped quarantine";
    }
    if (rt.oom_attempts > 0 && !quarantined[t]) {
      EXPECT_EQ(rt.phase, TaskPhase::Completed)
          << "OOM-killed task " << t << " neither completed nor quarantined";
    }
  }

  // Wastage accounting: every successful attempt reserved at least its true
  // peak, so the reserved integral dominates the clairvoyant one.
  EXPECT_GT(result.mem_reserved_mb_seconds, 0.0);
  EXPECT_GT(result.mem_used_mb_seconds, 0.0);
  EXPECT_GE(result.mem_reserved_mb_seconds, result.mem_used_mb_seconds);
}

// ---------------------------------------------------------------------------
// Memory-off bit-identity: the knobs are inert while instance_mem_mb == 0,
// and ample capacity reproduces the memory-off schedule exactly.
// ---------------------------------------------------------------------------

void expect_run_result_bitwise_eq(const sim::RunResult& got,
                                  const sim::RunResult& want) {
  EXPECT_EQ(got.makespan, want.makespan);
  EXPECT_EQ(got.cost_units, want.cost_units);
  EXPECT_EQ(got.ready_instance_seconds, want.ready_instance_seconds);
  EXPECT_EQ(got.busy_slot_seconds, want.busy_slot_seconds);
  EXPECT_EQ(got.wasted_slot_seconds, want.wasted_slot_seconds);
  EXPECT_EQ(got.utilization, want.utilization);
  EXPECT_EQ(got.peak_instances, want.peak_instances);
  EXPECT_EQ(got.task_restarts, want.task_restarts);
  EXPECT_EQ(got.control_ticks, want.control_ticks);
  EXPECT_EQ(sim::render_fault_trace(got.fault_trace),
            sim::render_fault_trace(want.fault_trace));
}

TEST(MemoryOffBitIdentity, PerturbedKnobsAreInertOnTableOne) {
  // A Table-I baseline run (which carries a memory profile in its stages)
  // with every MemoryConfig knob perturbed — but the capacity master switch
  // at 0 — must be byte-identical to the default-config run: with memory
  // off, no mem RNG stream is seeded, no reservation is sized, no predictor
  // is constructed, and no code path reads the remaining knobs.
  const dag::Workflow wf =
      workload::make_workflow(workload::tpch6_profile(workload::Scale::Small),
                              7);
  const CloudConfig base_config = exp::paper_cloud(900.0);
  sim::RunOptions options;
  options.seed = 11;
  options.initial_instances = 1;

  core::WireController base;
  const sim::RunResult want = sim::simulate(wf, base, base_config, options);
  EXPECT_EQ(base.memory_predictor(), nullptr);

  CloudConfig perturbed_config = base_config;
  perturbed_config.memory.instance_mem_mb = 0.0;  // the master switch
  perturbed_config.memory.noise_sigma = 0.7;
  perturbed_config.memory.sizing = MemoryConfig::Sizing::Mean;
  perturbed_config.memory.percentile = 0.5;
  perturbed_config.memory.safety_factor = 2.0;
  perturbed_config.memory.default_mb = 999.0;
  perturbed_config.memory.min_reservation_mb = 1.0;
  perturbed_config.memory.upsize_factor = 3.0;
  perturbed_config.memory.max_oom_attempts = 1;
  core::WireController perturbed;
  const sim::RunResult got =
      sim::simulate(wf, perturbed, perturbed_config, options);

  expect_run_result_bitwise_eq(got, want);
  EXPECT_EQ(got.oom_kills, 0u);
  EXPECT_EQ(got.mem_reserved_mb_seconds, 0.0);
  EXPECT_EQ(got.mem_used_mb_seconds, 0.0);
  for (const sim::TaskRuntime& rt : got.task_records) {
    EXPECT_LT(rt.mem_reservation_mb, 0.0);
    EXPECT_LT(rt.true_peak_mem_mb, 0.0);
    EXPECT_EQ(rt.oom_attempts, 0u);
  }
}

TEST(MemoryOffBitIdentity, AmpleCapacityReproducesTheMemoryOffSchedule) {
  // With capacity so large admission never blocks, no OOM ever fires
  // (noise-free oracle sizing reserves safety_factor × the true peak), and
  // the true-peak draws come from a private RNG stream, the memory-on run
  // must replay the memory-off schedule bit-for-bit: both dispatchers pick
  // the first ascending-id instance with a free slot, and the memory-aware
  // Algorithm 3 never hits its capacity retire condition.
  workload::RandomDagOptions dag_options;
  dag_options.mean_peak_mem_mb = 400.0;
  const dag::Workflow wf = workload::random_layered(dag_options, 5);
  CloudConfig config;
  config.lag_seconds = 60.0;
  config.charging_unit_seconds = 300.0;
  config.slots_per_instance = 4;
  config.max_instances = 6;
  sim::RunOptions options;
  options.seed = 13;
  options.initial_instances = 1;

  core::WireController off;
  const sim::RunResult want = sim::simulate(wf, off, config, options);

  CloudConfig ample = config;
  ample.memory.instance_mem_mb = 1.0e7;
  ample.memory.noise_sigma = 0.0;
  ample.memory.sizing = MemoryConfig::Sizing::Oracle;
  core::WireController on;
  const sim::RunResult got = sim::simulate(wf, on, ample, options);
  EXPECT_NE(on.memory_predictor(), nullptr);

  expect_run_result_bitwise_eq(got, want);
  EXPECT_EQ(got.oom_kills, 0u);
  EXPECT_TRUE(got.quarantined_tasks.empty());
  // The memory dimension was live: reservations were booked and integrated.
  EXPECT_GT(got.mem_reserved_mb_seconds, 0.0);
  EXPECT_GE(got.mem_reserved_mb_seconds, got.mem_used_mb_seconds);
}

}  // namespace
}  // namespace wire
