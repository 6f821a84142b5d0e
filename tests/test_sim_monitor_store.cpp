// Property/fuzz suite for the incremental MonitorStore (sim/monitor_store.*).
//
// The store is correct iff, at any observation point, the snapshot it
// maintains in O(changes) is field-for-field identical to the from-scratch
// O(total tasks) reconstruction (`JobEngine::rebuild_snapshot`, the seed
// implementation kept as the reference path). These tests drive fuzzed
// random_layered() runs through a chaos policy that restarts tasks
// (immediate releases), drains instances at charge boundaries, cancels
// drains, and suffers external cap changes — and assert the equivalence at
// every control tick *and* after every simulation event, plus the delta
// journal's contract (exact, sorted, deduplicated, derivable from
// consecutive snapshots). A final set of runs asserts that full paper-scale
// results are byte-stable and that peeking the monitor never perturbs a run.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "exp/settings.h"
#include "predict/memory_predictor.h"
#include "predict/task_predictor.h"
#include "sim/driver.h"
#include "sim/engine.h"
#include "sim/monitor.h"
#include "util/rng.h"
#include "workload/generators.h"
#include "workload/profiles.h"

namespace wire::sim {
namespace {

CloudConfig fuzz_cloud() {
  CloudConfig config;
  config.lag_seconds = 30.0;
  config.charging_unit_seconds = 120.0;
  config.slots_per_instance = 2;
  config.max_instances = 8;
  return config;
}

void expect_observation_eq(const TaskObservation& got,
                           const TaskObservation& want) {
  EXPECT_EQ(static_cast<int>(got.phase), static_cast<int>(want.phase));
  EXPECT_EQ(got.input_mb, want.input_mb);
  EXPECT_EQ(got.ready_since, want.ready_since);
  EXPECT_EQ(got.occupancy_start, want.occupancy_start);
  EXPECT_EQ(got.elapsed, want.elapsed);
  EXPECT_EQ(got.elapsed_exec, want.elapsed_exec);
  EXPECT_EQ(got.transfer_in_time, want.transfer_in_time);
  EXPECT_EQ(got.instance, want.instance);
  EXPECT_EQ(got.exec_time, want.exec_time);
  EXPECT_EQ(got.transfer_time, want.transfer_time);
  EXPECT_EQ(got.attempts, want.attempts);
  EXPECT_EQ(got.failed_attempts, want.failed_attempts);
  EXPECT_EQ(got.last_failed_elapsed, want.last_failed_elapsed);
}

void expect_instance_eq(const InstanceObservation& got,
                        const InstanceObservation& want) {
  EXPECT_EQ(got.id, want.id);
  EXPECT_EQ(got.provisioning, want.provisioning);
  EXPECT_EQ(got.ready_at, want.ready_at);
  EXPECT_EQ(got.time_to_next_charge, want.time_to_next_charge);
  EXPECT_EQ(got.draining, want.draining);
  EXPECT_EQ(got.revoking, want.revoking);
  EXPECT_EQ(got.revoke_at, want.revoke_at);
  EXPECT_EQ(got.running_tasks, want.running_tasks);
  EXPECT_EQ(got.free_slots, want.free_slots);
}

/// Field-for-field equality of the observation surface. The delta journal is
/// deliberately excluded: the reference rebuild carries an empty, non-exact
/// delta by contract.
void expect_snapshot_eq(const MonitorSnapshot& got,
                        const MonitorSnapshot& want) {
  EXPECT_EQ(got.now, want.now);
  EXPECT_EQ(got.incomplete_tasks, want.incomplete_tasks);
  EXPECT_EQ(got.pool_cap, want.pool_cap);
  EXPECT_EQ(got.ready_queue, want.ready_queue);
  ASSERT_EQ(got.tasks.size(), want.tasks.size());
  for (std::size_t t = 0; t < got.tasks.size(); ++t) {
    SCOPED_TRACE("task " + std::to_string(t));
    expect_observation_eq(got.tasks[t], want.tasks[t]);
  }
  ASSERT_EQ(got.instances.size(), want.instances.size());
  for (std::size_t i = 0; i < got.instances.size(); ++i) {
    SCOPED_TRACE("instance row " + std::to_string(i));
    expect_instance_eq(got.instances[i], want.instances[i]);
  }
}

/// A policy that (a) cross-checks every snapshot it receives against the
/// from-scratch rebuild and the delta contract, and (b) issues hostile
/// commands: immediate releases (task restarts), charge-boundary drains,
/// drain cancellations, and bursts of growth. `benign()` switches it to a
/// plain grow-to-3 mode so a fuzz run is guaranteed to finish.
class ChaosProbePolicy final : public ScalingPolicy {
 public:
  explicit ChaosProbePolicy(std::uint64_t seed) : rng_(seed) {}

  void bind(const JobEngine* engine) { engine_ = engine; }
  void benign() { benign_ = true; }
  std::uint32_t ticks() const { return ticks_; }
  std::uint32_t immediate_releases() const { return immediate_releases_; }
  std::uint32_t drains() const { return drains_; }
  const predict::TaskPredictor& predictor() const { return *predictor_; }

  std::string name() const override { return "chaos-probe"; }

  void on_run_start(const dag::Workflow& workflow,
                    const CloudConfig& /*config*/) override {
    workflow_ = &workflow;
    predictor_ = std::make_unique<predict::TaskPredictor>(workflow);
    // Baseline for the first delta: the engine's bootstrap state (roots
    // fired at t = 0, nothing dispatched, no instances journaled yet).
    prev_phase_.assign(workflow.task_count(), TaskPhase::Pending);
    for (dag::TaskId t = 0;
         t < static_cast<dag::TaskId>(workflow.task_count()); ++t) {
      if (workflow.predecessors(t).empty()) prev_phase_[t] = TaskPhase::Ready;
    }
    prev_instances_.clear();
  }

  PoolCommand plan(const MonitorSnapshot& snapshot) override {
    ++ticks_;
    verify_against_rebuild(snapshot);
    verify_delta(snapshot);
    verify_predictor_batching(snapshot);
    remember(snapshot);
    return next_command(snapshot);
  }

 private:
  void verify_against_rebuild(const MonitorSnapshot& snapshot) {
    ASSERT_NE(engine_, nullptr);
    SCOPED_TRACE("control tick at t=" + std::to_string(snapshot.now));
    expect_snapshot_eq(snapshot, engine_->rebuild_snapshot(snapshot.now));
  }

  /// Refit batching under restart churn: however bursty the tick's delta
  /// (the chaos commands restart whole instances, so one interval can
  /// complete many same-stage tasks at once), a harvest refits each touched
  /// stage once.
  void verify_predictor_batching(const MonitorSnapshot& snapshot) {
    const std::uint64_t before = predictor_->total_refits();
    std::vector<std::size_t> epochs_before(workflow_->stage_count());
    for (dag::StageId s = 0; s < workflow_->stage_count(); ++s) {
      epochs_before[s] = predictor_->stage_model(s).epochs();
    }
    predictor_->observe(snapshot);
    EXPECT_LE(predictor_->total_refits() - before, workflow_->stage_count())
        << "one observe refit a stage twice";
    for (dag::StageId s = 0; s < workflow_->stage_count(); ++s) {
      EXPECT_LE(predictor_->stage_model(s).epochs(), epochs_before[s] + 1)
          << "one observe ran two Algorithm-1 epochs on stage " << s;
    }
  }

  /// The journal must be exact, sorted, deduplicated, and derivable from the
  /// previous snapshot: `completed` is exactly the set of tasks that moved
  /// to Completed, `phase_changed` is a superset of every observed phase
  /// flip (a strict superset when a restart bounces a task Running -> Ready
  /// -> Running within one interval), and the instance lists replay the
  /// previous id set into the current one.
  void verify_delta(const MonitorSnapshot& snapshot) {
    const MonitorDelta& delta = snapshot.delta;
    ASSERT_TRUE(delta.exact);

    auto strictly_ascending = [](const std::vector<dag::TaskId>& v) {
      return std::adjacent_find(v.begin(), v.end(),
                                std::greater_equal<dag::TaskId>()) == v.end();
    };
    EXPECT_TRUE(strictly_ascending(delta.completed));
    EXPECT_TRUE(strictly_ascending(delta.phase_changed));
    EXPECT_TRUE(strictly_ascending(delta.failed));
    // This suite runs with fault injection disabled, so no task can have a
    // failed attempt (the fault chaos suite covers the populated case).
    EXPECT_TRUE(delta.failed.empty());

    std::vector<dag::TaskId> want_completed;
    for (std::size_t t = 0; t < snapshot.tasks.size(); ++t) {
      const dag::TaskId id = static_cast<dag::TaskId>(t);
      const TaskPhase cur = snapshot.tasks[t].phase;
      if (cur == TaskPhase::Completed && prev_phase_[t] != TaskPhase::Completed) {
        want_completed.push_back(id);
      }
      if (cur != prev_phase_[t]) {
        EXPECT_TRUE(std::binary_search(delta.phase_changed.begin(),
                                       delta.phase_changed.end(), id))
            << "task " << id << " changed phase but is not journaled";
      }
    }
    EXPECT_EQ(delta.completed, want_completed);
    for (dag::TaskId id : delta.completed) {
      EXPECT_TRUE(std::binary_search(delta.phase_changed.begin(),
                                     delta.phase_changed.end(), id))
          << "completed task " << id << " missing from phase_changed";
    }

    std::set<InstanceId> expected(prev_instances_.begin(),
                                  prev_instances_.end());
    for (InstanceId id : delta.instances_added) {
      EXPECT_TRUE(expected.insert(id).second)
          << "instance " << id << " journaled as added twice";
    }
    for (InstanceId id : delta.instances_removed) {
      EXPECT_EQ(expected.erase(id), 1u)
          << "instance " << id << " journaled as removed but never added";
    }
    std::set<InstanceId> current;
    for (const InstanceObservation& inst : snapshot.instances) {
      current.insert(inst.id);
    }
    EXPECT_EQ(current, expected);

    // instances_changed: the lifecycle-only diff against the previous exact
    // snapshot — exactly the ids whose membership or lifecycle fields
    // (provisioning, draining, revoking, ready_at, revoke_at) moved, in
    // ascending order. Rows that only changed load state (free_slots,
    // running_tasks, time_to_next_charge) must NOT be listed: a quiet list
    // means "the pool shape of the previous snapshot still stands".
    auto lifecycle_of = [](const InstanceObservation& inst) {
      return std::make_tuple(inst.provisioning, inst.draining, inst.revoking,
                             inst.ready_at, inst.revoke_at);
    };
    std::set<InstanceId> want_changed;
    std::map<InstanceId, LifecycleTuple> cur_lifecycle;
    for (const InstanceObservation& inst : snapshot.instances) {
      cur_lifecycle.emplace(inst.id, lifecycle_of(inst));
    }
    for (const auto& [id, prev] : prev_lifecycle_) {
      const auto it = cur_lifecycle.find(id);
      if (it == cur_lifecycle.end() || it->second != prev) {
        want_changed.insert(id);
      }
    }
    for (const auto& [id, cur] : cur_lifecycle) {
      if (prev_lifecycle_.find(id) == prev_lifecycle_.end()) {
        want_changed.insert(id);
      }
    }
    EXPECT_EQ(std::vector<InstanceId>(want_changed.begin(), want_changed.end()),
              delta.instances_changed);
    for (InstanceId id : delta.instances_added) {
      EXPECT_TRUE(std::binary_search(delta.instances_changed.begin(),
                                     delta.instances_changed.end(), id))
          << "added instance " << id << " missing from instances_changed";
    }
    for (InstanceId id : delta.instances_removed) {
      EXPECT_TRUE(std::binary_search(delta.instances_changed.begin(),
                                     delta.instances_changed.end(), id))
          << "removed instance " << id << " missing from instances_changed";
    }
  }

  void remember(const MonitorSnapshot& snapshot) {
    for (std::size_t t = 0; t < snapshot.tasks.size(); ++t) {
      prev_phase_[t] = snapshot.tasks[t].phase;
    }
    prev_instances_.clear();
    prev_lifecycle_.clear();
    for (const InstanceObservation& inst : snapshot.instances) {
      prev_instances_.push_back(inst.id);
      prev_lifecycle_.emplace(
          inst.id, std::make_tuple(inst.provisioning, inst.draining,
                                   inst.revoking, inst.ready_at,
                                   inst.revoke_at));
    }
  }

  PoolCommand next_command(const MonitorSnapshot& snapshot) {
    PoolCommand cmd;
    if (benign_) {
      const std::uint32_t live =
          static_cast<std::uint32_t>(snapshot.instances.size());
      if (live < 3) cmd.grow = 3 - live;
      return cmd;
    }
    std::vector<const InstanceObservation*> ready;
    std::vector<const InstanceObservation*> draining;
    for (const InstanceObservation& inst : snapshot.instances) {
      if (inst.draining) {
        draining.push_back(&inst);
      } else if (!inst.provisioning) {
        ready.push_back(&inst);
      }
    }
    switch (rng_.uniform_int(0, 5)) {
      case 0:
        cmd.grow = static_cast<std::uint32_t>(rng_.uniform_int(1, 3));
        break;
      case 1:  // Immediate release: kills the attempts on the instance.
        if (!ready.empty()) {
          const auto* victim = ready[static_cast<std::size_t>(
              rng_.uniform_int(0, static_cast<std::int64_t>(ready.size()) - 1))];
          cmd.releases.push_back(Release{victim->id, false});
          ++immediate_releases_;
        }
        break;
      case 2:  // Drain at the charge boundary.
        if (!ready.empty()) {
          const auto* victim = ready[static_cast<std::size_t>(
              rng_.uniform_int(0, static_cast<std::int64_t>(ready.size()) - 1))];
          cmd.releases.push_back(Release{victim->id, true});
          ++drains_;
        }
        break;
      case 3:  // Cancel every drain and grow on top.
        for (const auto* inst : draining) {
          cmd.cancel_drains.push_back(inst->id);
        }
        cmd.grow = 1;
        break;
      case 4:
        cmd.grow = 1;
        break;
      default:
        break;
    }
    if (snapshot.instances.empty()) cmd.grow = std::max(cmd.grow, 1u);
    return cmd;
  }

  using LifecycleTuple = std::tuple<bool, bool, bool, SimTime, SimTime>;

  util::Rng rng_;
  const JobEngine* engine_ = nullptr;
  const dag::Workflow* workflow_ = nullptr;
  std::unique_ptr<predict::TaskPredictor> predictor_;
  bool benign_ = false;
  std::uint32_t ticks_ = 0;
  std::uint32_t immediate_releases_ = 0;
  std::uint32_t drains_ = 0;
  std::vector<TaskPhase> prev_phase_;
  std::vector<InstanceId> prev_instances_;
  std::map<InstanceId, LifecycleTuple> prev_lifecycle_;
};

class MonitorStoreFuzz : public ::testing::TestWithParam<int> {};

TEST_P(MonitorStoreFuzz, StoreMatchesRebuildUnderChaos) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  SCOPED_TRACE("fuzz seed " + std::to_string(seed));
  const dag::Workflow wf =
      workload::random_layered(workload::RandomDagOptions{}, seed);
  ChaosProbePolicy policy(seed * 31 + 7);
  RunOptions options;
  options.seed = seed + 1;
  options.initial_instances = 1;
  options.max_sim_seconds = 3.0e7;

  JobEngine engine(wf, policy, fuzz_cloud(), options);
  policy.bind(&engine);
  engine.start();

  // External cap churn: cycle through every sentinel-relevant value,
  // including a transient genuine-zero share; the chaos window ends after a
  // bounded number of events so the run always completes.
  static constexpr std::uint32_t kCaps[] = {kNoInstanceCap, 6, 3, 1, 0};
  util::Rng cap_rng(seed * 977 + 13);
  std::uint64_t steps = 0;
  while (!engine.done()) {
    ASSERT_LT(steps, 80000u) << "fuzz run failed to converge";
    if (steps == 5000) {
      policy.benign();
      engine.set_instance_cap(kNoInstanceCap);
    } else if (steps < 5000 && steps % 97 == 0) {
      engine.set_instance_cap(kCaps[cap_rng.uniform_int(0, 4)]);
    }
    const SimTime t = engine.next_event_time();
    engine.step();
    ++steps;
    if (engine.done()) break;
    // Event-granularity equivalence: the peeked store view must match the
    // from-scratch rebuild between ticks too, not just when a control tick
    // publishes the journal.
    SCOPED_TRACE("after event at t=" + std::to_string(t));
    expect_snapshot_eq(engine.peek_monitor(t), engine.rebuild_snapshot(t));
  }

  const RunResult r = engine.result();
  EXPECT_EQ(r.task_records.size(), wf.task_count());
  for (const TaskRuntime& rec : r.task_records) {
    EXPECT_EQ(static_cast<int>(rec.phase),
              static_cast<int>(TaskPhase::Completed));
  }
  EXPECT_GE(policy.ticks(), 1u);
  // Refit accounting: restart churn completes tasks in bursts, yet the total
  // refit count stays bounded by ticks x stages (one per touched stage per
  // harvest), never by the completion count.
  EXPECT_LE(policy.predictor().total_refits(),
            static_cast<std::uint64_t>(policy.ticks()) * wf.stage_count());
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonitorStoreFuzz, ::testing::Range(0, 10));

// MemoryPredictor refit batching: one bursty exact delta completing many
// same-stage tasks is ONE stage refit, not one per task, and replaying the
// same snapshot refits nothing (harvest idempotence).
TEST(MonitorStore, BurstyDeltaBatchesMemoryRefits) {
  const dag::Workflow wf = workload::linear_workflow(/*stages=*/2,
                                                     /*width=*/4, 10.0);
  MemoryConfig mc;
  mc.instance_mem_mb = 4096.0;
  predict::MemoryPredictor predictor(wf, mc, /*slots_per_instance=*/2);

  // Burst: all four stage-0 tasks complete inside one control interval.
  MonitorSnapshot snap;
  snap.now = 100.0;
  snap.tasks.resize(wf.task_count());
  snap.delta.exact = true;
  for (dag::TaskId t = 0; t < static_cast<dag::TaskId>(wf.task_count()); ++t) {
    if (wf.task(t).stage != 0) continue;
    snap.tasks[t].phase = TaskPhase::Completed;
    snap.tasks[t].peak_mem_mb = 512.0 + static_cast<double>(t);
    snap.delta.completed.push_back(t);
  }
  predictor.observe(snap);
  EXPECT_EQ(predictor.stage_samples(0), 4u);
  EXPECT_EQ(predictor.total_refits(), 1u);

  // Replay: nothing new, nothing refit.
  predictor.observe(snap);
  EXPECT_EQ(predictor.stage_samples(0), 4u);
  EXPECT_EQ(predictor.total_refits(), 1u);

  // A second burst, completing the stage-1 tasks, refits stage 1 once and
  // leaves stage 0 alone.
  MonitorSnapshot snap2 = snap;
  snap2.now = 200.0;
  snap2.delta.completed.clear();
  for (dag::TaskId t = 0; t < static_cast<dag::TaskId>(wf.task_count()); ++t) {
    if (wf.task(t).stage != 1) continue;
    snap2.tasks[t].phase = TaskPhase::Completed;
    snap2.tasks[t].peak_mem_mb = 700.0;
    snap2.delta.completed.push_back(t);
  }
  predictor.observe(snap2);
  EXPECT_EQ(predictor.stage_samples(0), 4u);
  EXPECT_EQ(predictor.stage_samples(1), 4u);
  EXPECT_EQ(predictor.total_refits(), 2u);
}

// Restart-heavy determinism: peeking the monitor after every event (which
// refreshes the store-held snapshot and clears its published delta, but must
// never consume the pending journal) cannot perturb the run.
TEST(MonitorStore, PeekDoesNotPerturbTheRun) {
  const dag::Workflow wf = workload::random_layered(
      workload::RandomDagOptions{}, /*seed=*/42);
  RunOptions options;
  options.seed = 5;
  options.initial_instances = 2;

  auto run = [&](bool peek_every_event) {
    ChaosProbePolicy policy(/*seed=*/1234);
    JobEngine engine(wf, policy, fuzz_cloud(), options);
    policy.bind(&engine);
    engine.start();
    std::uint64_t steps = 0;
    while (!engine.done()) {
      if (steps++ == 3000) {
        policy.benign();
        engine.set_instance_cap(kNoInstanceCap);
      }
      const SimTime t = engine.next_event_time();
      engine.step();
      if (peek_every_event && !engine.done()) {
        (void)engine.peek_monitor(t);
        (void)engine.monitor_state_bytes();
      }
    }
    return engine.result();
  };

  const RunResult plain = run(false);
  const RunResult peeked = run(true);
  EXPECT_EQ(plain.makespan, peeked.makespan);
  EXPECT_EQ(plain.cost_units, peeked.cost_units);
  EXPECT_EQ(plain.busy_slot_seconds, peeked.busy_slot_seconds);
  EXPECT_EQ(plain.wasted_slot_seconds, peeked.wasted_slot_seconds);
  EXPECT_EQ(plain.task_restarts, peeked.task_restarts);
  EXPECT_EQ(plain.control_ticks, peeked.control_ticks);
  ASSERT_EQ(plain.task_records.size(), peeked.task_records.size());
  for (std::size_t t = 0; t < plain.task_records.size(); ++t) {
    EXPECT_EQ(plain.task_records[t].completed_at,
              peeked.task_records[t].completed_at);
    EXPECT_EQ(plain.task_records[t].exec_time,
              peeked.task_records[t].exec_time);
    EXPECT_EQ(plain.task_records[t].attempts,
              peeked.task_records[t].attempts);
  }
}

// The 8 Table-I paper runs must be byte-stable under the incremental
// pipeline: two identical WIRE runs produce bit-identical results down to
// the per-task kickstart records and the pool timeline. (The cross-refactor
// before/after comparison was established against the seed implementation's
// hexfloat output; this test pins the property going forward.)
TEST(MonitorStore, PaperRunsAreByteStable) {
  const std::vector<workload::WorkflowProfile> profiles = {
      workload::epigenomics_profile(workload::Scale::Small),
      workload::epigenomics_profile(workload::Scale::Large),
      workload::tpch1_profile(workload::Scale::Small),
      workload::tpch1_profile(workload::Scale::Large),
      workload::tpch6_profile(workload::Scale::Small),
      workload::tpch6_profile(workload::Scale::Large),
      workload::pagerank_profile(workload::Scale::Small),
      workload::pagerank_profile(workload::Scale::Large),
  };
  const CloudConfig site = exp::paper_cloud(900.0);
  for (const workload::WorkflowProfile& profile : profiles) {
    SCOPED_TRACE(profile.name);
    const dag::Workflow wf = workload::make_workflow(profile, 7);
    auto run = [&] {
      auto policy = exp::make_policy(exp::PolicyKind::Wire);
      RunOptions options;
      options.seed = 11;
      options.initial_instances =
          exp::initial_instances(exp::PolicyKind::Wire, site);
      options.record_pool_timeline = true;
      return simulate(wf, *policy, site, options);
    };
    const RunResult a = run();
    const RunResult b = run();
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.cost_units, b.cost_units);
    EXPECT_EQ(a.ready_instance_seconds, b.ready_instance_seconds);
    EXPECT_EQ(a.busy_slot_seconds, b.busy_slot_seconds);
    EXPECT_EQ(a.wasted_slot_seconds, b.wasted_slot_seconds);
    EXPECT_EQ(a.utilization, b.utilization);
    EXPECT_EQ(a.peak_instances, b.peak_instances);
    EXPECT_EQ(a.task_restarts, b.task_restarts);
    EXPECT_EQ(a.control_ticks, b.control_ticks);
    ASSERT_EQ(a.task_records.size(), b.task_records.size());
    for (std::size_t t = 0; t < a.task_records.size(); ++t) {
      EXPECT_EQ(a.task_records[t].completed_at, b.task_records[t].completed_at);
      EXPECT_EQ(a.task_records[t].exec_time, b.task_records[t].exec_time);
      EXPECT_EQ(a.task_records[t].transfer_in_time,
                b.task_records[t].transfer_in_time);
      EXPECT_EQ(a.task_records[t].attempts, b.task_records[t].attempts);
    }
    ASSERT_EQ(a.pool_timeline.size(), b.pool_timeline.size());
    for (std::size_t s = 0; s < a.pool_timeline.size(); ++s) {
      EXPECT_EQ(a.pool_timeline[s].time, b.pool_timeline[s].time);
      EXPECT_EQ(a.pool_timeline[s].live_instances,
                b.pool_timeline[s].live_instances);
      EXPECT_EQ(a.pool_timeline[s].ready_tasks,
                b.pool_timeline[s].ready_tasks);
      EXPECT_EQ(a.pool_timeline[s].running_tasks,
                b.pool_timeline[s].running_tasks);
    }
  }
}

}  // namespace
}  // namespace wire::sim
