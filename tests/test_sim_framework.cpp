// Tests for the framework master: ready-queue discipline (FIFO with the
// first-five-per-stage priority rule), task lifecycle transitions, slot
// bookkeeping, resubmission, and monitoring observations.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "dag/workflow.h"
#include "sim/framework.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace wire::sim {
namespace {

using dag::TaskId;

/// Chain a -> b plus an independent root c.
dag::Workflow make_small() {
  dag::WorkflowBuilder builder("small");
  const auto s0 = builder.add_stage("roots");
  const auto s1 = builder.add_stage("next");
  const TaskId a = builder.add_task(s0, "a", 1.0, 1.0, 5.0, {});
  builder.add_task(s1, "b", 1.0, 1.0, 5.0, {a});
  builder.add_task(s0, "c", 1.0, 1.0, 5.0, {});
  return builder.build();
}

TEST(FrameworkMaster, RootsStartReady) {
  const dag::Workflow wf = make_small();
  FrameworkMaster fm(wf);
  EXPECT_EQ(fm.ready_count(), 2u);
  EXPECT_EQ(fm.runtime(0).phase, TaskPhase::Ready);
  EXPECT_EQ(fm.runtime(1).phase, TaskPhase::Pending);
  EXPECT_EQ(fm.runtime(2).phase, TaskPhase::Ready);
}

TEST(FrameworkMaster, LifecycleTransitions) {
  const dag::Workflow wf = make_small();
  FrameworkMaster fm(wf);
  fm.register_instance(0, 4);
  const TaskId t = fm.pop_ready();
  EXPECT_EQ(t, 0u);

  fm.on_dispatch(t, 0, 0, 10.0);
  EXPECT_EQ(fm.runtime(t).phase, TaskPhase::Running);
  EXPECT_EQ(fm.free_slots(0), 3u);
  EXPECT_EQ(fm.runtime(t).attempts, 1u);

  fm.on_transfer_in_done(t, 12.0);
  EXPECT_DOUBLE_EQ(fm.runtime(t).transfer_in_time, 2.0);

  fm.on_exec_done(t, 17.0);
  EXPECT_DOUBLE_EQ(fm.runtime(t).exec_time, 5.0);

  const auto newly = fm.on_complete(t, 18.0);
  EXPECT_EQ(fm.runtime(t).phase, TaskPhase::Completed);
  EXPECT_DOUBLE_EQ(fm.runtime(t).transfer_out_time, 1.0);
  ASSERT_EQ(newly.size(), 1u);
  EXPECT_EQ(newly[0], 1u);  // b became ready
  EXPECT_EQ(fm.free_slots(0), 4u);
  EXPECT_DOUBLE_EQ(fm.busy_slot_seconds(), 8.0);
}

TEST(FrameworkMaster, AllCompleteAfterEveryTask) {
  const dag::Workflow wf = make_small();
  FrameworkMaster fm(wf);
  fm.register_instance(0, 4);
  double now = 0.0;
  while (!fm.all_complete()) {
    ASSERT_TRUE(fm.has_ready());
    const TaskId t = fm.pop_ready();
    const std::uint32_t slot = fm.take_free_slot(0);
    fm.on_dispatch(t, 0, slot, now);
    fm.on_transfer_in_done(t, now + 1.0);
    fm.on_exec_done(t, now + 6.0);
    fm.on_complete(t, now + 7.0);
    now += 10.0;
  }
  EXPECT_EQ(fm.completed_count(), 3u);
}

TEST(FrameworkMaster, ResubmissionRestartsTasks) {
  const dag::Workflow wf = make_small();
  FrameworkMaster fm(wf);
  fm.register_instance(0, 4);
  const TaskId t = fm.pop_ready();
  fm.on_dispatch(t, 0, 0, 0.0);
  fm.on_transfer_in_done(t, 1.0);

  const auto killed = fm.resubmit_tasks_on(0, 4.0);
  ASSERT_EQ(killed.size(), 1u);
  EXPECT_EQ(killed[0], t);
  EXPECT_EQ(fm.runtime(t).phase, TaskPhase::Ready);
  EXPECT_EQ(fm.total_restarts(), 1u);
  EXPECT_DOUBLE_EQ(fm.wasted_slot_seconds(), 4.0);
  EXPECT_EQ(fm.free_slots(0), 4u);

  // FIFO by ready time: the untouched root "c" (ready at 0) now precedes the
  // resubmitted task (re-enqueued at 4.0).
  EXPECT_EQ(fm.pop_ready(), 2u);
  const TaskId again = fm.pop_ready();
  EXPECT_EQ(again, t);
  fm.on_dispatch(again, 0, 0, 10.0);
  EXPECT_EQ(fm.runtime(again).attempts, 2u);
  fm.on_transfer_in_done(again, 11.0);
  fm.on_exec_done(again, 16.0);
  fm.on_complete(again, 17.0);
  EXPECT_EQ(fm.runtime(again).phase, TaskPhase::Completed);
}

TEST(FrameworkMaster, FirstFivePerStageJumpTheQueue) {
  // One wide stage whose tasks become ready at t=0 (roots), then a second
  // wide stage. The first five ready tasks of EACH stage get priority.
  const dag::Workflow wf = workload::linear_workflow(1, 12, 5.0, "wide");
  FrameworkMaster fm(wf);
  // All 12 are ready at time 0; the first five (by id) were promoted.
  int promoted = 0;
  for (TaskId t = 0; t < 12; ++t) {
    if (fm.runtime(t).high_priority) ++promoted;
  }
  EXPECT_EQ(promoted, 5);
  // Priority tasks pop first.
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(fm.runtime(fm.pop_ready()).high_priority);
  }
  for (int i = 0; i < 7; ++i) {
    EXPECT_FALSE(fm.runtime(fm.pop_ready()).high_priority);
  }
}

TEST(FrameworkMaster, PriorityBudgetIsPerStage) {
  // Two stages of 8: each stage gets its own 5 promotions.
  dag::WorkflowBuilder builder("two-stage");
  const auto s0 = builder.add_stage("s0");
  const auto s1 = builder.add_stage("s1");
  std::vector<TaskId> firsts;
  for (int i = 0; i < 8; ++i) {
    firsts.push_back(
        builder.add_task(s0, "a" + std::to_string(i), 1, 1, 1, {}));
  }
  for (int i = 0; i < 8; ++i) {
    builder.add_task(s1, "b" + std::to_string(i), 1, 1, 1, firsts);
  }
  const dag::Workflow wf = builder.build();
  FrameworkMaster fm(wf);
  fm.register_instance(0, 16);

  // Complete stage 0 entirely.
  while (fm.has_ready()) {
    const TaskId t = fm.pop_ready();
    const std::uint32_t slot = fm.take_free_slot(0);
    fm.on_dispatch(t, 0, slot, 0.0);
    fm.on_transfer_in_done(t, 1.0);
    fm.on_exec_done(t, 2.0);
    if (t < 8) fm.on_complete(t, 3.0);
  }
  // Stage-1 tasks became ready when the last stage-0 task completed; exactly
  // five of them were promoted.
  int promoted = 0;
  for (TaskId t = 8; t < 16; ++t) {
    if (fm.runtime(t).high_priority) ++promoted;
  }
  EXPECT_EQ(promoted, 5);
}

TEST(FrameworkMaster, ResubmittedPriorityTaskKeepsPriorityWithoutDoubleCount) {
  const dag::Workflow wf = workload::linear_workflow(1, 12, 5.0, "wide");
  FrameworkMaster fm(wf);
  fm.register_instance(0, 12);
  const TaskId t = fm.pop_ready();
  ASSERT_TRUE(fm.runtime(t).high_priority);
  fm.on_dispatch(t, 0, fm.take_free_slot(0), 0.0);
  fm.resubmit_tasks_on(0, 1.0);
  EXPECT_TRUE(fm.runtime(t).high_priority);
  // Still exactly five promoted in total.
  int promoted = 0;
  for (TaskId i = 0; i < 12; ++i) {
    if (fm.runtime(i).high_priority) ++promoted;
  }
  EXPECT_EQ(promoted, 5);
}

TEST(FrameworkMaster, ObservationsMirrorLifecycle) {
  const dag::Workflow wf = make_small();
  FrameworkMaster fm(wf);
  fm.register_instance(0, 4);
  const TaskId t = fm.pop_ready();
  fm.on_dispatch(t, 0, 0, 10.0);
  fm.on_transfer_in_done(t, 12.0);

  std::vector<TaskObservation> obs;
  fm.fill_observations(20.0, obs);
  ASSERT_EQ(obs.size(), 3u);
  EXPECT_EQ(obs[t].phase, TaskPhase::Running);
  EXPECT_DOUBLE_EQ(obs[t].elapsed, 10.0);
  EXPECT_DOUBLE_EQ(obs[t].elapsed_exec, 8.0);
  EXPECT_DOUBLE_EQ(obs[t].transfer_in_time, 2.0);
  EXPECT_EQ(obs[t].instance, 0u);
  EXPECT_EQ(obs[1].phase, TaskPhase::Pending);
  EXPECT_EQ(obs[2].phase, TaskPhase::Ready);
  // Completed record carries the kickstart fields.
  fm.on_exec_done(t, 15.0);
  fm.on_complete(t, 16.0);
  fm.fill_observations(20.0, obs);
  EXPECT_EQ(obs[t].phase, TaskPhase::Completed);
  EXPECT_DOUBLE_EQ(obs[t].exec_time, 3.0);
  EXPECT_DOUBLE_EQ(obs[t].transfer_time, 3.0);  // 2 in + 1 out
}

TEST(FrameworkMaster, InvalidTransitionsThrow) {
  const dag::Workflow wf = make_small();
  FrameworkMaster fm(wf);
  fm.register_instance(0, 4);
  EXPECT_THROW(fm.on_dispatch(1, 0, 0, 0.0), util::ContractViolation);
  const TaskId t = fm.pop_ready();
  fm.on_dispatch(t, 0, 0, 0.0);
  EXPECT_THROW(fm.on_dispatch(t, 0, 1, 0.0), util::ContractViolation);
  EXPECT_THROW(fm.on_complete(2, 1.0), util::ContractViolation);
}

/// Drives a master through a random interleaving of registrations,
/// dispatches, completions, transient faults, OOM kills and instance
/// releases, checking after every step that each registered instance's O(1)
/// free-slot count equals its slot count minus its occupants. Counts the
/// checks made after each kind of step into `checked`.
void run_free_slot_property(std::uint64_t seed,
                            std::map<std::string, int>& checked) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  workload::RandomDagOptions dag_options;
  dag_options.max_width = 16;
  const dag::Workflow wf = workload::random_layered(dag_options, seed);
  FrameworkMaster fm(wf);
  util::Rng rng(seed ^ 0x5107u);
  std::vector<std::uint32_t> slots;  // slot count per registered instance
  std::vector<TaskId> awaiting_retry;
  double now = 0.0;

  auto check = [&](const char* step) {
    ++checked[step];
    for (InstanceId id = 0; id < slots.size(); ++id) {
      ASSERT_EQ(fm.free_slots(id), slots[id] - fm.tasks_on(id).size())
          << "instance " << id << " after " << step;
    }
  };
  auto running = [&] {
    std::vector<TaskId> out;
    for (TaskId t = 0; t < wf.task_count(); ++t) {
      if (fm.runtime(t).phase == TaskPhase::Running) out.push_back(t);
    }
    return out;
  };

  for (int step = 0; step < 400 && !fm.all_complete(); ++step) {
    now += rng.uniform(0.0, 5.0);
    const std::int64_t action = rng.uniform_int(0, 9);
    if (slots.empty() || action == 0) {
      const auto n = static_cast<std::uint32_t>(rng.uniform_int(1, 4));
      fm.register_instance(static_cast<InstanceId>(slots.size()), n);
      slots.push_back(n);
      check("register");
    } else if (action <= 3) {
      if (!fm.has_ready()) continue;
      const auto id =
          static_cast<InstanceId>(rng.uniform_int(0, slots.size() - 1));
      if (fm.free_slots(id) == 0) continue;
      const double reservation =
          rng.bernoulli(0.5) ? rng.uniform(0.0, 512.0) : -1.0;
      fm.on_dispatch(fm.pop_ready(), id, fm.take_free_slot(id), now,
                     reservation);
      check("dispatch");
    } else if (action <= 7) {
      const std::vector<TaskId> live = running();
      if (live.empty()) continue;
      const TaskId t = live[rng.uniform_int(0, live.size() - 1)];
      const TaskRuntime& rt = fm.runtime(t);
      if (rt.exec_start < 0.0) {
        fm.on_transfer_in_done(t, now);
      } else if (rt.exec_time >= 0.0) {
        fm.on_complete(t, now);
        check("complete");
      } else if (action == 4) {
        fm.on_task_failed(t, now);
        awaiting_retry.push_back(t);
        check("fault");
      } else if (action == 5) {
        fm.on_task_oom(t, now);
        awaiting_retry.push_back(t);
        check("OOM kill");
      } else {
        fm.on_exec_done(t, now);
      }
    } else if (action == 8) {
      for (TaskId t : awaiting_retry) fm.requeue_failed(t, now);
      awaiting_retry.clear();
    } else {
      const auto id =
          static_cast<InstanceId>(rng.uniform_int(0, slots.size() - 1));
      fm.resubmit_tasks_on(id, now);
      check("resubmit_tasks_on");
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(FrameworkMaster, FreeSlotCountMatchesOccupancyUnderRandomLifecycles) {
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t s = 1; s <= 24; ++s) seeds.push_back(s);
  if (const char* env = std::getenv("WIRE_FUZZ_SEED")) {
    seeds.push_back(std::strtoull(env, nullptr, 10));
  }
  std::map<std::string, int> checked;
  for (std::uint64_t seed : seeds) {
    std::printf("free-slot property with seed %llu (replay: WIRE_FUZZ_SEED)\n",
                static_cast<unsigned long long>(seed));
    run_free_slot_property(seed, checked);
    if (HasFatalFailure()) return;
  }
  for (const char* step : {"register", "dispatch", "complete", "fault",
                           "OOM kill", "resubmit_tasks_on"}) {
    EXPECT_GT(checked[step], 0) << step << " never ran; the sweep is vacuous";
  }
}

}  // namespace
}  // namespace wire::sim
