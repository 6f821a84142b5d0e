// Per-tick differential check of the WIRE controller's Analyze phase,
// shared by the lookahead, memory and bandit chaos suites.
//
// The controller runs simulate_interval with one optimisation: it lends its
// RunState's predecessor counters (undo-logged, restored before returning)
// and reuses one LookaheadResult and one scratch arena across ticks.
// ProjectionCheckedController wraps a real WireController and, after every
// plan(), checks that optimisation against the plain computation:
//   - the controller's projection equals a fresh, self-seeded
//     simulate_interval(..., state = nullptr) bit for bit (every Q_task
//     entry, restart cost and counter, compared with exact double equality);
//   - the RunState counters the projection borrowed equal a fresh derivation
//     from the snapshot, i.e. every decrement was undone;
//   - the command equals steer() run on the fresh projection.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "core/controller.h"
#include "core/lookahead.h"
#include "core/run_state.h"
#include "core/steering.h"
#include "predict/bandit.h"
#include "sim/scaling_policy.h"

namespace wire::test_support {

inline void expect_lookahead_eq(const core::LookaheadResult& got,
                                const core::LookaheadResult& want) {
  ASSERT_EQ(got.upcoming.size(), want.upcoming.size());
  for (std::size_t i = 0; i < got.upcoming.size(); ++i) {
    SCOPED_TRACE("upcoming entry " + std::to_string(i));
    EXPECT_EQ(got.upcoming[i].task, want.upcoming[i].task);
    // Bitwise double equality: EXPECT_EQ, not EXPECT_DOUBLE_EQ — ulp drift
    // on the time or the memory axis is exactly the bug class to catch.
    EXPECT_EQ(got.upcoming[i].remaining_occupancy,
              want.upcoming[i].remaining_occupancy);
    EXPECT_EQ(got.upcoming[i].on_slot, want.upcoming[i].on_slot);
    EXPECT_EQ(got.upcoming[i].mem_mb, want.upcoming[i].mem_mb);
  }
  EXPECT_EQ(got.projected_completions, want.projected_completions);
  EXPECT_EQ(got.truncated_tasks, want.truncated_tasks);
  ASSERT_EQ(got.restart_cost.size(), want.restart_cost.size());
  for (const auto& [inst, cost] : want.restart_cost) {
    const auto it = got.restart_cost.find(inst);
    ASSERT_NE(it, got.restart_cost.end()) << "missing instance " << inst;
    EXPECT_EQ(it->second, cost) << "restart cost drift on instance " << inst;
  }
}

/// Grow, drain-cancel and release decisions (what the engine acts on).
inline void expect_steering_eq(const sim::PoolCommand& got,
                               const sim::PoolCommand& want) {
  EXPECT_EQ(got.grow, want.grow);
  EXPECT_EQ(got.cancel_drains, want.cancel_drains);
  ASSERT_EQ(got.releases.size(), want.releases.size());
  for (std::size_t i = 0; i < got.releases.size(); ++i) {
    EXPECT_EQ(got.releases[i].instance, want.releases[i].instance);
    EXPECT_EQ(got.releases[i].at_charge_boundary,
              want.releases[i].at_charge_boundary);
  }
}

/// One checked control tick, handed to a suite's extra assertions.
struct CheckedTick {
  const dag::Workflow& workflow;
  const sim::MonitorSnapshot& snapshot;
  const sim::CloudConfig& config;
  const core::WireController& controller;
  /// The fresh self-seeded projection (equal to the controller's).
  const core::LookaheadResult& reference;
  const sim::PoolCommand& command;
};

class ProjectionCheckedController final : public sim::ScalingPolicy {
 public:
  using TickCheck = std::function<void(const CheckedTick&)>;

  explicit ProjectionCheckedController(const core::WireOptions& options = {},
                                       TickCheck extra = {})
      : options_(options), controller_(options), extra_(std::move(extra)) {}

  std::string name() const override { return "wire-projection-checked"; }

  void on_run_start(const dag::Workflow& workflow,
                    const sim::CloudConfig& config) override {
    workflow_ = &workflow;
    config_ = config;
    controller_.on_run_start(workflow, config);
  }

  sim::PoolCommand plan(const sim::MonitorSnapshot& snapshot) override {
    const sim::PoolCommand cmd = controller_.plan(snapshot);
    ++ticks_;
    SCOPED_TRACE("tick at t=" + std::to_string(snapshot.now));

    // After the controller's plan() the estimator (and memory predictor)
    // hold exactly the state its projection read, and the bandit's current
    // arm is the one that tick ran under.
    const predict::BanditSelector* bandit = controller_.bandit();
    const bool capped =
        bandit != nullptr ? bandit->arm(bandit->current()).adaptive_horizon
                          : options_.adaptive_horizon;
    const core::LookaheadResult reference = core::simulate_interval(
        *workflow_, snapshot, controller_.estimator(), config_,
        /*state=*/nullptr, /*scratch=*/nullptr,
        controller_.memory_predictor(), capped);
    expect_lookahead_eq(controller_.lookahead(), reference);

    core::RunState fresh;
    fresh.update(*workflow_, snapshot);
    EXPECT_EQ(controller_.run_state().remaining_preds(),
              fresh.remaining_preds())
        << "the projection left borrowed predecessor counters modified";

    std::uint32_t planned = 0;
    const sim::PoolCommand want =
        core::steer(reference, snapshot, config_, &planned,
                    options_.reclaim_draining);
    EXPECT_EQ(controller_.last_planned_pool(), planned);
    EXPECT_EQ(cmd.desired_pool, want.desired_pool);
    expect_steering_eq(cmd, want);

    if (reference.truncated_tasks > 0) {
      ++capped_ticks_;
      truncated_tasks_ += reference.truncated_tasks;
    }
    if (extra_) {
      extra_(CheckedTick{*workflow_, snapshot, config_, controller_,
                         reference, cmd});
    }
    return cmd;
  }

  const core::WireController& controller() const { return controller_; }
  std::uint64_t ticks() const { return ticks_; }
  /// Ticks on which the adaptive horizon cap truncated Q_task, and the
  /// queue-tail entries it omitted in total.
  std::uint64_t capped_ticks() const { return capped_ticks_; }
  std::uint64_t truncated_tasks() const { return truncated_tasks_; }

 private:
  core::WireOptions options_;
  core::WireController controller_;
  TickCheck extra_;
  const dag::Workflow* workflow_ = nullptr;
  sim::CloudConfig config_;
  std::uint64_t ticks_ = 0;
  std::uint64_t capped_ticks_ = 0;
  std::uint64_t truncated_tasks_ = 0;
};

}  // namespace wire::test_support
