// Timing taken from outside the program: a ScalingPolicy decorator that
// times every plan() call, the per-pass accumulator the decorators and the
// benchmark's own step loops write into, and the order statistics the
// report uses. Nothing here reaches into the libraries past their public
// headers.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/scaling_policy.h"

namespace wire::core {
class WireController;
}
namespace wire::policies {
class BudgetPolicy;
}

namespace wirebench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linear-interpolated quantile of `values` (copied, then sorted); 0 when
/// empty.
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);

/// The tail a sample set supports: the highest of p99 / p95 / p90 / p75 /
/// p50 with at least ten samples beyond it, or the maximum when even the
/// median has fewer than ten beyond it.
struct Tail {
  double percentile = 0.0;  // 100 = the maximum
  double value = 0.0;
  std::size_t samples = 0;
};
Tail tail(const std::vector<double>& values);

/// What one pass over a workload's job set observed from outside the
/// libraries. Untraced passes fill only the decision timings; traced passes
/// fill the per-layer accumulators too.
struct Probe {
  bool traced = false;

  // --- Untraced and traced ---
  /// Host microseconds of each outermost WIRE control decision.
  std::vector<double> plan_us;

  // --- Traced only ---
  /// plan() time of every outermost policy (WIRE or baseline): the part of
  /// a JobEngine::step() that is not the engine's own.
  double outer_plan_s = 0.0;
  std::uint64_t outer_plan_calls = 0;
  /// Policy minting and the outermost on_run_start (the controller builds
  /// its predictors and resets its lookahead there): the policy layers'
  /// set-up inside a job, kept out of the engine's self time.
  double start_s = 0.0;
  /// WireController::plan (the core layer).
  double wire_plan_s = 0.0;
  std::uint64_t wire_ticks = 0;
  std::uint64_t incremental_ticks = 0;
  std::uint64_t stamped_ticks = 0;
  std::uint64_t upcoming_tasks = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
  double controller_state_bytes = 0.0;  // summed over finished controllers
  double predictor_state_bytes = 0.0;
  std::uint64_t controllers = 0;
  std::uint64_t bandit_switches = 0;
  /// The estimate_exec probe over each tick's ready queue.
  std::uint64_t estimate_calls = 0;
  double estimate_s = 0.0;
  double estimate_sink = 0.0;  // keeps the probed values observable
  /// BudgetPolicy::plan, inner plan() included.
  double budget_plan_s = 0.0;
  std::uint64_t budget_ticks = 0;
  std::uint64_t budget_exhausted_runs = 0;
};

/// Decorates a policy with host-time measurement of plan(). The outermost
/// decorator of a job records the decision time; in a traced pass an inner
/// decorator may sit between a BudgetPolicy and its WireController so the
/// wrapper's own time can be separated. The decorator forwards every call
/// unchanged, so the decorated run is the undecorated run.
class TimedPolicy final : public wire::sim::ScalingPolicy {
 public:
  /// `decision`: this is the job's outermost policy and a WIRE decision
  /// (its plan() times go to Probe::plan_us). Baselines are decorated only
  /// in traced passes, with `decision` false and `outer` true.
  TimedPolicy(std::unique_ptr<wire::sim::ScalingPolicy> inner, Probe& probe,
              bool decision, bool outer);
  /// Reads the wrapped controller's end-of-run statistics into the probe.
  ~TimedPolicy() override;
  TimedPolicy(const TimedPolicy&) = delete;
  TimedPolicy& operator=(const TimedPolicy&) = delete;

  std::string name() const override { return inner_->name(); }
  void on_run_start(const wire::dag::Workflow& workflow,
                    const wire::sim::CloudConfig& config) override;
  wire::sim::PoolCommand plan(
      const wire::sim::MonitorSnapshot& snapshot) override;

 private:
  std::unique_ptr<wire::sim::ScalingPolicy> inner_;
  Probe& probe_;
  bool decision_;
  bool outer_;
  bool started_ = false;
  /// The WireController this decorator wraps directly, if any.
  wire::core::WireController* wire_ = nullptr;
  /// The BudgetPolicy this decorator wraps directly, if any.
  wire::policies::BudgetPolicy* budget_ = nullptr;
  /// The WireController whose predictor the outer decorator probes: wire_,
  /// or the one inside budget_.
  const wire::core::WireController* probed_ = nullptr;
};

}  // namespace wirebench
