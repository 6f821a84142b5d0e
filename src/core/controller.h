// The WIRE controller: the paper's MAPE loop (Fig. 1).
//
// Each control interval: Monitor (harvest the snapshot through the task
// predictor), Analyze (update the per-stage models), Plan (lookahead
// simulation + resource-steering policy), Execute (return the pool command to
// the cloud API). The controller is a ScalingPolicy, so the same run driver
// executes WIRE and every baseline under identical conditions.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/lookahead.h"
#include "core/plan_scratch.h"
#include "core/run_state.h"
#include "predict/bandit.h"
#include "predict/estimator.h"
#include "predict/history.h"
#include "predict/memory_predictor.h"
#include "predict/task_predictor.h"
#include "sim/scaling_policy.h"

namespace wire::core {

struct WireOptions {
  predict::PredictorConfig predictor;
  /// Ablation: skip the DAG lookahead; the upcoming load is just the tasks
  /// active right now with their predicted remaining occupancy (degrades
  /// WIRE toward a model-informed reactive policy).
  bool disable_lookahead = false;
  /// Experiment: replace the online predictor with the clairvoyant
  /// OracleEstimator (DAG reference times). Quantifies how much of WIRE's
  /// behaviour is limited by prediction accuracy (§IV-E robustness claim).
  bool oracle_estimator = false;
  /// Experiment: replace the online predictor with a Jockey-style
  /// HistoryEstimator built from this prior run (Observation 2 study).
  /// Shared so a whole experiment matrix can reuse one archive. Takes
  /// precedence below oracle_estimator.
  std::shared_ptr<const std::vector<predict::HistoryRecord>> history;
  /// Improvement over the paper: when the plan calls for growth and
  /// instances are currently draining toward their charge boundary, cancel
  /// drains instead of booting new instances — reclaimed capacity is
  /// instant and its charging unit is already running. Off by default
  /// (fidelity to Algorithm 2); the ablation bench measures it.
  bool reclaim_draining = false;
  /// Adaptive horizon capping (simulate_interval's `adaptive_horizon`):
  /// stop emitting Q_task's queue tail once Algorithm 3's pool size provably
  /// saturates the binding instance ceiling. Steering decisions are
  /// unchanged; the unclamped demand signal (PoolCommand::desired_pool)
  /// saturates at >= the ceiling instead of being exact, so this defaults
  /// off and must stay off for multi-tenant runs whose arbiter consumes that
  /// signal. With the bandit on, each arm carries its own setting, applied
  /// on arm switches.
  bool adaptive_horizon = false;
  /// Optional shared Plan scratch arena. When non-null, this controller's
  /// lookahead projects on these buffers instead of its own — the ensemble
  /// path hands N tenant controllers ONE arena (they are stepped strictly
  /// sequentially; see plan_scratch.h for the contract). Null keeps a
  /// per-controller arena. Bit-identical either way.
  std::shared_ptr<PlanScratch> plan_scratch;
  /// Report the projected memory footprint of the upcoming load (sum of
  /// Q_task reservations) as PoolCommand::desired_mem_mb — the second axis
  /// of the multi-tenant demand signal (ensemble memory-aware arbitration).
  /// Off by default: the field stays 0 and every baseline is byte-identical.
  /// No effect when the run's memory dimension is off.
  bool report_memory_demand = false;
  /// Online predictor selection (predict/bandit.h): a seeded bandit over a
  /// small arm set of predictor configurations, scored by per-tick
  /// misprediction regret and switched between control ticks through
  /// TaskPredictor::reconfigure. `bandit.arms == 0` (the default) is the
  /// off sentinel — no selector, no RNG stream, byte-identical to every
  /// baseline. Only meaningful with the online predictor; ignored under
  /// oracle_estimator / history (their estimates have no learned config to
  /// select among).
  predict::BanditOptions bandit;
};

// --- Benchmark compatibility block -------------------------------------
// The benchmark probe (wirebench/probe.cpp) reads five names left over from
// the retired incremental Analyze cache: AnalyzePath::kIncremental,
// MapeTrace::analyze_path, MapeTrace::plan_stamped, LookaheadCacheStats'
// memo_hits/memo_misses and WireController::lookahead_stats(). The
// controller has one Analyze path (simulate_interval) and one Plan path
// (steer), so they hold constants: analyze_path is never kIncremental,
// plan_stamped is false and both counters are zero. Delete the block with
// the benchmark's core.incremental_ratio, core.stamped_ratio and
// core.memo_hit_ratio metrics.
enum class AnalyzePath : std::uint8_t { kIncremental, kFromScratch };
struct LookaheadCacheStats {
  std::uint64_t memo_hits = 0;
  std::uint64_t memo_misses = 0;
};
// --- end of the benchmark compatibility block --------------------------

/// Per-iteration trace record (consumed by the overhead bench and tests).
struct MapeTrace {
  sim::SimTime now = 0.0;
  std::size_t upcoming_tasks = 0;
  /// Sum of predicted remaining occupancy over Q_task (seconds).
  double upcoming_load_seconds = 0.0;
  /// Algorithm 3's planned pool size p.
  std::uint32_t planned_pool = 0;
  std::uint32_t grow = 0;
  std::uint32_t releases = 0;
  /// Constants for the benchmark compatibility block above.
  AnalyzePath analyze_path = AnalyzePath::kFromScratch;
  bool plan_stamped = false;
};

class WireController final : public sim::ScalingPolicy {
 public:
  explicit WireController(const WireOptions& options = {});

  std::string name() const override {
    if (options_.oracle_estimator) return "wire-oracle";
    if (options_.history) return "wire-history";
    if (options_.bandit.enabled()) return "wire-bandit";
    return "wire";
  }
  void on_run_start(const dag::Workflow& workflow,
                    const sim::CloudConfig& config) override;
  sim::PoolCommand plan(const sim::MonitorSnapshot& snapshot) override;

  /// Observer invoked after every MAPE iteration (optional).
  void set_trace_listener(std::function<void(const MapeTrace&)> listener) {
    trace_listener_ = std::move(listener);
  }

  /// The live estimator (valid between on_run_start and run end).
  const predict::Estimator& estimator() const;

  /// The live online predictor; requires the default (non-oracle) estimator.
  const predict::TaskPredictor& predictor() const;

  /// Always zero: see the benchmark compatibility block above.
  LookaheadCacheStats lookahead_stats() const { return {}; }

  /// The last plan() call's projection (Q_task, restart costs); empty before
  /// the first tick. Valid until the next plan() call.
  const LookaheadResult& lookahead() const { return lookahead_; }

  /// The incomplete-predecessor counts the projection borrows; between
  /// plan() calls, equal to a fresh derivation from the last snapshot (not
  /// maintained under disable_lookahead).
  const RunState& run_state() const { return run_state_; }

  /// The live memory predictor, or null when the run's memory dimension is
  /// off (valid between on_run_start and run end).
  const predict::MemoryPredictor* memory_predictor() const {
    return memory_.get();
  }

  /// The live bandit selector, or null when `options.bandit` is off (or the
  /// estimator is oracle/history). Valid between on_run_start and run end.
  const predict::BanditSelector* bandit() const { return selector_.get(); }

  /// Algorithm 3's unclamped planned pool size from the last plan() call
  /// (0 until the first tick) — the anchor of the burn projection below.
  std::uint32_t last_planned_pool() const { return last_planned_pool_; }

  /// Projected billing burn of holding the last planned pool over the next
  /// `horizon` seconds: charging units newly starting in (now, now +
  /// horizon], per core::planned_burn_units. This is the spend-rate signal
  /// budget enforcement consumes — what the plan will cost before the money
  /// is gone, not after (policies::BudgetPolicy, DESIGN.md §4.16).
  double planned_burn_units(const sim::MonitorSnapshot& snapshot,
                            double horizon) const;

  /// Controller state footprint in bytes (§IV-F overhead accounting).
  std::size_t state_bytes() const;

 private:
  WireOptions options_;
  const dag::Workflow* workflow_ = nullptr;
  sim::CloudConfig config_;
  std::unique_ptr<predict::Estimator> estimator_;
  /// Non-null iff the estimator is the online TaskPredictor.
  predict::TaskPredictor* online_ = nullptr;
  /// Online predictor selection; non-null iff options_.bandit is enabled
  /// and the estimator is the online predictor.
  std::unique_ptr<predict::BanditSelector> selector_;
  /// Online memory-reservation predictor; constructed iff the run's
  /// MemoryConfig is enabled (null otherwise — the memory dimension then
  /// costs the controller nothing, not even a branch per task).
  std::unique_ptr<predict::MemoryPredictor> memory_;
  /// Incomplete-predecessor counts for the lookahead, kept current in
  /// O(changes) per tick from the snapshot's delta journal and lent to
  /// simulate_interval, which restores them before returning.
  RunState run_state_;
  /// This tick's projection, filled in place so its buffers persist across
  /// ticks.
  LookaheadResult lookahead_;
  /// The Plan scratch arena: options_.plan_scratch when shared, else owned.
  /// Never null.
  std::shared_ptr<PlanScratch> scratch_;
  /// The live adaptive-horizon setting: options_.adaptive_horizon, or the
  /// bandit's current arm's.
  bool adaptive_horizon_ = false;
  std::function<void(const MapeTrace&)> trace_listener_;
  std::uint32_t last_planned_pool_ = 0;
};

}  // namespace wire::core
