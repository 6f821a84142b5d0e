// Online task-performance prediction (paper §III-B1 and §III-C).
//
// The predictor harvests monitoring snapshots once per MAPE iteration and
// maintains, per stage: the completed-task execution times, groups of
// completed tasks with equivalent input sizes, and an online gradient descent
// model (Algorithm 1). It estimates the execution time of an incomplete or
// unstarted task with the paper's five policies:
//
//   (1) no task of the stage has started          -> 0 (nothing is known)
//   (2) running tasks only                        -> median elapsed run time
//       ("conservatively presume the running tasks are about to complete")
//   (3) completed tasks exist, task not ready     -> median completed time
//   (4) completed tasks exist, task ready, input
//       size matches a completed group L          -> median time of L
//   (5) completed tasks exist, task ready, input
//       size unseen                               -> OGD model prediction
//
// Data-transfer time is estimated separately as the median of the transfer
// times observed in the most recent control interval (t̃_data, §III-B1),
// carrying the previous estimate through empty intervals.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "dag/workflow.h"
#include "predict/estimator.h"
#include "predict/ogd.h"
#include "sim/monitor.h"

namespace wire::predict {

struct PredictorConfig {
  /// Algorithm 1 learning rate.
  double learning_rate = 0.1;
  /// Relative tolerance for "equivalent input size" grouping (policy 4 and
  /// the OGD training-set groups): sizes within one geometric bucket of width
  /// (1 + tol) are the same group.
  double input_bucket_rel_tol = 0.02;
  /// Ablation: use the mean instead of the median everywhere the paper takes
  /// medians (the paper argues the median is the right centre for skewed
  /// distributions — this knob measures that choice).
  bool use_mean = false;
  /// Ablation: disable the OGD model; policy 5 falls back to the stage
  /// median (policy 3's estimate).
  bool disable_ogd = false;
  /// Ablation: harvest failed-attempt occupancy spans as if they were
  /// execution samples. The robust default (false) learns from successful
  /// completions only, so transient task faults cannot poison the stage
  /// medians, the input-size groups, or the OGD training targets; turning
  /// this on measures how much a naive any-finished-attempt harvest degrades
  /// the predictions under faults.
  bool harvest_failed_attempts = false;
};

/// Which of the five §III-C policies produced an estimate.
enum class Policy : std::uint8_t {
  NoneStarted = 1,
  RunningOnly = 2,
  CompletedNotReady = 3,
  CompletedKnownSize = 4,
  CompletedNewSize = 5,
};

struct Prediction {
  /// Estimated minimum execution time (seconds).
  double exec_seconds = 0.0;
  Policy policy = Policy::NoneStarted;
};

class TaskPredictor : public Estimator {
 public:
  /// Binds to a workflow (kept by reference; must outlive the predictor).
  explicit TaskPredictor(const dag::Workflow& workflow,
                         const PredictorConfig& config = {});

  /// Harvests one MAPE iteration's monitoring data: records newly completed
  /// tasks into the per-stage training state, refreshes the transfer-time
  /// median, and runs one OGD epoch per stage with new data. When the
  /// snapshot carries an exact delta journal (engine-produced snapshots do),
  /// only `delta.completed` is visited — O(changes); otherwise falls back to
  /// the full O(tasks) phase scan (hand-built snapshots in tests/harnesses).
  void observe(const sim::MonitorSnapshot& snapshot) override;

  /// Policies 1–5 estimate of `task`'s total execution time, given the
  /// current snapshot (which also supplies the task's readiness and the
  /// stage's running-task elapsed times).
  Prediction predict_exec(dag::TaskId task,
                          const sim::MonitorSnapshot& snapshot) const;

  /// Counterfactual execution estimate for a task that just completed: what
  /// the ready-task policies (4/5) would have predicted from the *current*
  /// learned state — i.e. before the completion is harvested. Unlike
  /// predict_exec it never passes through the recorded actual, so
  /// |counterfactual - actual| is a genuine out-of-sample misprediction
  /// regret (the BanditSelector's reward signal). Returns false (no
  /// estimate) while the task's stage has no harvested completions.
  bool counterfactual_exec(dag::TaskId task, double* exec_seconds) const;

  /// Switches the live configuration in place — the BanditSelector's
  /// arm-switch hook. Rebuilds every cached sample centre under the new
  /// centre statistic (bit-identical to a from-scratch predictor fed the
  /// same history: mean = sum/size, median from the sorted multiset — both
  /// reversible) and retargets the per-stage OGD learning rate. A no-op
  /// returning false when `config` matches the live one (`arms == 1`
  /// selectors stay byte-identical to selector-off). `input_bucket_rel_tol`
  /// must not change: the group buckets are keyed by it and merged
  /// histories cannot be re-bucketed.
  bool reconfigure(const PredictorConfig& config);

  const PredictorConfig& config() const { return config_; }

  /// Estimator interface: predict_exec's scalar value.
  double estimate_exec(dag::TaskId task,
                       const sim::MonitorSnapshot& snapshot) const override {
    return predict_exec(task, snapshot).exec_seconds;
  }

  /// Conservative minimum remaining slot occupancy of `task` at
  /// snapshot.now: for running tasks the predicted total minus elapsed
  /// (floored at zero — "about to complete"); for unstarted tasks transfer
  /// estimate plus predicted execution.
  double predict_remaining_occupancy(
      dag::TaskId task, const sim::MonitorSnapshot& snapshot) const override;

  /// Total stage refits (one Algorithm-1 epoch over a stage's new
  /// completions) across the run — the batching observable: a harvest
  /// refits each touched stage once however bursty its delta, so this is
  /// bounded by observe() calls times stages, not by completions.
  std::uint64_t total_refits() const { return total_refits_; }

  /// Current t̃_data estimate (total in+out transfer, seconds). Zero until
  /// the first observation.
  double transfer_estimate() const override { return transfer_estimate_; }

  /// The per-stage OGD model (exposed for tests and the ablation bench).
  const OgdModel& stage_model(dag::StageId stage) const;

  /// Approximate resident state size in bytes (§IV-F overhead accounting).
  std::size_t state_bytes() const override;

  std::size_t iterations() const { return iterations_; }

 private:
  /// Geometric bucket key for an input size; equal keys = "equivalent".
  long bucket_key(double input_mb) const;

  /// The configured centre statistic: median (paper default) or mean
  /// (ablation).
  double center(std::vector<double> values) const;

  /// A completion sample set kept ready for O(1) centre queries: the values
  /// stay sorted and a running sum accumulates in arrival order, so the
  /// cached centre reproduces util::median / util::mean bit-for-bit without
  /// copying the history on every query. Arrivals within one observe() are
  /// batched: add_sample appends to `pending` (O(1)), and flush_samples
  /// sorts the batch and merges it in one inplace_merge pass — on a bursty
  /// delta that is one O(n + k log k) coalesce instead of k O(n) insertions.
  /// The merged array is the same sorted multiset either way, and the sum
  /// folds in arrival order, so the recomputed centre is bit-identical to
  /// the former insert-one-at-a-time path.
  struct SampleSet {
    std::vector<double> sorted;
    std::vector<double> pending;  // this interval's arrivals, pre-merge
    double sum = 0.0;     // accumulated in arrival order (== util::mean fold)
    double center = 0.0;  // cached centre; valid once flushed && !empty()
    std::size_t size() const { return sorted.size() + pending.size(); }
    bool empty() const { return sorted.empty() && pending.empty(); }
  };

  /// Stages a sample for the next flush (sum folds immediately, in arrival
  /// order).
  void add_sample(SampleSet& set, double value) const;
  /// Merges the pending batch into the sorted history and refreshes the
  /// cached centre.
  void flush_samples(SampleSet& set) const;

  struct Group {
    SampleSet exec;
    double input_mb_sum = 0.0;  // representative d_M = sum / count
  };

  struct StageState {
    OgdModel model;
    SampleSet completed_exec;
    std::map<long, Group> groups;
    std::uint32_t completed = 0;
    bool dirty = false;  // new completions since the last OGD epoch
  };

  /// Records one newly observed completion (shared by the delta and the
  /// full-scan paths of observe()).
  void record_completion(dag::TaskId task, const sim::TaskObservation& obs,
                         std::vector<double>& interval_transfers);

  /// Notes a newly observed failed attempt (detected via the failure counter,
  /// so replayed snapshots stay idempotent) and — only under the
  /// harvest_failed_attempts ablation — ingests its elapsed span as an
  /// execution sample. When several attempts fail between two snapshots only
  /// the last span is observable (and ingested).
  void observe_failure(dag::TaskId task, const sim::TaskObservation& obs);

  const dag::Workflow* workflow_;
  PredictorConfig config_;
  std::vector<StageState> stages_;
  /// Last observed phase per task, to detect completions between iterations.
  std::vector<sim::TaskPhase> last_phase_;
  /// Last observed failed-attempt count per task, to detect new failures
  /// between iterations (and to keep observe_failure idempotent on replays).
  std::vector<std::uint32_t> seen_failed_;
  double transfer_estimate_ = 0.0;
  bool has_transfer_estimate_ = false;
  std::uint64_t total_refits_ = 0;
  std::size_t iterations_ = 0;
};

}  // namespace wire::predict
