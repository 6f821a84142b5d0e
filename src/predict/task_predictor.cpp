#include "predict/task_predictor.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"
#include "util/stats.h"

namespace wire::predict {

using dag::StageId;
using dag::TaskId;
using sim::TaskPhase;

TaskPredictor::TaskPredictor(const dag::Workflow& workflow,
                             const PredictorConfig& config)
    : workflow_(&workflow),
      config_(config),
      stages_(workflow.stage_count()),
      last_phase_(workflow.task_count(), TaskPhase::Pending),
      seen_failed_(workflow.task_count(), 0) {
  for (StageState& s : stages_) {
    s.model = OgdModel(config_.learning_rate);
  }
}

double TaskPredictor::center(std::vector<double> values) const {
  WIRE_CHECK(!values.empty(), "center of empty sample");
  return config_.use_mean ? util::mean(values)
                          : util::median(std::move(values));
}

long TaskPredictor::bucket_key(double input_mb) const {
  if (input_mb <= 0.0) return std::numeric_limits<long>::min();
  const double base = std::log1p(config_.input_bucket_rel_tol);
  return std::lround(std::log(input_mb) / base);
}

void TaskPredictor::add_sample(SampleSet& set, double value) const {
  set.pending.push_back(value);
  set.sum += value;
}

void TaskPredictor::flush_samples(SampleSet& set) const {
  if (!set.pending.empty()) {
    const std::size_t tail = set.sorted.size();
    set.sorted.insert(set.sorted.end(), set.pending.begin(),
                      set.pending.end());
    set.pending.clear();
    std::sort(set.sorted.begin() + static_cast<std::ptrdiff_t>(tail),
              set.sorted.end());
    std::inplace_merge(set.sorted.begin(),
                       set.sorted.begin() + static_cast<std::ptrdiff_t>(tail),
                       set.sorted.end());
  }
  if (set.sorted.empty()) return;
  if (config_.use_mean) {
    set.center = set.sum / static_cast<double>(set.sorted.size());
    return;
  }
  // util::median on a sorted sample: v[mid] is the mid-th order statistic and
  // max of the lower half is v[mid - 1].
  const std::size_t n = set.sorted.size();
  const std::size_t mid = n / 2;
  set.center = n % 2 == 1 ? set.sorted[mid]
                          : 0.5 * (set.sorted[mid - 1] + set.sorted[mid]);
}

void TaskPredictor::record_completion(TaskId task,
                                      const sim::TaskObservation& obs,
                                      std::vector<double>& interval_transfers) {
  const dag::TaskSpec& spec = workflow_->task(task);
  StageState& stage = stages_[spec.stage];
  WIRE_CHECK(obs.exec_time >= 0.0, "completed task without exec time");
  add_sample(stage.completed_exec, obs.exec_time);
  ++stage.completed;
  stage.dirty = true;

  Group& group = stage.groups[bucket_key(spec.input_mb)];
  add_sample(group.exec, obs.exec_time);
  group.input_mb_sum += spec.input_mb;

  if (obs.transfer_time > 0.0) {
    interval_transfers.push_back(obs.transfer_time);
  }
}

void TaskPredictor::observe_failure(TaskId task,
                                    const sim::TaskObservation& obs) {
  if (obs.failed_attempts <= seen_failed_[task]) return;
  seen_failed_[task] = obs.failed_attempts;
  if (!config_.harvest_failed_attempts) return;
  if (obs.last_failed_elapsed < 0.0) return;
  // Contamination ablation: treat the failed attempt's elapsed occupancy as
  // a finished-execution sample, exactly as a harvester that keys on "the
  // task left its slot" would. It pollutes the stage centre, the task's
  // input-size group, and (via dirty) the next OGD epoch's targets.
  const dag::TaskSpec& spec = workflow_->task(task);
  StageState& stage = stages_[spec.stage];
  add_sample(stage.completed_exec, obs.last_failed_elapsed);
  ++stage.completed;
  stage.dirty = true;
  Group& group = stage.groups[bucket_key(spec.input_mb)];
  add_sample(group.exec, obs.last_failed_elapsed);
  group.input_mb_sum += spec.input_mb;
}

void TaskPredictor::observe(const sim::MonitorSnapshot& snapshot) {
  WIRE_REQUIRE(snapshot.tasks.size() == workflow_->task_count(),
               "snapshot does not match the workflow");
  ++iterations_;

  std::vector<double> interval_transfers;
  if (snapshot.delta.exact) {
    // O(changes): the journal lists every completion since the previous
    // snapshot, already in ascending TaskId order — the same order the scan
    // below visits them. The last_phase_ guard keeps observe idempotent when
    // the same snapshot is replayed (benches do).
    for (TaskId t : snapshot.delta.failed) {
      observe_failure(t, snapshot.tasks[t]);
    }
    for (TaskId t : snapshot.delta.completed) {
      if (last_phase_[t] == TaskPhase::Completed) continue;
      last_phase_[t] = TaskPhase::Completed;
      record_completion(t, snapshot.tasks[t], interval_transfers);
    }
  } else {
    for (TaskId t = 0; t < static_cast<TaskId>(snapshot.tasks.size()); ++t) {
      const sim::TaskObservation& obs = snapshot.tasks[t];
      observe_failure(t, obs);
      const bool newly_completed = obs.phase == TaskPhase::Completed &&
                                   last_phase_[t] != TaskPhase::Completed;
      last_phase_[t] = obs.phase;
      if (!newly_completed) continue;
      record_completion(t, obs, interval_transfers);
    }
  }

  // t̃_data: median transfer of the tasks completed in this interval; the
  // previous estimate persists through empty intervals.
  if (!interval_transfers.empty()) {
    transfer_estimate_ = center(std::move(interval_transfers));
    has_transfer_estimate_ = true;
  }

  // One Algorithm-1 epoch per stage with new completions. The training set is
  // the stage's groups of equivalent-input tasks, target = group median —
  // read from each group's cached centre instead of re-deriving it from a
  // copy of the full history.
  for (StageState& stage : stages_) {
    if (!stage.dirty) continue;
    stage.dirty = false;
    // All learned-state mutations (record_completion, observe_failure
    // ingestion) mark the stage dirty, so a bursty delta costs one refit
    // per touched stage: the pending sample batches merge here, once per
    // dirty stage per harvest.
    flush_samples(stage.completed_exec);
    for (auto& [key, group] : stage.groups) {
      flush_samples(group.exec);
    }
    ++total_refits_;
    std::vector<TrainingPoint> training;
    training.reserve(stage.groups.size());
    for (const auto& [key, group] : stage.groups) {
      TrainingPoint p;
      p.input_mb =
          group.input_mb_sum / static_cast<double>(group.exec.size());
      p.exec_seconds = group.exec.center;
      training.push_back(p);
    }
    stage.model.update(training);
  }
}

Prediction TaskPredictor::predict_exec(
    TaskId task, const sim::MonitorSnapshot& snapshot) const {
  WIRE_REQUIRE(task < workflow_->task_count(), "unknown task id");
  const dag::TaskSpec& spec = workflow_->task(task);
  const StageState& stage = stages_[spec.stage];
  const sim::TaskObservation& obs = snapshot.tasks[task];

  if (obs.phase == TaskPhase::Completed) {
    // Nothing to predict: report the recorded value.
    return {obs.exec_time, Policy::CompletedKnownSize};
  }

  if (stage.completed == 0) {
    // Policies 1 and 2: nothing completed in this stage yet. A running
    // task's "run time" counts from when it fired (became ready): the
    // unstarted peers are likely to run at least as long as the active ones
    // have been in flight since the stage fired. Measuring from the fire
    // time (rather than slot occupancy) keeps the estimate from diluting as
    // freshly dispatched peers join the running set.
    std::vector<double> running_time;
    for (TaskId peer : workflow_->stage_tasks(spec.stage)) {
      const sim::TaskObservation& p = snapshot.tasks[peer];
      if (p.phase == TaskPhase::Running && p.ready_since >= 0.0) {
        running_time.push_back(snapshot.now - p.ready_since);
      }
    }
    if (running_time.empty()) {
      return {0.0, Policy::NoneStarted};
    }
    return {center(std::move(running_time)), Policy::RunningOnly};
  }

  // Stage has completed tasks.
  const bool ready_to_run = obs.phase == TaskPhase::Ready ||
                            obs.phase == TaskPhase::Running;
  if (!ready_to_run) {
    // Policy 3: input data not yet available.
    return {stage.completed_exec.center, Policy::CompletedNotReady};
  }

  const auto it = stage.groups.find(bucket_key(spec.input_mb));
  if (it != stage.groups.end()) {
    // Policy 4: equivalent input size seen among completed peers.
    return {it->second.exec.center, Policy::CompletedKnownSize};
  }

  // Policy 5: new input size — OGD model. Falls back to the stage centre if
  // the model is disabled (ablation) or has not been trained yet (cannot
  // happen once completed > 0, but guarded for safety).
  if (config_.disable_ogd || stage.model.epochs() == 0) {
    return {stage.completed_exec.center, Policy::CompletedNotReady};
  }
  return {stage.model.predict(spec.input_mb), Policy::CompletedNewSize};
}

bool TaskPredictor::counterfactual_exec(TaskId task,
                                        double* exec_seconds) const {
  WIRE_REQUIRE(task < workflow_->task_count(), "unknown task id");
  const dag::TaskSpec& spec = workflow_->task(task);
  const StageState& stage = stages_[spec.stage];
  if (stage.completed == 0) return false;
  // The completed task was ready when it ran, so replay the ready-task
  // policies (4, then 5) against the pre-harvest state. Centres are always
  // flushed here: observe() flushes every dirty stage before returning.
  const auto it = stage.groups.find(bucket_key(spec.input_mb));
  if (it != stage.groups.end()) {
    *exec_seconds = it->second.exec.center;
    return true;
  }
  if (config_.disable_ogd || stage.model.epochs() == 0) {
    *exec_seconds = stage.completed_exec.center;
    return true;
  }
  *exec_seconds = stage.model.predict(spec.input_mb);
  return true;
}

bool TaskPredictor::reconfigure(const PredictorConfig& config) {
  WIRE_REQUIRE(config.input_bucket_rel_tol == config_.input_bucket_rel_tol,
               "reconfigure cannot change the input bucket tolerance");
  if (config.learning_rate == config_.learning_rate &&
      config.use_mean == config_.use_mean &&
      config.disable_ogd == config_.disable_ogd &&
      config.harvest_failed_attempts == config_.harvest_failed_attempts) {
    return false;
  }
  config_ = config;
  for (StageState& stage : stages_) {
    stage.model.set_learning_rate(config_.learning_rate);
    // Recompute every cached centre under the new statistic. Both centres
    // are derived from state the sets already carry (arrival-order sum,
    // sorted multiset), so toggling use_mean back and forth reproduces the
    // original doubles bit-for-bit.
    flush_samples(stage.completed_exec);
    for (auto& [key, group] : stage.groups) {
      flush_samples(group.exec);
    }
  }
  // The transfer estimate is a point value carried forward between
  // intervals; its source samples are not retained, so it keeps the value
  // computed under the old centre until the next non-empty interval.
  return true;
}

double TaskPredictor::predict_remaining_occupancy(
    TaskId task, const sim::MonitorSnapshot& snapshot) const {
  const sim::TaskObservation& obs = snapshot.tasks[task];
  if (obs.phase == TaskPhase::Completed) return 0.0;
  const double exec_seconds = predict_exec(task, snapshot).exec_seconds;
  const double t_data = has_transfer_estimate_ ? transfer_estimate_ : 0.0;

  if (obs.phase == TaskPhase::Running) {
    if (obs.transfer_in_time < 0.0) {
      // Still transferring input: remaining transfer (floored) + execution.
      const double remaining_transfer = std::max(0.0, t_data - obs.elapsed);
      return remaining_transfer + exec_seconds;
    }
    // Executing: predicted total minus elapsed, floored at zero ("about to
    // complete" when the prediction underestimates).
    return std::max(0.0, exec_seconds - obs.elapsed_exec);
  }

  // Ready or pending: full transfer + execution estimate.
  return t_data + exec_seconds;
}

const OgdModel& TaskPredictor::stage_model(StageId stage) const {
  WIRE_REQUIRE(stage < stages_.size(), "unknown stage id");
  return stages_[stage].model;
}

std::size_t TaskPredictor::state_bytes() const {
  std::size_t bytes = sizeof(*this);
  bytes += last_phase_.capacity() * sizeof(TaskPhase);
  bytes += seen_failed_.capacity() * sizeof(std::uint32_t);
  for (const StageState& s : stages_) {
    bytes += sizeof(StageState);
    bytes += (s.completed_exec.sorted.capacity() +
              s.completed_exec.pending.capacity()) * sizeof(double);
    for (const auto& [key, group] : s.groups) {
      bytes += sizeof(key) + sizeof(Group) +
               (group.exec.sorted.capacity() +
                group.exec.pending.capacity()) * sizeof(double);
    }
  }
  return bytes;
}

}  // namespace wire::predict
