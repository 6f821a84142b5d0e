#include "predict/memory_predictor.h"

#include "util/check.h"

namespace wire::predict {

using dag::StageId;
using dag::TaskId;
using sim::TaskPhase;

MemoryPredictor::MemoryPredictor(const dag::Workflow& workflow,
                                 const sim::MemoryConfig& config,
                                 std::uint32_t slots_per_instance)
    : workflow_(&workflow),
      config_(config),
      slots_per_instance_(slots_per_instance),
      sizer_(config, slots_per_instance, workflow.stage_count()),
      stage_counts_(workflow.stage_count(), 0),
      stage_mark_(workflow.stage_count(), 0),
      harvested_(workflow.task_count(), false) {
  WIRE_REQUIRE(config.enabled(),
               "memory predictor constructed with the memory dimension off");
}

void MemoryPredictor::record_peak(TaskId task,
                                  const sim::TaskObservation& obs) {
  if (harvested_[task]) return;
  if (obs.peak_mem_mb < 0.0) return;  // completed before memory was modeled
  harvested_[task] = true;
  const StageId stage = workflow_->task(task).stage;
  sizer_.observe_peak(stage, obs.peak_mem_mb);
  ++stage_counts_[stage];
  if (stage_mark_[stage] != observe_epoch_) {
    // One refit per stage per observe(), however many same-stage tasks a
    // bursty delta completed.
    stage_mark_[stage] = observe_epoch_;
    ++total_refits_;
  }
}

bool MemoryPredictor::reconfigure(const sim::MemoryConfig& config) {
  WIRE_REQUIRE(config.enabled(),
               "reconfigure cannot turn the memory dimension off");
  if (config.instance_mem_mb == config_.instance_mem_mb &&
      config.sizing == config_.sizing &&
      config.percentile == config_.percentile &&
      config.safety_factor == config_.safety_factor &&
      config.default_mb == config_.default_mb &&
      config.min_reservation_mb == config_.min_reservation_mb &&
      config.upsize_factor == config_.upsize_factor &&
      config.max_oom_attempts == config_.max_oom_attempts) {
    return false;
  }
  config_ = config;
  sizer_.reconfigure(config, slots_per_instance_);
  return true;
}

void MemoryPredictor::observe(const sim::MonitorSnapshot& snapshot) {
  WIRE_REQUIRE(snapshot.tasks.size() == workflow_->task_count(),
               "snapshot does not match the workflow");
  ++observe_epoch_;
  if (snapshot.delta.exact) {
    for (TaskId t : snapshot.delta.completed) {
      record_peak(t, snapshot.tasks[t]);
    }
  } else {
    for (TaskId t = 0; t < static_cast<TaskId>(snapshot.tasks.size()); ++t) {
      if (snapshot.tasks[t].phase != TaskPhase::Completed) continue;
      record_peak(t, snapshot.tasks[t]);
    }
  }
}

double MemoryPredictor::predict_reservation(
    TaskId task, const sim::MonitorSnapshot& snapshot) const {
  WIRE_REQUIRE(task < workflow_->task_count(), "unknown task id");
  const sim::TaskObservation& obs = snapshot.tasks[task];
  if (obs.phase == TaskPhase::Running && obs.mem_reservation_mb >= 0.0) {
    // In flight: the booked reservation is observable, not a projection.
    return obs.mem_reservation_mb;
  }
  return sizer_.reservation_mb(workflow_->task(task).stage,
                               workflow_->task(task).ref_peak_mem_mb,
                               obs.oom_attempts);
}

std::size_t MemoryPredictor::stage_samples(StageId stage) const {
  WIRE_REQUIRE(stage < stage_counts_.size(), "unknown stage id");
  return stage_counts_[stage];
}

std::size_t MemoryPredictor::state_bytes() const {
  std::size_t bytes = sizeof(*this);
  bytes += stage_counts_.capacity() * sizeof(std::size_t);
  bytes += stage_mark_.capacity() * sizeof(std::uint64_t);
  bytes += harvested_.capacity() / 8;
  for (StageId s = 0; s < stage_counts_.size(); ++s) {
    bytes += stage_counts_[s] * sizeof(double);
  }
  return bytes;
}

}  // namespace wire::predict
