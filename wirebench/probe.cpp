#include "probe.h"

#include <algorithm>
#include <cmath>

#include "core/controller.h"
#include "policies/budget.h"

namespace wirebench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

Tail tail(const std::vector<double>& values) {
  Tail t;
  t.samples = values.size();
  for (double p : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    const double beyond = static_cast<double>(values.size()) * (1.0 - p / 100.0);
    if (beyond >= 10.0) {
      t.percentile = p;
      t.value = quantile(values, p / 100.0);
      return t;
    }
  }
  t.percentile = 100.0;
  t.value = values.empty() ? 0.0
                           : *std::max_element(values.begin(), values.end());
  return t;
}

TimedPolicy::TimedPolicy(std::unique_ptr<wire::sim::ScalingPolicy> inner,
                         Probe& probe, bool decision, bool outer)
    : inner_(std::move(inner)),
      probe_(probe),
      decision_(decision),
      outer_(outer) {
  wire_ = dynamic_cast<wire::core::WireController*>(inner_.get());
  budget_ = dynamic_cast<wire::policies::BudgetPolicy*>(inner_.get());
  probed_ = wire_;
  if (budget_ != nullptr) {
    const wire::sim::ScalingPolicy& wrapped = budget_->inner();
    const auto* timed = dynamic_cast<const TimedPolicy*>(&wrapped);
    probed_ = timed != nullptr
                  ? timed->wire_
                  : dynamic_cast<const wire::core::WireController*>(&wrapped);
  }
  if (probe_.traced && wire_ != nullptr) {
    Probe* p = &probe_;
    wire_->set_trace_listener([p](const wire::core::MapeTrace& trace) {
      ++p->wire_ticks;
      if (trace.analyze_path == wire::core::AnalyzePath::kIncremental) {
        ++p->incremental_ticks;
      }
      if (trace.plan_stamped) ++p->stamped_ticks;
      p->upcoming_tasks += trace.upcoming_tasks;
    });
  }
}

TimedPolicy::~TimedPolicy() {
  if (!probe_.traced || !started_) return;
  if (wire_ != nullptr) {
    const wire::core::LookaheadCacheStats& stats = wire_->lookahead_stats();
    probe_.memo_hits += stats.memo_hits;
    probe_.memo_misses += stats.memo_misses;
    probe_.controller_state_bytes += static_cast<double>(wire_->state_bytes());
    probe_.predictor_state_bytes +=
        static_cast<double>(wire_->predictor().state_bytes());
    ++probe_.controllers;
    if (wire_->bandit() != nullptr) {
      probe_.bandit_switches += wire_->bandit()->switches();
    }
  }
  if (budget_ != nullptr && budget_->exhausted()) {
    ++probe_.budget_exhausted_runs;
  }
}

void TimedPolicy::on_run_start(const wire::dag::Workflow& workflow,
                               const wire::sim::CloudConfig& config) {
  started_ = true;
  if (!probe_.traced || !outer_) {
    inner_->on_run_start(workflow, config);
    return;
  }
  const Clock::time_point t0 = Clock::now();
  inner_->on_run_start(workflow, config);
  probe_.start_s += seconds_between(t0, Clock::now());
}

wire::sim::PoolCommand TimedPolicy::plan(
    const wire::sim::MonitorSnapshot& snapshot) {
  const Clock::time_point t0 = Clock::now();
  wire::sim::PoolCommand command = inner_->plan(snapshot);
  const Clock::time_point t1 = Clock::now();
  const double dt = seconds_between(t0, t1);
  if (decision_) probe_.plan_us.push_back(dt * 1e6);
  if (!probe_.traced) return command;

  if (outer_) {
    probe_.outer_plan_s += dt;
    ++probe_.outer_plan_calls;
  }
  if (budget_ != nullptr) {
    probe_.budget_plan_s += dt;
    ++probe_.budget_ticks;
  }
  if (wire_ != nullptr) probe_.wire_plan_s += dt;
  if (outer_ && probed_ != nullptr) {
    // The predict layer: re-ask the live predictor for every ready task's
    // execution estimate. estimate_exec is const, so this observes the
    // predictor without steering the run.
    const wire::predict::TaskPredictor& predictor = probed_->predictor();
    const Clock::time_point p0 = Clock::now();
    double sum = 0.0;
    for (wire::dag::TaskId task : snapshot.ready_queue) {
      sum += predictor.estimate_exec(task, snapshot);
    }
    probe_.estimate_s += seconds_between(p0, Clock::now());
    probe_.estimate_calls += snapshot.ready_queue.size();
    probe_.estimate_sink += sum;
  }
  return command;
}

}  // namespace wirebench
