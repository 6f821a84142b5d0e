// The estimator interface: what WIRE's planning layers need from a
// task-performance predictor.
//
// The production implementation is TaskPredictor (online, §III-C policies).
// OracleEstimator (oracle.h) is a clairvoyant variant used to quantify the
// value of prediction accuracy: it reads the DAG's reference execution times
// directly, which the online predictor can only approach asymptotically.
#pragma once

#include <cstddef>

#include "dag/workflow.h"
#include "sim/monitor.h"

namespace wire::predict {

struct Prediction;  // defined in task_predictor.h

class Estimator {
 public:
  virtual ~Estimator() = default;

  /// Harvests one MAPE iteration's monitoring data.
  virtual void observe(const sim::MonitorSnapshot& snapshot) = 0;

  /// Estimated total execution time of a task (seconds).
  virtual double estimate_exec(dag::TaskId task,
                               const sim::MonitorSnapshot& snapshot) const = 0;

  /// Conservative minimum remaining slot occupancy at snapshot.now.
  virtual double predict_remaining_occupancy(
      dag::TaskId task, const sim::MonitorSnapshot& snapshot) const = 0;

  /// Current data-transfer time estimate (t̃_data), seconds.
  virtual double transfer_estimate() const = 0;

  /// Resident state footprint in bytes (overhead accounting).
  virtual std::size_t state_bytes() const = 0;
};

}  // namespace wire::predict
