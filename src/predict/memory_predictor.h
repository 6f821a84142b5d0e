// Online peak-memory prediction — the controller-side mirror of the engine's
// TaskMemorySizer (sim/memory.h).
//
// Harvests completed tasks' revealed true peaks (TaskObservation::peak_mem_mb,
// the kickstart record) from monitoring snapshots and sizes reservations with
// the exact statistical core the engine sizes with (sim::sized_from_history +
// sim::clamp_reservation). At any control tick both sides have ingested the
// same completion set in the same sorted order, so the lookahead's projected
// reservations match what the engine would book if it dispatched at that
// instant; later completions can shift the engine's actual sizing, which is
// ordinary prediction error, not a monitoring-boundary leak.
//
// Running tasks report their actual booked reservation in the snapshot, so
// the projection seeds in-flight attempts exactly.
#pragma once

#include <cstdint>
#include <vector>

#include "dag/workflow.h"
#include "sim/config.h"
#include "sim/memory.h"
#include "sim/monitor.h"

namespace wire::predict {

class MemoryPredictor {
 public:
  /// Binds to a workflow (kept by reference; must outlive the predictor).
  /// `config` and `slots_per_instance` must match the engine's CloudConfig
  /// for the projection to mirror the engine's sizing.
  MemoryPredictor(const dag::Workflow& workflow,
                  const sim::MemoryConfig& config,
                  std::uint32_t slots_per_instance);

  /// Harvests one MAPE iteration's revealed peaks. Exact deltas visit only
  /// `delta.completed` (O(changes)); otherwise falls back to the full
  /// O(tasks) phase scan. Idempotent on replayed snapshots.
  void observe(const sim::MonitorSnapshot& snapshot);

  /// Projected reservation (MB) the engine would book for `task` if it
  /// dispatched now: a running task's actual booked reservation when the
  /// snapshot carries one, else the sized-and-clamped estimate for the
  /// task's stage after its observed OOM count.
  double predict_reservation(dag::TaskId task,
                             const sim::MonitorSnapshot& snapshot) const;

  /// Swaps the live sizing configuration in place (the reconfiguration seam
  /// TaskPredictor::reconfigure opens on the execution side). Keeps every
  /// accumulated peak history. A no-op returning false when `config`
  /// matches the live one, bitwise-relevant fields included. The memory
  /// dimension cannot be toggled on a live predictor (`enabled()` must stay
  /// true) and `slots_per_instance` is the bound instance shape.
  bool reconfigure(const sim::MemoryConfig& config);

  /// Total stage refits across the run: a harvest that ingests new peaks
  /// for a stage counts one refit for it, however many same-stage tasks its
  /// delta completed — the batching observable, bounded by observe() calls
  /// times touched stages, not by ingested peaks.
  std::uint64_t total_refits() const { return total_refits_; }

  /// Completed peaks ingested for `stage` so far.
  std::size_t stage_samples(dag::StageId stage) const;

  /// Approximate resident state size in bytes (§IV-F overhead accounting).
  std::size_t state_bytes() const;

 private:
  void record_peak(dag::TaskId task, const sim::TaskObservation& obs);

  const dag::Workflow* workflow_;
  sim::MemoryConfig config_;
  std::uint32_t slots_per_instance_;
  /// The shared sizing core; holds the per-stage sorted peak histories.
  sim::TaskMemorySizer sizer_;
  std::vector<std::size_t> stage_counts_;
  /// Per-stage epoch mark: a refit is counted only when stage_mark_[s] !=
  /// observe_epoch_ — the first ingested peak of the stage this observe();
  /// subsequent same-stage peaks in the same burst ride on the same refit.
  std::vector<std::uint64_t> stage_mark_;
  /// Tasks whose completion peak was already ingested (idempotence guard).
  std::vector<bool> harvested_;
  std::uint64_t observe_epoch_ = 0;
  std::uint64_t total_refits_ = 0;
};

}  // namespace wire::predict
