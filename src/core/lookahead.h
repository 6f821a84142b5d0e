// WIRE's internal workflow simulator (paper §III-B2).
//
// This is NOT the ground-truth simulator: it runs inside the controller, on
// *predicted* task occupancy times, to project the execution over the next
// control interval. Its outputs are the "upcoming load" Q_task — the tasks
// expected to be active (running or queued) at the start of the next interval
// with their conservatively predicted minimum remaining occupancy — and the
// per-instance restart costs c_j (the maximum sunk occupancy of any task
// projected to be running on the instance at that time).
#pragma once

#include <unordered_map>
#include <vector>

#include "dag/workflow.h"
#include "core/plan_scratch.h"
#include "core/run_state.h"
#include "predict/estimator.h"
#include "sim/config.h"
#include "sim/monitor.h"

namespace wire::predict {
class MemoryPredictor;
}

namespace wire::core {

/// One entry of the upcoming load Q_task. Field order packs the struct into
/// 24 bytes; Q_task runs to thousands of entries per control tick.
struct UpcomingTask {
  /// Predicted minimum remaining slot occupancy at the start of the next
  /// interval (seconds).
  double remaining_occupancy = 0.0;
  dag::TaskId task = dag::kInvalidTask;
  /// True if the task is projected to be occupying a slot at the start of
  /// the next interval (as opposed to waiting in the ready queue). On-slot
  /// tasks cannot be time-multiplexed by the pool-sizing bin-packer: their
  /// instance is pinned for at least the next charging unit.
  bool on_slot = false;
  /// Projected memory reservation (MB) the entry will hold; 0 in memory-off
  /// runs. On-slot entries carry the booked reservation the projection saw,
  /// queued entries the predictor's sizing — the value the memory-aware
  /// Algorithm 3 in steer() packs.
  double mem_mb = 0.0;
};

struct LookaheadResult {
  /// Q_task in projected dispatch order (tasks already on slots first, by
  /// projected completion; then the projected ready queue).
  std::vector<UpcomingTask> upcoming;
  /// Restart cost per instance: max sunk occupancy (seconds) among tasks
  /// projected to be running on it at the start of the next interval.
  /// Instances absent from the map have no running tasks (cost 0).
  std::unordered_map<sim::InstanceId, double> restart_cost;
  /// Tasks projected to complete within the interval.
  std::uint32_t projected_completions = 0;
  /// Queue-tail entries omitted by the adaptive horizon cap (see
  /// simulate_interval's `adaptive_horizon`); always 0 with the cap off.
  /// When non-zero, `upcoming` is a prefix whose Algorithm-3 pool size
  /// already saturates the binding instance ceiling, so the steering
  /// decision is unchanged.
  std::uint32_t truncated_tasks = 0;

  /// Empties the result in place, keeping the buffers' capacity.
  void clear() {
    upcoming.clear();
    restart_cost.clear();
    projected_completions = 0;
    truncated_tasks = 0;
  }
};

/// Projects execution from snapshot.now to snapshot.now + lag with the
/// current resource allotment (ready non-draining instances, plus
/// provisioning instances from when they boot; draining instances are
/// excluded and their tasks requeued). FIFO dispatch, mirroring the
/// framework master. The policy controller's predicted assignment may drift
/// from the true schedule; §III-D argues (and §IV-E confirms) the effect is
/// minor. `result` is cleared and filled in place, so a persistent caller
/// (the controller) reuses its buffers across ticks.
///
/// `state`, when non-null and ready, lends its incomplete-predecessor
/// counts, maintained incrementally across ticks (see RunState): the
/// projection decrements them as it fires tasks, records each decrement in
/// an undo log and restores them before returning, so a tick costs
/// O(projected firings) instead of an O(V + E) seeding scan or an O(V)
/// copy. Null (or not ready) seeds the counts from the snapshot instead
/// (tests, one-shot callers). The result is bit-identical either way.
///
/// `scratch`, when non-null, lends the projection's transient buffers (busy
/// heap, free-slot heap, ready queue, emission buffers, undo log) from a
/// reusable arena instead of allocating them per call; null keeps
/// self-contained local buffers. The result is bit-identical either way.
///
/// `memory`, when non-null (and config.memory.enabled()), makes the
/// projection memory-aware: dispatch admits a task only onto an instance
/// with enough projected free memory for its predicted reservation,
/// mirroring the engine's head-of-line admission, and Q_task entries carry
/// that reservation for the memory-aware Algorithm 3. Null (or memory off)
/// keeps the memory-unaware projection byte-identical to the pre-memory
/// code path.
///
/// `adaptive_horizon` turns on the adaptive horizon cap: under a finite
/// snapshot.pool_cap, queue-tail emission stops once Algorithm 3's pool
/// size provably saturates that ceiling (see lookahead.cpp for the bound).
/// Steering decisions are unchanged; the unclamped demand signal
/// (PoolCommand::desired_pool) saturates at >= the ceiling instead of being
/// exact, so the cap must stay off for multi-tenant runs whose arbiter
/// consumes that signal.
void simulate_interval(const dag::Workflow& workflow,
                       const sim::MonitorSnapshot& snapshot,
                       const predict::Estimator& predictor,
                       const sim::CloudConfig& config, LookaheadResult& result,
                       RunState* state = nullptr, PlanScratch* scratch = nullptr,
                       const predict::MemoryPredictor* memory = nullptr,
                       bool adaptive_horizon = false);

/// The same projection into a fresh result.
LookaheadResult simulate_interval(const dag::Workflow& workflow,
                                  const sim::MonitorSnapshot& snapshot,
                                  const predict::Estimator& predictor,
                                  const sim::CloudConfig& config,
                                  RunState* state = nullptr,
                                  PlanScratch* scratch = nullptr,
                                  const predict::MemoryPredictor* memory =
                                      nullptr,
                                  bool adaptive_horizon = false);

}  // namespace wire::core
