// The monitoring surface: everything a scaling policy is allowed to see.
//
// This mirrors what Pegasus/HTCondor kickstart records and the ExoGENI client
// expose (§II-C property 1): task lifecycle states, elapsed run times of
// running tasks, execution and transfer times of completed tasks, declared
// input sizes, and the instance pool with per-instance charge clocks. True
// *remaining* runtimes exist only inside the ground-truth simulator; keeping
// this boundary honest is what makes the prediction problem real.
#pragma once

#include <cstdint>
#include <vector>

#include "dag/workflow.h"
#include "sim/config.h"

namespace wire::sim {

using InstanceId = std::uint32_t;
inline constexpr InstanceId kInvalidInstance = 0xFFFFFFFFu;

/// Sentinel for "no externally imposed pool ceiling". Distinct from 0, which
/// is a valid cap that blocks all growth (an arbiter may park a tenant at
/// zero while other tenants hold the whole site).
inline constexpr std::uint32_t kNoInstanceCap = 0xFFFFFFFFu;

/// Controller-visible lifecycle phase of a task.
enum class TaskPhase : std::uint8_t {
  /// Some predecessor has not completed yet.
  Pending,
  /// All predecessors complete; waiting in the framework's ready queue.
  Ready,
  /// Occupying a slot (transferring input, executing, or writing output).
  Running,
  /// Finished; kickstart record available.
  Completed,
};

/// Per-task observation, harvested each MAPE iteration (§III-B1: "execution
/// times (for completed tasks), run times (for running tasks), data transfer
/// times (for running and completed tasks) and input data sizes (for all
/// tasks)").
struct TaskObservation {
  TaskPhase phase = TaskPhase::Pending;
  /// Declared input size in MB (known for all tasks from the DAG).
  double input_mb = 0.0;
  /// Time the task (last) became ready — fired, in the paper's terms. The
  /// "run time" of prediction policy 2 counts from here: an unstarted peer is
  /// likely to run at least as long as the active tasks have been in flight
  /// since the stage fired. Negative while Pending.
  SimTime ready_since = -1.0;

  // --- Running tasks ---
  /// Time the current attempt started occupying its slot; < 0 if N/A.
  SimTime occupancy_start = -1.0;
  /// Elapsed wall time of the current attempt (transfer + exec so far).
  SimTime elapsed = 0.0;
  /// Elapsed pure execution time (0 while still transferring input).
  SimTime elapsed_exec = 0.0;
  /// Observed input-transfer duration of the current/last attempt; < 0 if the
  /// transfer has not finished yet.
  SimTime transfer_in_time = -1.0;
  /// Instance hosting the current attempt; kInvalidInstance if not running.
  InstanceId instance = kInvalidInstance;

  // --- Completed tasks (kickstart record) ---
  /// Pure execution duration; < 0 until completed.
  SimTime exec_time = -1.0;
  /// Total transfer duration (input + output); < 0 until completed.
  SimTime transfer_time = -1.0;

  /// Number of attempts so far (> 1 means the task was restarted after an
  /// instance release).
  std::uint32_t attempts = 0;

  // --- Fault injection (all zero/negative on a reliable cloud) ---
  /// Transient failures of this task so far (attempts that died
  /// mid-execution; instance-release restarts are *not* counted here).
  std::uint32_t failed_attempts = 0;
  /// Occupancy seconds the most recent failed attempt had accumulated when it
  /// died; < 0 if the task never failed. Failure-truncated, so the robust
  /// predictor harvest excludes it (PredictorConfig::harvest_failed_attempts
  /// is the contamination ablation).
  SimTime last_failed_elapsed = -1.0;

  // --- Memory dimension (all zero/negative when memory is off) ---
  /// Memory the current/last attempt has booked against its instance, MB;
  /// < 0 if the task is not occupying a slot. What the real resource manager
  /// reports for its own allocation.
  double mem_reservation_mb = -1.0;
  /// Measured peak memory of the completed task (kickstart record), MB;
  /// < 0 until completed. OOM-killed attempts do NOT reveal the true peak —
  /// only that it exceeded the reservation.
  double peak_mem_mb = -1.0;
  /// OOM kills of this task so far (distinct from failed_attempts: OOM is a
  /// sizing error, not a transient fault, and must not contaminate the
  /// execution-time failure harvest).
  std::uint32_t oom_attempts = 0;

  // --- Scheduled checkpointing (zero when CheckpointConfig is off) ---
  /// Execution seconds of the current attempt covered by its last completed
  /// checkpoint write — what a kill would salvage. Only meaningful while
  /// Running; resets with each new attempt. Checkpoint-aware victim
  /// selection charges `progress - checkpointed_exec` instead of the legacy
  /// blanket `1 - checkpoint_fraction` discount.
  SimTime checkpointed_exec = 0.0;
};

/// Controller-visible state of one worker instance.
struct InstanceObservation {
  InstanceId id = kInvalidInstance;
  /// Still booting: becomes usable at `ready_at`.
  bool provisioning = false;
  SimTime ready_at = 0.0;
  /// Remaining paid time in the current charging unit (r_j); only meaningful
  /// once the instance is ready.
  SimTime time_to_next_charge = 0.0;
  /// Already ordered to drain at its next charge boundary.
  bool draining = false;
  /// Spot-style revocation notice: the provider announced this instance will
  /// be reclaimed at `revoke_at`. Steering and the baselines must not count
  /// it as stable capacity for the next interval, and the lookahead charges
  /// restart cost for tasks stranded on it.
  bool revoking = false;
  /// Announced reclamation time; < 0 when not revoking.
  SimTime revoke_at = -1.0;
  /// Tasks currently occupying slots on this instance.
  std::vector<dag::TaskId> running_tasks;
  std::uint32_t free_slots = 0;
};

/// Per-tick change journal: what moved since the *previous* snapshot this
/// engine produced. Strictly derivable information — a policy diffing two
/// consecutive snapshots could compute every list itself — so publishing it
/// does not widen the controller-visible surface; it only lets consumers run
/// in O(changes) instead of rescanning all N tasks.
struct MonitorDelta {
  /// True when the journal is exact: the snapshot was produced by the engine
  /// and the lists cover everything that changed since the previous snapshot
  /// (or since the engine's bootstrap, for the first one). Hand-built
  /// snapshots (tests, harnesses) leave this false and consumers must fall
  /// back to a full scan.
  bool exact = false;
  /// Tasks that completed since the last snapshot, in ascending TaskId order
  /// (a task completes exactly once; no duplicates).
  std::vector<dag::TaskId> completed;
  /// Tasks whose lifecycle phase changed since the last snapshot (fired,
  /// dispatched, completed, restarted), deduplicated, ascending TaskId order.
  /// Superset of `completed`.
  std::vector<dag::TaskId> phase_changed;
  /// Instances requested since the last snapshot, in request order.
  std::vector<InstanceId> instances_added;
  /// Instances terminated since the last snapshot, in termination order.
  std::vector<InstanceId> instances_removed;
  /// Tasks that had an attempt die abnormally since the last snapshot —
  /// transient execution faults AND OOM kills alike — deduplicated,
  /// ascending TaskId order (a task failing twice within one interval
  /// appears once; `failed_attempts` / `oom_attempts` in its observation
  /// carry the counts and distinguish the two causes). Subset of
  /// `phase_changed`. Empty on a reliable, memory-unconstrained cloud.
  std::vector<dag::TaskId> failed;
  /// Instances whose *lifecycle* changed since the last snapshot: requested,
  /// terminated, boot completed (provisioning -> ready), drain ordered, a
  /// revocation notice posted, or the announced revoke_at moved. Ascending
  /// id order, deduplicated; superset of instances_added/removed. Ordinary
  /// slot churn (free_slots, running_tasks) and charge-clock advancement are
  /// deliberately NOT listed — they change on almost every busy tick and are
  /// visible in the instance rows themselves. Like every other list this is
  /// derivable by diffing consecutive snapshots' instance rows, so it widens
  /// nothing.
  std::vector<InstanceId> instances_changed;
};

/// Snapshot passed to ScalingPolicy::plan at each control interval.
struct MonitorSnapshot {
  SimTime now = 0.0;
  /// Indexed by TaskId (size == workflow.task_count()).
  std::vector<TaskObservation> tasks;
  /// All live (provisioning or ready, not yet terminated) instances.
  std::vector<InstanceObservation> instances;
  /// Tasks currently in the ready queue, in dispatch order.
  std::vector<dag::TaskId> ready_queue;
  /// Number of tasks not yet completed.
  std::uint32_t incomplete_tasks = 0;
  /// Binding instance ceiling for this job: the site capacity, further
  /// lowered by an externally imposed share when the job runs under a
  /// multi-tenant arbiter (src/ensemble/). kNoInstanceCap = unlimited; 0 is
  /// a genuine zero share (the rare transient where an arbiter parks an
  /// empty tenant — all growth is blocked until the share recovers). Grow
  /// requests beyond the ceiling are clipped by the engine; cap-aware
  /// policies plan within it instead (and report their unconstrained demand
  /// through PoolCommand::desired_pool).
  std::uint32_t pool_cap = kNoInstanceCap;
  /// Changes since the previous snapshot (see MonitorDelta::exact).
  MonitorDelta delta;
};

}  // namespace wire::sim
