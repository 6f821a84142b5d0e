// Controller-side run state maintained across MAPE iterations.
//
// The lookahead simulator needs the incomplete-predecessor count of every
// task to project firings over the next interval. Re-deriving those counts
// from snapshot phases costs O(V + E) per tick; this class keeps them
// current in O(changes) by consuming the snapshot's delta journal — each
// completion decrements its successors once. Hand-built snapshots (no exact
// journal) and the first snapshot of a run fall back to a full rebuild, so a
// RunState attached mid-run or fed by tests behaves exactly like the
// from-scratch derivation.
//
// This is pure controller bookkeeping over controller-visible data: every
// count is derivable from any one snapshot, so no ground truth leaks.
#pragma once

#include <cstdint>
#include <vector>

#include "dag/workflow.h"
#include "sim/monitor.h"
#include "util/check.h"

namespace wire::core {

class RunState {
 public:
  /// Detaches from any previous run; the next update() rebuilds from its
  /// snapshot regardless of journal exactness.
  void reset() {
    remaining_preds_.clear();
    completed_.clear();
    synced_ = false;
  }

  /// Brings the state up to date with `snapshot`: applies the delta journal
  /// when it is exact and this state has tracked every snapshot since the
  /// run's first (O(changes)); otherwise rebuilds from the task phases
  /// (O(V + E)). Idempotent under replay of the same snapshot.
  void update(const dag::Workflow& workflow,
              const sim::MonitorSnapshot& snapshot);

  /// Incomplete-predecessor count per task; valid after the first update().
  const std::vector<std::uint32_t>& remaining_preds() const {
    return remaining_preds_;
  }

  /// Mutable access for the lookahead's speculative projection:
  /// simulate_interval decrements counters as it fires tasks inside its
  /// event loop (recording an undo log) and restores every decrement before
  /// returning, replacing the O(V) copy per tick with O(projected firings).
  /// Requires ready(); callers must leave the counters exactly as found.
  std::vector<std::uint32_t>& speculative_preds() {
    WIRE_REQUIRE(synced_, "speculative access before first update");
    return remaining_preds_;
  }

  bool ready() const { return synced_; }

 private:
  void rebuild(const dag::Workflow& workflow,
               const sim::MonitorSnapshot& snapshot);
  void apply_delta(const dag::Workflow& workflow,
                   const sim::MonitorDelta& delta);

  std::vector<std::uint32_t> remaining_preds_;
  /// Completions already folded in (guards replayed journals).
  std::vector<char> completed_;
  bool synced_ = false;
};

}  // namespace wire::core
