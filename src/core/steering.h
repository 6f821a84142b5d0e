// The resource-steering policy: paper Algorithms 2 and 3.
//
// Algorithm 3 sizes the worker pool by greedily bin-packing the upcoming
// load's predicted remaining occupancy times into instance slots, counting an
// instance only once its slots are filled for at least one full charging
// unit. Algorithm 2 grows or shrinks the current pool toward that size,
// releasing an instance only when its charging unit expires before the next
// interval (r_j <= t) and the sunk cost of restarting its tasks is below the
// configurable threshold (0.2u by default).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/lookahead.h"
#include "core/plan_scratch.h"
#include "sim/config.h"
#include "sim/monitor.h"
#include "sim/scaling_policy.h"

namespace wire::core {

/// The one implementation of Algorithm 3's greedy packer, consumed one
/// occupancy at a time. `resize_pool` drives it over a whole vector; the
/// lookahead skeleton drives the identical object online — both for the
/// adaptive horizon cap's stopping rule and to stamp the projected wavefront
/// with a steering-ready planned pool size during Q_task emission. One
/// implementation is what makes the stamped and from-scratch plan paths
/// bit-equal by construction: the packing arithmetic cannot drift between
/// two hand-synchronized copies.
class Alg3Packer {
 public:
  /// `instance_mem_mb` > 0 turns on memory-aware packing: the open virtual
  /// instance additionally fills up when its booked reservations exceed the
  /// capacity, forcing the same retire/advance step a full slot set does —
  /// the packer waits for earlier occupancies to retire before the
  /// over-capacity entry can co-reside, exactly as the dispatcher's
  /// admission would. 0 (the default) is bit-identical to the pre-memory
  /// packer for every add().
  Alg3Packer(double charging_unit, std::uint32_t slots_per_instance,
             double leftover_fraction = 0.2, double instance_mem_mb = 0.0)
      : charging_unit_(charging_unit),
        slots_(slots_per_instance),
        leftover_fraction_(leftover_fraction),
        mem_cap_(instance_mem_mb) {
    slot_used_.reserve(slots_);
    if (mem_cap_ > 0.0) slot_mem_.reserve(slots_);
  }

  /// Main-loop instance count after the occupancies consumed so far. A lower
  /// bound on the final count (the packer is online: its state after i
  /// entries is independent of later ones, and the leftover rule only ever
  /// adds one) — the adaptive horizon cap's stopping rule.
  std::uint32_t count() const { return p_; }

  void add(double occupancy, double mem_mb = 0.0) {
    slot_used_.push_back(occupancy);
    if (mem_cap_ > 0.0) {
      slot_mem_.push_back(mem_mb);
      mem_used_ += mem_mb;
    }
    // The `> 1` guard keeps a single over-capacity entry (possible only if
    // the caller's reservations are not capacity-clamped) from spinning the
    // retire loop: alone on the instance is the best packing available.
    while (slot_used_.size() == slots_ ||
           (mem_cap_ > 0.0 && slot_used_.size() > 1 &&
            mem_used_ > mem_cap_ + 1e-9)) {
      const double t_min =
          *std::min_element(slot_used_.begin(), slot_used_.end());
      t_used_ += t_min;
      if (t_used_ >= charging_unit_) {
        ++p_;
        t_used_ = 0.0;
        slot_used_.clear();
        if (mem_cap_ > 0.0) {
          slot_mem_.clear();
          mem_used_ = 0.0;
        }
      } else {
        // Retire the slots that finish at t_min; advance the others in
        // place (stable compaction — same values, same order, no per-step
        // allocation). Retired slots release their reservations.
        std::size_t w = 0;
        for (std::size_t r = 0; r < slot_used_.size(); ++r) {
          if (slot_used_[r] != t_min) {
            slot_used_[w] = slot_used_[r] - t_min;
            if (mem_cap_ > 0.0) slot_mem_[w] = slot_mem_[r];
            ++w;
          } else if (mem_cap_ > 0.0) {
            mem_used_ -= slot_mem_[r];
          }
        }
        slot_used_.resize(w);
        if (mem_cap_ > 0.0) slot_mem_.resize(w);
      }
    }
  }

  /// Algorithm 3's line-28 epilogue: an extra instance for a residual load
  /// exceeding `leftover_fraction` of the charging unit (or when none was
  /// planned at all). Returns the final planned pool size; the packer state
  /// is not consumed (finish() is pure).
  std::uint32_t finish() const {
    const double leftover_max =
        slot_used_.empty()
            ? 0.0
            : *std::max_element(slot_used_.begin(), slot_used_.end());
    std::uint32_t p = p_;
    if (p == 0 || leftover_max > leftover_fraction_ * charging_unit_) {
      ++p;
    }
    return p;
  }

 private:
  double charging_unit_;
  std::size_t slots_;
  double leftover_fraction_;
  /// Instance memory capacity, MB; 0 = memory-unaware packing.
  double mem_cap_;
  std::vector<double> slot_used_;
  /// Parallel reservations of the open slots (memory-aware only).
  std::vector<double> slot_mem_;
  double mem_used_ = 0.0;
  double t_used_ = 0.0;
  std::uint32_t p_ = 0;
};

/// Algorithm 3: resizing the worker pool. `upcoming` is Q_task's predicted
/// minimum remaining occupancy times in poll order; `charging_unit` is u;
/// `slots_per_instance` is l; `leftover_fraction` is the line-28 threshold
/// (an extra instance is planned when the residual load exceeds this fraction
/// of u). Returns the planned pool size p (>= 1 whenever `upcoming` is
/// non-empty; 0 only for an empty load).
std::uint32_t resize_pool(const std::vector<double>& upcoming,
                          double charging_unit,
                          std::uint32_t slots_per_instance,
                          double leftover_fraction = 0.2);

/// Memory-aware Algorithm 3: `mem_mb` carries the projected reservation of
/// each entry, parallel to `upcoming`, and `instance_mem_mb` the per-instance
/// capacity. With capacity 0 this is exactly the memory-unaware overload.
std::uint32_t resize_pool(const std::vector<double>& upcoming,
                          const std::vector<double>& mem_mb,
                          double charging_unit,
                          std::uint32_t slots_per_instance,
                          double leftover_fraction, double instance_mem_mb);

/// Algorithm 2: forms the grow/release command toward the planned size,
/// clamped to the external share (clamp_to_share); the unclamped
/// Algorithm-3 size is reported through `planned_size` and
/// PoolCommand::desired_pool. Shrinking goes through release_toward(), with
/// the lookahead's per-instance restart cost c_j as the cost floor and the
/// sunk cost charged at each instance's charge boundary.
///
/// Plan-phase incrementality: when `lookahead.plan_valid` is set (the
/// incremental lookahead stamped the wavefront on a quiet tick), the
/// Algorithm-3 size is consumed directly from `lookahead.planned_pool` —
/// packed inline during Q_task emission by the same Alg3Packer — instead of
/// rebuilding the clamped occupancy vector and re-packing it here. Unstamped
/// results (the from-scratch reference, every fallback classification,
/// hand-built fixtures) take the full rebuild path. Both paths are
/// bit-identical by construction; the differential chaos suite asserts it
/// at every control tick.
///
/// `scratch`, when non-null, lends reusable buffers for the occupancy
/// rebuild and the victim-candidate list (persistent controllers); null
/// keeps self-contained local buffers (tests, one-shot callers).
sim::PoolCommand steer(const LookaheadResult& lookahead,
                       const sim::MonitorSnapshot& snapshot,
                       const sim::CloudConfig& config,
                       std::uint32_t* planned_size = nullptr,
                       bool reclaim_draining = false,
                       PlanScratch* scratch = nullptr);

// Algorithm 2's release discipline, shared by every policy that drains at
// charge boundaries (steer() above, policies::DeadlinePolicy,
// policies::ReactiveConservingPolicy). One implementation keeps the victim
// filter, the salvage discount and the release order from drifting apart.

/// Stable capacity at the start of the next interval: live instances that
/// are neither draining (they expire within this interval) nor under a
/// revocation notice (the provider reclaims those on its own schedule —
/// counting them would leave the next interval short exactly when
/// replacements take a full lag to boot, and releasing one would
/// double-count the loss).
std::uint32_t stable_pool(const sim::MonitorSnapshot& snapshot);

/// Clamps a planned pool size to the externally imposed ceiling
/// (MonitorSnapshot::pool_cap, a multi-tenant arbiter share), if any.
/// pool_cap == 0 is a genuine zero share (all growth blocked), distinct from
/// kNoInstanceCap (no ceiling). A zero share must not strand the job: while
/// work remains, one already-live instance is kept rather than released — a
/// blocked tenant can never regrow, so giving up the last instance would
/// deadlock the run. (Arbiters floor shares at the live count, so this only
/// arises under manually imposed caps.)
std::uint32_t clamp_to_share(std::uint32_t planned,
                             const sim::MonitorSnapshot& snapshot);

/// When a release's sunk cost is charged.
enum class SunkCostAt : std::uint8_t {
  /// At the instance's charge boundary, when the drain takes effect
  /// (elapsed + time_to_next_charge).
  kChargeBoundary,
  /// At the current tick (elapsed so far).
  kNow,
};

/// Algorithm 2's shrink step: appends at-charge-boundary releases to `cmd`
/// until `stable` (stable_pool()) is down to `target`, or the candidates run
/// out. Candidates are ready, non-draining, non-revoking instances whose
/// charging unit expires before the next interval (time_to_next_charge <=
/// lag) and whose restart cost at risk is within restart_cost_fraction * u;
/// victims go cheapest first, ties broken on id (a total order, so replay
/// is byte-identical). The cost at risk is the largest unsalvaged progress
/// among the instance's running tasks at the moment `at`, never below its
/// floor: scheduled checkpointing (CheckpointConfig::enabled()) charges each
/// task's progress beyond its last committed checkpoint, while the legacy
/// model discounts the whole cost, floor included, by
/// 1 - CloudConfig::checkpoint_fraction. This is the only place a policy
/// reads the salvage model. `floors`, when non-null, supplies per-instance
/// cost floors (the lookahead's restart_cost); absent instances floor at 0.
/// `candidates`, when non-null, is a reusable buffer.
void release_toward(std::uint32_t target, std::uint32_t stable,
                    const sim::MonitorSnapshot& snapshot,
                    const sim::CloudConfig& config, SunkCostAt at,
                    const std::unordered_map<sim::InstanceId, double>* floors,
                    std::vector<VictimCandidate>* candidates,
                    sim::PoolCommand& cmd);

/// Charging units that newly start in (now, now + horizon] for a row whose
/// next unit begins `first_start_delta` seconds from now, recharging every
/// `charging_unit` seconds thereafter. The shared primitive of the burn
/// projection: policies::BudgetPolicy and planned_burn_units() below must
/// count recharges identically or budget enforcement drifts from the
/// projection the controller reports.
inline double units_starting_within(double first_start_delta, double horizon,
                                    double charging_unit) {
  if (first_start_delta > horizon) return 0.0;
  return 1.0 + std::floor((horizon - first_start_delta) / charging_unit);
}

/// Projected billing burn of holding the pool at `target_pool` for the next
/// `horizon` seconds: charging units that newly *start* in (now, now +
/// horizon], given the snapshot's live rows. Ready rows recharge on their own
/// clocks (time_to_next_charge); provisioning rows and the boots needed to
/// reach the target contribute their first unit even when it starts beyond
/// the horizon — a requested instance commits at least one unit the moment
/// it comes up, so the projection treats that money as already spoken for.
/// When the target is below the live count, surplus rows are projected away
/// in the shrink order budget enforcement uses (boots latest-ready-first,
/// then ready rows soonest-recharge-first) so the projection matches the
/// command a budget-capped policy would actually issue. Draining rows expire
/// at their boundary and burn nothing; revoking rows are projected like
/// ready ones (the provider may bill recharges until the revocation lands —
/// over-counting them only makes the projection conservative).
double planned_burn_units(const sim::MonitorSnapshot& snapshot,
                          const sim::CloudConfig& config,
                          std::uint32_t target_pool, double horizon);

}  // namespace wire::core
