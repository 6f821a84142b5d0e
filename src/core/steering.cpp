#include "core/steering.h"

#include <algorithm>

#include "util/check.h"

namespace wire::core {

namespace {

/// The restart cost at risk if `inst` is released (see release_toward).
double unsalvaged_cost_at_risk(const sim::InstanceObservation& inst,
                               const sim::MonitorSnapshot& snapshot,
                               const sim::CloudConfig& config, SunkCostAt at,
                               double floor) {
  // `+ 0.0` for kNow is exact, so both charging points share one formula.
  const double until =
      at == SunkCostAt::kChargeBoundary ? inst.time_to_next_charge : 0.0;
  double cost = floor;
  if (config.checkpoint.enabled()) {
    // Scheduled checkpointing: a killed task restarts from its last
    // committed checkpoint, so the cost at risk is the progress beyond the
    // durable prefix — not a blanket fraction of everything.
    for (dag::TaskId task : inst.running_tasks) {
      const sim::TaskObservation& obs = snapshot.tasks[task];
      cost = std::max(
          cost, std::max(0.0, obs.elapsed + until - obs.checkpointed_exec));
    }
    return cost;
  }
  for (dag::TaskId task : inst.running_tasks) {
    cost = std::max(cost, snapshot.tasks[task].elapsed + until);
  }
  // Legacy fractional checkpointing salvages that fraction of a killed
  // task's progress, so only the remainder is genuinely at risk.
  return cost * (1.0 - config.checkpoint_fraction);
}

}  // namespace

std::uint32_t resize_pool(const std::vector<double>& upcoming,
                          double charging_unit,
                          std::uint32_t slots_per_instance,
                          double leftover_fraction) {
  WIRE_REQUIRE(charging_unit > 0.0, "charging unit must be positive");
  WIRE_REQUIRE(slots_per_instance > 0, "need at least one slot");
  if (upcoming.empty()) return 0;
  Alg3Packer packer(charging_unit, slots_per_instance, leftover_fraction);
  for (double occupancy : upcoming) packer.add(occupancy);
  return packer.finish();
}

std::uint32_t resize_pool(const std::vector<double>& upcoming,
                          const std::vector<double>& mem_mb,
                          double charging_unit,
                          std::uint32_t slots_per_instance,
                          double leftover_fraction, double instance_mem_mb) {
  WIRE_REQUIRE(charging_unit > 0.0, "charging unit must be positive");
  WIRE_REQUIRE(slots_per_instance > 0, "need at least one slot");
  WIRE_REQUIRE(mem_mb.size() == upcoming.size(),
               "reservation vector must parallel the occupancies");
  if (upcoming.empty()) return 0;
  Alg3Packer packer(charging_unit, slots_per_instance, leftover_fraction,
                    instance_mem_mb);
  for (std::size_t i = 0; i < upcoming.size(); ++i) {
    packer.add(upcoming[i], mem_mb[i]);
  }
  return packer.finish();
}

sim::PoolCommand steer(const LookaheadResult& lookahead,
                       const sim::MonitorSnapshot& snapshot,
                       const sim::CloudConfig& config,
                       std::uint32_t* planned_size,
                       bool reclaim_draining,
                       PlanScratch* scratch) {
  sim::PoolCommand cmd;

  // §III-D: Algorithm 3 assumes Q_task is non-empty; with an empty upcoming
  // load it retains a minimal pool until the next control iteration (or the
  // workflow terminates).
  std::uint32_t planned = 0;
  if (lookahead.upcoming.empty()) {
    planned = snapshot.incomplete_tasks > 0 ? 1u : 0u;
  } else {
    PlanScratch local_scratch;
    PlanScratch& s = scratch != nullptr ? *scratch : local_scratch;
    std::vector<double>& occupancy = s.occupancy;
    occupancy.clear();
    occupancy.reserve(lookahead.upcoming.size());
    const bool mem_on = config.memory.enabled();
    std::vector<double>& mem = s.occupancy_mem;
    mem.clear();
    if (mem_on) mem.reserve(lookahead.upcoming.size());
    for (const UpcomingTask& t : lookahead.upcoming) {
      // A task projected to be on a slot at the interval start physically
      // owns that slot: Algorithm 3's greedy packing must not time-multiplex
      // it with other work below one charging unit, or the conservative
      // minimum predictions ("about to complete") would let the packer
      // compress the currently running set onto fewer instances than are
      // actually occupied — a stable under-provisioning fixpoint. Pinning
      // on-slot tasks at a full unit reproduces the §III-E growth behaviour
      // (the pool reaches N within one charging unit for the linear
      // workflows of Figs. 2-3).
      occupancy.push_back(t.on_slot
                              ? std::max(t.remaining_occupancy,
                                         config.charging_unit_seconds)
                              : t.remaining_occupancy);
      if (mem_on) mem.push_back(t.mem_mb);
    }
    planned = mem_on
                  ? resize_pool(occupancy, mem, config.charging_unit_seconds,
                                config.slots_per_instance,
                                config.restart_cost_fraction,
                                config.memory.instance_mem_mb)
                  : resize_pool(occupancy, config.charging_unit_seconds,
                                config.slots_per_instance,
                                config.restart_cost_fraction);
  }

  if (planned_size != nullptr) *planned_size = planned;

  // Multi-tenant runs impose an external pool ceiling (the site arbiter's
  // share). The unconstrained Algorithm-3 size stays the reported demand
  // signal; the command steers toward the clamped size, so capacity beyond
  // the share is neither requested (to be clipped) nor held (instances above
  // the ceiling drain at their charge boundaries once the share shrinks).
  cmd.desired_pool = planned;
  const std::uint32_t p = clamp_to_share(planned, snapshot);
  const std::uint32_t m = stable_pool(snapshot);

  if (p > m) {
    std::uint32_t deficit = p - m;
    if (reclaim_draining) {
      // Cancelling a drain restores capacity instantly and costs nothing
      // extra (the unit keeps running) — always preferable to a boot. A
      // revoking drain is not worth reclaiming: the provider kills it soon
      // regardless.
      for (const sim::InstanceObservation& inst : snapshot.instances) {
        if (deficit == 0) break;
        if (inst.draining && !inst.revoking) {
          cmd.cancel_drains.push_back(inst.id);
          --deficit;
        }
      }
    }
    cmd.grow = deficit;
    return cmd;
  }

  // The lookahead only charges tasks projected to survive the interval, but
  // its occupancy predictions are conservative *minimums* ("about to
  // complete"). A task that has already sunk real time into this instance
  // would pay that cost again if the drain beats its actual completion, so
  // the release decision also respects the observed sunk cost at the drain
  // moment (elapsed so far + time to the charge boundary).
  release_toward(p, m, snapshot, config, SunkCostAt::kChargeBoundary,
                 &lookahead.restart_cost,
                 scratch != nullptr ? &scratch->candidates : nullptr, cmd);
  return cmd;
}

std::uint32_t stable_pool(const sim::MonitorSnapshot& snapshot) {
  std::uint32_t m = 0;
  for (const sim::InstanceObservation& inst : snapshot.instances) {
    if (!inst.draining && !inst.revoking) ++m;
  }
  return m;
}

std::uint32_t clamp_to_share(std::uint32_t planned,
                             const sim::MonitorSnapshot& snapshot) {
  if (snapshot.pool_cap == sim::kNoInstanceCap) return planned;
  std::uint32_t target = std::min(planned, snapshot.pool_cap);
  if (target == 0 && snapshot.incomplete_tasks > 0 &&
      !snapshot.instances.empty()) {
    target = 1;
  }
  return target;
}

void release_toward(std::uint32_t target, std::uint32_t stable,
                    const sim::MonitorSnapshot& snapshot,
                    const sim::CloudConfig& config, SunkCostAt at,
                    const std::unordered_map<sim::InstanceId, double>* floors,
                    std::vector<VictimCandidate>* candidates,
                    sim::PoolCommand& cmd) {
  if (target >= stable) return;
  std::vector<VictimCandidate> local_candidates;
  std::vector<VictimCandidate>& victims =
      candidates != nullptr ? *candidates : local_candidates;
  victims.clear();
  const double threshold =
      config.restart_cost_fraction * config.charging_unit_seconds;
  for (const sim::InstanceObservation& inst : snapshot.instances) {
    if (inst.provisioning || inst.draining || inst.revoking) continue;
    if (inst.time_to_next_charge > config.lag_seconds) continue;
    double floor = 0.0;
    if (floors != nullptr) {
      const auto it = floors->find(inst.id);
      if (it != floors->end()) floor = it->second;
    }
    const double cost =
        unsalvaged_cost_at_risk(inst, snapshot, config, at, floor);
    if (cost > threshold) continue;
    victims.push_back(VictimCandidate{inst.id, cost});
  }
  // The comparator is a total order (instance ids are unique), so the victim
  // sequence is deterministic regardless of the standard library's sort
  // internals — a bare key comparison would leave equal-cost ties in an
  // implementation-defined order and silently break byte-identical replay.
  std::sort(victims.begin(), victims.end(),
            [](const VictimCandidate& a, const VictimCandidate& b) {
              if (a.restart_cost != b.restart_cost) {
                return a.restart_cost < b.restart_cost;
              }
              return a.id < b.id;
            });
  std::uint32_t remaining = stable;
  for (const VictimCandidate& c : victims) {
    if (remaining == target) break;
    cmd.releases.push_back(sim::Release{c.id, /*at_charge_boundary=*/true});
    --remaining;
  }
}

double planned_burn_units(const sim::MonitorSnapshot& snapshot,
                          const sim::CloudConfig& config,
                          std::uint32_t target_pool, double horizon) {
  WIRE_REQUIRE(config.charging_unit_seconds > 0.0,
               "charging unit must be positive");
  WIRE_REQUIRE(horizon >= 0.0, "horizon must be non-negative");
  const double u = config.charging_unit_seconds;

  // Split the live rows: ready (and revoking — projected conservatively as
  // if they keep recharging) versus still-provisioning boots. Draining rows
  // expire at their boundary without recharging and never count toward the
  // held pool.
  struct ReadyRow {
    sim::InstanceId id;
    double ttc;
  };
  struct BootRow {
    sim::InstanceId id;
    double ready_delta;
  };
  std::vector<ReadyRow> ready;
  std::vector<BootRow> boots;
  for (const sim::InstanceObservation& inst : snapshot.instances) {
    if (inst.draining) continue;
    if (inst.provisioning) {
      boots.push_back(
          BootRow{inst.id, std::max(0.0, inst.ready_at - snapshot.now)});
    } else {
      ready.push_back(ReadyRow{inst.id, inst.time_to_next_charge});
    }
  }
  std::uint32_t live = static_cast<std::uint32_t>(ready.size() + boots.size());

  // Shrink toward the target in budget-enforcement order: cancel the boots
  // that arrive last first (capacity that never materialised is the cheapest
  // to give up), then drain the ready rows whose unit recharges soonest
  // (the largest near-term saving). Ties break on id for determinism.
  if (target_pool < live) {
    std::sort(boots.begin(), boots.end(), [](const BootRow& a,
                                             const BootRow& b) {
      if (a.ready_delta != b.ready_delta) return a.ready_delta > b.ready_delta;
      return a.id > b.id;
    });
    std::sort(ready.begin(), ready.end(), [](const ReadyRow& a,
                                             const ReadyRow& b) {
      if (a.ttc != b.ttc) return a.ttc < b.ttc;
      return a.id < b.id;
    });
    std::uint32_t drop = live - target_pool;
    const std::uint32_t boot_drop =
        std::min(drop, static_cast<std::uint32_t>(boots.size()));
    boots.resize(boots.size() - boot_drop);
    drop -= boot_drop;
    ready.erase(ready.begin(),
                ready.begin() + std::min<std::size_t>(drop, ready.size()));
    live = target_pool;
  }

  double burn = 0.0;
  for (const ReadyRow& row : ready) {
    burn += units_starting_within(row.ttc, horizon, u);
  }
  for (const BootRow& row : boots) {
    // Committed-first-unit semantics: a boot in flight owes its first unit
    // whenever it lands, horizon or not.
    burn += std::max(1.0, units_starting_within(row.ready_delta, horizon, u));
  }
  if (target_pool > live) {
    const double grow_burn =
        std::max(1.0, units_starting_within(config.lag_seconds, horizon, u));
    burn += static_cast<double>(target_pool - live) * grow_burn;
  }
  return burn;
}

}  // namespace wire::core
