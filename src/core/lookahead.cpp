#include "core/lookahead.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>

#include "core/steering.h"
#include "predict/memory_predictor.h"
#include "util/check.h"

namespace wire::core {

namespace detail {

/// The adaptive horizon cap: stop emitting queue-tail entries once the
/// steering decision can no longer change. The stopping rule runs Algorithm
/// 3's greedy packer online (same clamp, same retire/advance arithmetic):
/// its main-loop instance count after consuming a prefix is a lower bound on
/// the count after the full queue (the packer is an online algorithm — its
/// state after i entries is independent of later ones, and the final
/// leftover rule only ever adds one). Once that bound reaches the binding
/// pool ceiling, the planned size saturates at >= the ceiling for prefix and
/// full queue alike, so the clamped steering decision is identical; only the
/// unclamped demand signal (PoolCommand::desired_pool) saturates instead of
/// being exact, which is why the cap stays opt-in and off for multi-tenant
/// runs whose arbiter consumes that signal.
struct EmissionCap {
  bool enabled = false;
  /// The binding instance ceiling (snapshot.pool_cap, which already folds in
  /// the site capacity). Truncation starts once the online packer's
  /// main-loop count reaches this.
  std::uint32_t target_pool = 0;
};

}  // namespace detail

namespace {

/// Busy-slot heap order (top = front = earliest projected finish, ties on
/// task id). The heaps are kept with std::push_heap/pop_heap on the scratch
/// arena's vectors; the standard defines std::priority_queue as exactly
/// that, so the pop order is the priority queue's.
struct LaterFinish {
  bool operator()(const BusySlot& a, const BusySlot& b) const {
    if (a.finish != b.finish) return a.finish > b.finish;
    return a.task > b.task;
  }
};

}  // namespace

void simulate_interval(const dag::Workflow& workflow,
                       const sim::MonitorSnapshot& snapshot,
                       const predict::Estimator& predictor,
                       const sim::CloudConfig& config, LookaheadResult& result,
                       RunState* state, PlanScratch* scratch,
                       const predict::MemoryPredictor* memory,
                       bool adaptive_horizon) {
  using dag::TaskId;
  using sim::InstanceId;
  using sim::SimTime;
  using sim::TaskPhase;

  WIRE_REQUIRE(snapshot.tasks.size() == workflow.task_count(),
               "snapshot does not match the workflow");
  result.clear();
  PlanScratch local_scratch;
  PlanScratch& s = scratch != nullptr ? *scratch : local_scratch;

  // Incomplete-predecessor counters: borrowed from the RunState with an undo
  // log when it is current (restored on every exit path by the guard below),
  // else seeded from the snapshot.
  std::vector<std::uint32_t>* remaining_preds = &s.local_preds;
  std::vector<TaskId>* undo_log = nullptr;
  if (state != nullptr && state->ready()) {
    remaining_preds = &state->speculative_preds();
    undo_log = &s.undo;
    undo_log->clear();
  } else {
    s.local_preds.assign(workflow.task_count(), 0);
    for (const dag::TaskSpec& t : workflow.tasks()) {
      for (TaskId pred : workflow.predecessors(t.id)) {
        if (snapshot.tasks[pred].phase != TaskPhase::Completed) {
          ++s.local_preds[t.id];
        }
      }
    }
  }
  struct RestorePreds {
    std::vector<std::uint32_t>& preds;
    const std::vector<TaskId>* log;
    ~RestorePreds() {
      if (log == nullptr) return;
      for (TaskId t : *log) ++preds[t];
    }
  } restore{*remaining_preds, undo_log};

  const auto remaining_occ = [&](TaskId task) {
    return predictor.predict_remaining_occupancy(task, snapshot);
  };
  // From-scratch re-run occupancy (transfer + execution) for tasks requeued
  // off a draining/revoking instance.
  const auto fresh_occ = [&](TaskId task) {
    return predictor.transfer_estimate() +
           predictor.estimate_exec(task, snapshot);
  };
  // Predicted reservation of a projected dispatch; only consulted with the
  // memory dimension on.
  const auto mem_of = [&](TaskId task) {
    return memory != nullptr ? memory->predict_reservation(task, snapshot)
                             : 0.0;
  };
  detail::EmissionCap cap;
  if (adaptive_horizon && snapshot.pool_cap != sim::kNoInstanceCap) {
    cap.enabled = true;
    cap.target_pool = snapshot.pool_cap;
  }

  const SimTime now = snapshot.now;
  const SimTime horizon = now + config.lag_seconds;
  // Memory-on projections replace the free-slot heap with a per-instance
  // (slots, free memory) table mirroring the engine's ascending-id
  // first-fit admission scan; memory-off keeps the heap path untouched
  // (byte-identical to the pre-memory projection).
  const bool mem_on = config.memory.enabled();
  std::vector<ProjInstance>& mem_instances = s.mem_instances;
  mem_instances.clear();
  const auto mem_inst_of = [&](InstanceId id) -> ProjInstance& {
    const auto it = std::lower_bound(
        mem_instances.begin(), mem_instances.end(), id,
        [](const ProjInstance& p, InstanceId v) { return p.id < v; });
    WIRE_CHECK(it != mem_instances.end() && it->id == id,
               "projected instance vanished");
    return *it;
  };

  // Busy slots as a max-age heap ordered by LaterFinish (top = front,
  // earliest projected finish first).
  std::vector<BusySlot>& busy = s.busy;
  busy.clear();
  const auto busy_push = [&](const BusySlot& slot) {
    busy.push_back(slot);
    std::push_heap(busy.begin(), busy.end(), LaterFinish{});
  };
  const auto busy_pop = [&] {
    std::pop_heap(busy.begin(), busy.end(), LaterFinish{});
    busy.pop_back();
  };
  // Free slots as a min-heap of instance ids (duplicates = multiple free
  // slots): pops the lowest id exactly like the multiset this replaces, at a
  // fraction of the allocation cost.
  std::vector<InstanceId>& free_slots = s.free_slots;
  free_slots.clear();
  const auto free_push = [&](InstanceId inst) {
    free_slots.push_back(inst);
    std::push_heap(free_slots.begin(), free_slots.end(),
                   std::greater<InstanceId>{});
  };
  const auto free_pop = [&] {
    std::pop_heap(free_slots.begin(), free_slots.end(),
                  std::greater<InstanceId>{});
    free_slots.pop_back();
  };
  // FIFO ready queue as vector + cursor (entries before `ready_head` are
  // consumed); the queue only grows, so indices stay stable.
  std::vector<TaskId>& ready = s.ready;
  ready.assign(snapshot.ready_queue.begin(), snapshot.ready_queue.end());
  std::size_t ready_head = 0;
  // Tasks whose occupancy must be re-estimated from scratch (requeued off a
  // draining instance: their sunk progress is lost on restart).
  auto& occupancy_override = s.occupancy_override;
  occupancy_override.clear();
  // Instances booting within the interval: (boot time, id).
  auto& boots = s.boots;
  boots.clear();

  for (const sim::InstanceObservation& inst : snapshot.instances) {
    if (inst.draining || inst.revoking) {
      // Gone within the interval — at its charge boundary (drain) or at the
      // provider's announced reclamation (revocation notice): its tasks are
      // stranded and restart from zero, so the lookahead charges their full
      // re-run occupancy rather than the sunk-progress remainder.
      for (TaskId task : inst.running_tasks) {
        // A crash that raced the refresh can leave a requeued task both in
        // the instance's stale running_tasks list and in
        // snapshot.ready_queue. It is only stranded if the snapshot still
        // observes it Running; otherwise it is already queued and pushing it
        // here would project it twice (double dispatch, phantom load, and a
        // predecessor-underflow trip when both copies complete). Engine
        // snapshots are internally consistent, so this is the defensive
        // contract for archived or hand-built snapshots.
        if (snapshot.tasks[task].phase != TaskPhase::Running) continue;
        occupancy_override[task] = fresh_occ(task);
        ready.push_back(task);
      }
      continue;
    }
    if (inst.provisioning) {
      if (inst.ready_at <= horizon) boots.emplace_back(inst.ready_at, inst.id);
      continue;
    }
    double booked_mem = 0.0;
    for (TaskId task : inst.running_tasks) {
      BusySlot slot;
      slot.task = task;
      slot.instance = inst.id;
      slot.attempt_start = snapshot.tasks[task].occupancy_start;
      slot.finish = now + remaining_occ(task);
      slot.real = true;
      if (mem_on) {
        // An in-flight attempt's reservation is observable, not a
        // projection: the monitor reports what the dispatcher booked.
        slot.mem_mb = std::max(0.0, snapshot.tasks[task].mem_reservation_mb);
        booked_mem += slot.mem_mb;
      }
      busy_push(slot);
    }
    if (mem_on) {
      mem_instances.push_back(
          ProjInstance{inst.id, inst.free_slots,
                       config.memory.instance_mem_mb - booked_mem});
    } else {
      for (std::uint32_t k = 0; k < inst.free_slots; ++k) {
        free_push(inst.id);
      }
    }
  }
  std::sort(boots.begin(), boots.end());
  if (mem_on) {
    std::sort(mem_instances.begin(), mem_instances.end(),
              [](const ProjInstance& a, const ProjInstance& b) {
                return a.id < b.id;
              });
  }

  const auto occupancy_of = [&](TaskId task) {
    if (!occupancy_override.empty()) {
      const auto it = occupancy_override.find(task);
      if (it != occupancy_override.end()) return it->second;
    }
    return remaining_occ(task);
  };

  const auto dispatch_at = [&](SimTime t) {
    if (mem_on) {
      // Mirror of JobEngine's memory-aware admission: head-of-line FIFO —
      // the ascending-id scan takes the first instance with both a free
      // slot and enough free memory for the head task's reservation, and a
      // head that fits nowhere blocks the whole queue (no backfilling, in
      // the engine and here alike).
      while (ready_head < ready.size()) {
        const TaskId task = ready[ready_head];
        const double mem = mem_of(task);
        ProjInstance* target = nullptr;
        for (ProjInstance& pi : mem_instances) {
          if (pi.free_slots > 0 && pi.free_mem + 1e-9 >= mem) {
            target = &pi;
            break;
          }
        }
        if (target == nullptr) return;
        ++ready_head;
        --target->free_slots;
        target->free_mem -= mem;
        BusySlot slot;
        slot.task = task;
        slot.instance = target->id;
        slot.attempt_start = t;
        slot.finish = t + occupancy_of(task);
        slot.mem_mb = mem;
        busy_push(slot);
      }
      return;
    }
    while (ready_head < ready.size() && !free_slots.empty()) {
      const TaskId task = ready[ready_head++];
      const InstanceId inst = free_slots.front();
      free_pop();
      BusySlot slot;
      slot.task = task;
      slot.instance = inst;
      slot.attempt_start = t;
      slot.finish = t + occupancy_of(task);
      busy_push(slot);
    }
  };

  dispatch_at(now);

  // Observed-running tasks whose completion within the interval is predicted
  // but not yet observed. Their successors fire (that is the point of the
  // workflow simulator), but their slot is NOT released to the projected
  // ready queue and they stay in Q_task: the completion is speculative, the
  // predictions are conservative minimums, and handing the slot to queued
  // work would hide real queue pressure from the pool sizing.
  std::vector<BusySlot>& speculative = s.speculative;
  speculative.clear();
  std::size_t boot_cursor = 0;
  for (;;) {
    const SimTime next_finish = busy.empty()
                                    ? std::numeric_limits<SimTime>::infinity()
                                    : busy.front().finish;
    const SimTime next_boot = boot_cursor < boots.size()
                                  ? boots[boot_cursor].first
                                  : std::numeric_limits<SimTime>::infinity();
    const SimTime next_event = std::min(next_finish, next_boot);
    if (next_event > horizon) break;

    if (next_boot <= next_finish) {
      const InstanceId inst = boots[boot_cursor++].second;
      if (mem_on) {
        mem_instances.insert(
            std::lower_bound(
                mem_instances.begin(), mem_instances.end(), inst,
                [](const ProjInstance& p, InstanceId v) { return p.id < v; }),
            ProjInstance{inst, config.slots_per_instance,
                         config.memory.instance_mem_mb});
      } else {
        for (std::uint32_t k = 0; k < config.slots_per_instance; ++k) {
          free_push(inst);
        }
      }
      dispatch_at(next_boot);
      continue;
    }

    const BusySlot done = busy.front();
    busy_pop();
    ++result.projected_completions;
    for (TaskId succ : workflow.successors(done.task)) {
      WIRE_CHECK((*remaining_preds)[succ] > 0, "predecessor underflow");
      if (undo_log != nullptr) undo_log->push_back(succ);
      if (--(*remaining_preds)[succ] == 0) {
        ready.push_back(succ);
      }
    }
    if (done.real) {
      speculative.push_back(done);
      continue;
    }
    if (mem_on) {
      ProjInstance& pi = mem_inst_of(done.instance);
      ++pi.free_slots;
      pi.free_mem += done.mem_mb;
    } else {
      free_push(done.instance);
    }
    dispatch_at(done.finish);
  }

  // Q_task: tasks on slots at the horizon (by projected completion), then the
  // projected ready queue in dispatch order. With the cap on, Algorithm 3's
  // packer runs alongside over the steering-clamped occupancies resize_pool
  // would see.
  Alg3Packer packer(config.charging_unit_seconds, config.slots_per_instance,
                    config.restart_cost_fraction,
                    mem_on ? config.memory.instance_mem_mb : 0.0);
  result.upcoming.reserve(busy.size() + speculative.size() +
                          (ready.size() - ready_head));
  std::vector<BusySlot>& still_busy = s.still_busy;
  still_busy.clear();
  while (!busy.empty()) {
    still_busy.push_back(busy.front());
    busy_pop();
  }
  for (const BusySlot& slot : still_busy) {
    const double occ = std::max(0.0, slot.finish - horizon);
    result.upcoming.push_back(
        UpcomingTask{occ, slot.task, /*on_slot=*/true, slot.mem_mb});
    if (cap.enabled) {
      packer.add(std::max(occ, config.charging_unit_seconds), slot.mem_mb);
    }
    auto [it, inserted] = result.restart_cost.try_emplace(slot.instance, 0.0);
    it->second = std::max(it->second, horizon - slot.attempt_start);
  }
  for (const BusySlot& done : speculative) {
    result.upcoming.push_back(
        UpcomingTask{0.0, done.task, /*on_slot=*/true, done.mem_mb});
    if (cap.enabled) packer.add(config.charging_unit_seconds, done.mem_mb);
  }
  // On-slot entries are never truncated (their restart costs are charged
  // above regardless); only the queue tail is.
  std::uint32_t remaining_ready =
      static_cast<std::uint32_t>(ready.size() - ready_head);
  for (std::size_t q = ready_head; q < ready.size(); ++q) {
    if (cap.enabled && packer.count() >= cap.target_pool) {
      result.truncated_tasks = remaining_ready;
      break;
    }
    const TaskId task = ready[q];
    const double occ = occupancy_of(task);
    const double mem = mem_on ? mem_of(task) : 0.0;
    result.upcoming.push_back(UpcomingTask{occ, task, /*on_slot=*/false, mem});
    if (cap.enabled) packer.add(occ, mem);
    --remaining_ready;
  }
}

LookaheadResult simulate_interval(const dag::Workflow& workflow,
                                  const sim::MonitorSnapshot& snapshot,
                                  const predict::Estimator& predictor,
                                  const sim::CloudConfig& config,
                                  RunState* state, PlanScratch* scratch,
                                  const predict::MemoryPredictor* memory,
                                  bool adaptive_horizon) {
  LookaheadResult result;
  simulate_interval(workflow, snapshot, predictor, config, result, state,
                    scratch, memory, adaptive_horizon);
  return result;
}

}  // namespace wire::core
