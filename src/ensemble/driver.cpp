#include "ensemble/driver.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "sim/driver.h"
#include "sim/engine.h"
#include "util/check.h"
#include "workload/generators.h"

namespace wire::ensemble {

namespace {
constexpr sim::SimTime kNever = std::numeric_limits<sim::SimTime>::infinity();
/// Installed-grant placeholder of a tenant that has none yet (no real grant
/// has a negative bandwidth).
constexpr CheckpointGrant kNoGrant{-1.0, 0.0, 0.0, 0.0};

ArbiterConfig share_config(const EnsembleOptions& options,
                           const sim::CloudConfig& cloud) {
  ArbiterConfig config;
  config.site_cap = options.site_cap;
  if (options.memory_aware_demand) {
    config.instance_mem_mb = cloud.memory.instance_mem_mb;
  }
  return config;
}
}  // namespace

struct EnsembleDriver::Tenant {
  enum class State { Waiting, Active, Done };

  JobArrival arrival;
  dag::Workflow workflow;
  std::unique_ptr<sim::ScalingPolicy> policy;
  std::unique_ptr<sim::JobEngine> engine;
  State state = State::Waiting;
  /// Index in tenants_ (== arrival order) — the canonical tie-break.
  std::size_t index = 0;
  sim::SimTime admitted_at = -1.0;
  sim::SimTime completed_at = -1.0;
  sim::RunResult result;
  /// Listed in stepped_ (row refill due at the next rebalance).
  bool stepped = false;
  /// Checkpoint grant last installed (checkpoint channel on).
  CheckpointGrant grant = kNoGrant;

  Tenant(JobArrival a, dag::Workflow wf) : arrival(a), workflow(std::move(wf)) {}

  /// Site-clock time of the tenant's next internal event.
  sim::SimTime next_event_site_time() const {
    return admitted_at + engine->next_event_time();
  }

  /// Site-clock time of the tenant's next demand-relevant event (+inf for a
  /// completed engine awaiting retirement).
  sim::SimTime next_demand_site_time() const {
    return admitted_at + engine->next_demand_event_time();
  }
};

EnsembleDriver::~EnsembleDriver() = default;

EnsembleDriver::EnsembleDriver(std::vector<workload::WorkflowProfile> profiles,
                               ArrivalProcess arrivals,
                               PolicyFactory policy_factory,
                               const sim::CloudConfig& cloud,
                               const EnsembleOptions& options)
    : profiles_(std::move(profiles)),
      arrivals_(std::move(arrivals)),
      policy_factory_(std::move(policy_factory)),
      cloud_(cloud),
      options_(options),
      ledger_(options_.strategy, share_config(options_, cloud_)) {
  WIRE_REQUIRE(static_cast<bool>(policy_factory_), "need a policy factory");
  WIRE_REQUIRE(!profiles_.empty(), "need at least one workflow profile");
  WIRE_REQUIRE(options_.site_cap >= 1, "site cap must be at least one");
  WIRE_REQUIRE(options_.initial_instances >= 1,
               "jobs bootstrap with at least one instance");
  WIRE_REQUIRE(options_.shards <= 1,
               "EnsembleOptions::shards must be 0 (reference loop) or 1 "
               "(windowed loop)");
  // NaN must fail here: every later comparison against these fields is
  // false for NaN, so a NaN max_sim_seconds would silently disable the
  // stuck guard of the driver and of every tenant engine.
  WIRE_REQUIRE(std::isfinite(options_.max_sim_seconds) &&
                   options_.max_sim_seconds > 0.0,
               "EnsembleOptions::max_sim_seconds must be finite and positive");
  WIRE_REQUIRE(std::isfinite(options_.budget_units) &&
                   options_.budget_units >= 0.0,
               "EnsembleOptions::budget_units must be finite and "
               "non-negative");
  WIRE_REQUIRE(std::isfinite(options_.checkpoint_stagger_period_seconds) &&
                   options_.checkpoint_stagger_period_seconds >= 0.0,
               "EnsembleOptions::checkpoint_stagger_period_seconds must be "
               "finite and non-negative");
  for (const JobArrival& a : arrivals_.jobs()) {
    WIRE_REQUIRE(a.profile_index < profiles_.size(),
                 "arrival references an unknown profile");
  }
  // The arbiter share is the binding per-tenant ceiling; the per-tenant
  // engines must not additionally clip against a site-wide max_instances
  // they believe they own exclusively.
  cloud_.max_instances = 0;
  checkpoint_config_ = share_config(options_, cloud_);
  checkpoint_config_.checkpoint_bandwidth_mb_per_s =
      cloud_.checkpoint.channel_bandwidth_mb_per_s;
  checkpoint_config_.stagger_checkpoints = options_.stagger_checkpoints;
  checkpoint_config_.stagger_period_seconds =
      options_.checkpoint_stagger_period_seconds > 0.0
          ? options_.checkpoint_stagger_period_seconds
          : cloud_.lag_seconds;
  sample_.site_cap = options_.site_cap;
}

void EnsembleDriver::admit(Tenant& tenant, sim::SimTime now) {
  tenant.state = Tenant::State::Active;
  tenant.admitted_at = now;
  tenant.engine->start();
  key(tenant);
}

void EnsembleDriver::retire(Tenant& tenant, sim::SimTime now) {
  events_.erase(tenant.index);
  demands_.erase(tenant.index);
  retirements_.erase(tenant.index);
  tenant.state = Tenant::State::Done;
  tenant.completed_at = now;
  tenant.result = tenant.engine->result();
  busy_slot_seconds_ += tenant.result.busy_slot_seconds;
  allocated_instance_seconds_ += tenant.result.ready_instance_seconds;
  ledger_.erase(tenant.index);
  if (site_listener_) {
    const auto row = static_cast<std::ptrdiff_t>(sample_row(tenant));
    sample_.jobs.erase(sample_.jobs.begin() + row);
    sample_.live.erase(sample_.live.begin() + row);
    sample_.shares.erase(sample_.shares.begin() + row);
  }
}

/// (Re)keys a started tenant from its engine: next event and next
/// demand-relevant event while it runs, its retirement once it is done.
void EnsembleDriver::key(Tenant& tenant) {
  if (tenant.engine->done()) {
    events_.erase(tenant.index);
    demands_.erase(tenant.index);
    retirements_.set(tenant.index,
                     tenant.admitted_at + tenant.engine->end_time());
    return;
  }
  const sim::SimTime next = tenant.next_event_site_time();
  events_.set(tenant.index, next);
  // With the checkpoint channel on, every event is demand-relevant: local
  // events read the channel grant (writes run at the granted bandwidth,
  // fires wait for the granted window), and any event that completes a job
  // frees channel share for everyone else. So no tenant may run ahead.
  demands_.set(tenant.index, cloud_.checkpoint.enabled()
                                 ? next
                                 : tenant.next_demand_site_time());
}

void EnsembleDriver::mark_stepped(Tenant& tenant) {
  if (tenant.stepped) return;
  tenant.stepped = true;
  stepped_.push_back(&tenant);
}

std::size_t EnsembleDriver::sample_row(const Tenant& tenant) const {
  // Job ids are dense in arrival order, so the sample's job column is sorted.
  const auto it = std::lower_bound(sample_.jobs.begin(), sample_.jobs.end(),
                                   tenant.arrival.job);
  WIRE_CHECK(it != sample_.jobs.end() && *it == tenant.arrival.job,
             "tenant is not open");
  return static_cast<std::size_t>(it - sample_.jobs.begin());
}

void EnsembleDriver::admit_arrival(const JobArrival& a) {
  auto tenant = std::make_unique<Tenant>(
      a, workload::make_workflow(profiles_[a.profile_index], a.workflow_seed));
  tenant->index = tenants_.size();
  tenant->policy = policy_factory_();
  sim::RunOptions run_options;
  run_options.seed = a.run_seed;
  run_options.initial_instances = options_.initial_instances;
  run_options.max_sim_seconds = options_.max_sim_seconds;
  tenant->engine = std::make_unique<sim::JobEngine>(
      tenant->workflow, *tenant->policy, cloud_, run_options);
  ledger_.insert(tenant->index, demand_of(*tenant));
  if (site_listener_) {
    WIRE_CHECK(sample_.jobs.empty() || sample_.jobs.back() < a.job,
               "job ids must increase in arrival order");
    sample_.jobs.push_back(a.job);
    sample_.live.push_back(0);
    sample_.shares.push_back(0);  // set by the allocation that follows
  }
  tenants_.push_back(std::move(tenant));
}

TenantDemand EnsembleDriver::demand_of(const Tenant& t) const {
  TenantDemand d;
  d.job = t.arrival.job;
  d.arrival_seconds = t.arrival.arrival_seconds;
  if (t.state == Tenant::State::Active) {
    d.live_instances = t.engine->live_instances();
    d.requested_pool = t.engine->requested_pool();
    d.requested_mem_mb =
        options_.memory_aware_demand ? t.engine->requested_mem_mb() : 0.0;
    d.checkpoint_mb =
        cloud_.checkpoint.enabled() ? t.engine->checkpoint_demand_mb() : 0.0;
    // Until the tenant's first control tick the engine still carries the -1
    // "not reported" sentinel; a driver-level budget fills the gap so a
    // freshly admitted tenant bids with its full allowance instead of the
    // unbudgeted default weight.
    d.remaining_budget_units = t.engine->remaining_budget_units();
    if (d.remaining_budget_units < 0.0 && options_.budget_units > 0.0) {
      d.remaining_budget_units = options_.budget_units;
    }
  } else {
    d.live_instances = 0;
    d.requested_pool = options_.initial_instances;
    d.requested_mem_mb = 0.0;
    d.checkpoint_mb = 0.0;
    d.remaining_budget_units =
        options_.budget_units > 0.0 ? options_.budget_units : -1.0;
  }
  return d;
}

void EnsembleDriver::refresh_row(const Tenant& tenant) {
  const TenantDemand d = demand_of(tenant);
  if (d == ledger_.row(tenant.index)) return;
  ledger_.update(tenant.index, d);
  if (site_listener_) sample_.live[sample_row(tenant)] = d.live_instances;
}

void EnsembleDriver::rebalance(sim::SimTime now, bool refill_all) {
  // A row only goes stale when its tenant steps (admission refreshes it in
  // place), so the windowed loop refreshes just those rows; the sequential
  // reference loop rereads them all.
  for (Tenant* t : stepped_) {
    t->stepped = false;
    if (t->state != Tenant::State::Done) refresh_row(*t);
  }
  stepped_.clear();
  if (ledger_.size() == 0) return;
  if (refill_all) {
    for (const std::unique_ptr<Tenant>& t : tenants_) {
      if (t->state != Tenant::State::Done) refresh_row(*t);
    }
  }

  // Allocation is a pure function of the rows, so with no row changed since
  // the last rebalance every share, grant and listener field but the time
  // would come out the same.
  if (ledger_.pending()) allocate_and_install(now);
  if (site_listener_) {
    sample_.now = now;
    site_listener_(sample_);
  }
}

void EnsembleDriver::allocate_and_install(sim::SimTime now) {
  // Caps and admissions go to the tenants whose share moved, in arrival
  // order; every other tenant's installed cap already equals its share.
  for (const std::size_t index : ledger_.allocate()) {
    Tenant& t = *tenants_[index];
    const std::uint32_t share = ledger_.share(index);
    t.engine->set_instance_cap(share);
    if (site_listener_) sample_.shares[sample_row(t)] = share;
    // A waiting tenant holds cap 0 (or the engine default before its first
    // rebalance), so its admission always coincides with a cap change. Its
    // refreshed row is allocated at the next rebalance.
    if (t.state == Tenant::State::Waiting && share >= 1) {
      admit(t, now);
      refresh_row(t);
    }
  }

  // Checkpoint-channel arbitration rides the same pass, over every row. The
  // engine treats an unchanged bandwidth as a strict no-op and a window
  // install as a plain assignment, so skipping unchanged grants is exact;
  // only genuine changes (latched checkpoint demand moved at a control tick)
  // perturb a tenant's event stream, and those tenants are re-keyed.
  if (cloud_.checkpoint.enabled()) {
    const std::vector<CheckpointGrant> grants =
        allocate_checkpoint_windows(checkpoint_config_, ledger_.rows());
    for (std::size_t i = 0; i < grants.size(); ++i) {
      Tenant& t = *tenants_[ledger_.slot_at(i)];
      const CheckpointGrant& g = grants[i];
      if (g == t.grant || t.state != Tenant::State::Active) continue;
      t.grant = g;
      // Window offsets are site-anchored; the engine clock starts at
      // admission, so translate by -admitted_at.
      t.engine->set_checkpoint_channel(g.bandwidth_mb_per_s,
                                       now - t.admitted_at);
      t.engine->set_checkpoint_window(
          g.window_offset_seconds - t.admitted_at, g.window_length_seconds,
          g.window_period_seconds);
      key(t);
    }
  }

  WIRE_CHECK(ledger_.live_total() <= options_.site_cap,
             "tenants exceed the shared site cap");
  sample_.live_total = ledger_.live_total();
}

double EnsembleDriver::dedicated_makespan(const Tenant& tenant) {
  // The counterfactual: the identical job (same DAG, same ground-truth
  // seed, same policy kind) alone on the full site.
  sim::CloudConfig dedicated = cloud_;
  dedicated.max_instances = options_.site_cap;
  const std::unique_ptr<sim::ScalingPolicy> policy = policy_factory_();
  sim::RunOptions run_options;
  run_options.seed = tenant.arrival.run_seed;
  run_options.initial_instances = options_.initial_instances;
  run_options.max_sim_seconds = options_.max_sim_seconds;
  return sim::simulate(tenant.workflow, *policy, dedicated, run_options)
      .makespan;
}

void EnsembleDriver::run_sequential_loop() {
  // The historical reference loop: pop one site event at a time, in global
  // time order, scanning every tenant per event. Kept verbatim behind
  // shards == 0 as the byte-identity oracle for the windowed engine.
  std::size_t next_arrival = 0;
  const std::vector<JobArrival>& stream = arrivals_.jobs();

  for (;;) {
    // Earliest pending site event: the next arrival or the earliest internal
    // event among active tenants (ties: arrivals first, then lowest job id —
    // both fixed by construction, so the interleaving is deterministic).
    const sim::SimTime arrival_time = next_arrival < stream.size()
                                          ? stream[next_arrival].arrival_seconds
                                          : kNever;
    Tenant* next_tenant = nullptr;
    sim::SimTime tenant_time = kNever;
    for (const std::unique_ptr<Tenant>& t : tenants_) {
      if (t->state != Tenant::State::Active) continue;
      const sim::SimTime when = t->next_event_site_time();
      if (when < tenant_time) {
        tenant_time = when;
        next_tenant = t.get();
      }
    }
    if (arrival_time == kNever && next_tenant == nullptr) break;

    const sim::SimTime now = std::min(arrival_time, tenant_time);
    if (now > options_.max_sim_seconds) {
      throw std::runtime_error(
          "ensemble exceeded max_sim_seconds — site appears stuck");
    }

    if (arrival_time <= tenant_time) {
      admit_arrival(stream[next_arrival++]);
    } else {
      next_tenant->engine->step();
      if (next_tenant->engine->done()) {
        retire(*next_tenant, now);
      }
    }
    // Rebalance after every event: demands move on control ticks, floors
    // move on boots/releases, and retirements free whole shares.
    rebalance(now, /*refill_all=*/true);
  }
}

void EnsembleDriver::run_windowed_loop() {
  std::size_t next_arrival = 0;
  const std::vector<JobArrival>& stream = arrivals_.jobs();
  const sim::SimTime max = options_.max_sim_seconds;

  for (;;) {
    const sim::SimTime arrival_time = next_arrival < stream.size()
                                          ? stream[next_arrival].arrival_seconds
                                          : kNever;

    // Horizon: the earliest pending event that can change any tenant's
    // demand state or read its cap. Everything strictly below it is local to
    // one engine and commutes across tenants.
    const sim::SimTime horizon =
        demands_.empty() ? arrival_time
                         : std::min(arrival_time, demands_.top().first);

    // Advance phase: every tenant whose next event lies strictly below the
    // horizon steps through its local events up to it. Local handlers never
    // touch caps or demand, so this is byte-equivalent to processing the same
    // events interleaved in global time order.
    while (!events_.empty()) {
      const KeyedHeap::Key top = events_.top();
      if (top.first >= horizon || top.first > max) break;
      Tenant& t = *tenants_[top.second];
      while (!t.engine->done()) {
        const sim::SimTime when = t.next_event_site_time();
        if (when >= horizon || when > max) break;
        t.engine->step();
      }
      WIRE_CHECK(t.engine->done() || t.next_demand_site_time() >= horizon,
                 "local advance crossed a demand-relevant event");
      // Re-keys t at or past the horizon (or out of the event heap), so the
      // pop loop never sees it again this window.
      key(t);
      mark_stepped(t);
    }

    // Serial phase: exactly one site action — the earliest among the next
    // arrival, pending retirements (engines that completed during an
    // advance, at their completion times), and tenant events (all >= horizon
    // now). Ties: arrivals first, then lowest tenant index — the same total
    // order the sequential reference scan induces, because the heaps order
    // by (time, index).
    Tenant* next_tenant = nullptr;
    sim::SimTime tenant_time = kNever;
    if (!events_.empty() || !retirements_.empty()) {
      const KeyedHeap::Key top =
          retirements_.empty() ? events_.top()
          : events_.empty()    ? retirements_.top()
                               : std::min(events_.top(), retirements_.top());
      tenant_time = top.first;
      next_tenant = tenants_[top.second].get();
    }
    if (arrival_time == kNever && next_tenant == nullptr) break;

    const sim::SimTime now = std::min(arrival_time, tenant_time);
    if (now > max) {
      throw std::runtime_error(
          "ensemble exceeded max_sim_seconds — site appears stuck");
    }

    if (arrival_time <= tenant_time) {
      admit_arrival(stream[next_arrival++]);
    } else if (next_tenant->engine->done()) {
      retire(*next_tenant, now);
    } else {
      next_tenant->engine->step();
      if (next_tenant->engine->done()) {
        retire(*next_tenant, now);
      } else {
        key(*next_tenant);
        mark_stepped(*next_tenant);
      }
    }
    rebalance(now, /*refill_all=*/false);
  }
}

EnsembleReport EnsembleDriver::assemble_report() {
  EnsembleReport report;
  report.tenant_policy = tenants_.empty()
                             ? std::string("none")
                             : tenants_.front()->result.policy_name;
  report.arbiter_strategy = strategy_name(options_.strategy);
  report.site_cap = options_.site_cap;
  report.slots_per_instance = cloud_.slots_per_instance;

  for (const std::unique_ptr<Tenant>& t : tenants_) {
    WIRE_CHECK(t->state == Tenant::State::Done, "unfinished tenant at exit");
    JobOutcome j;
    j.job = t->arrival.job;
    j.workflow_name = t->workflow.name();
    j.arrival_seconds = t->arrival.arrival_seconds;
    j.admitted_seconds = t->admitted_at;
    j.completed_seconds = t->completed_at;
    j.queue_wait_seconds = t->admitted_at - t->arrival.arrival_seconds;
    j.makespan_seconds = t->result.makespan;
    if (options_.dedicated_baseline) {
      j.dedicated_makespan_seconds = dedicated_makespan(*t);
      j.slowdown = (j.queue_wait_seconds + j.makespan_seconds) /
                   j.dedicated_makespan_seconds;
    }
    j.cost_units = t->result.cost_units;
    j.budget_units = options_.budget_units;
    if (j.budget_units > 0.0) {
      j.over_budget_units = std::max(0.0, j.cost_units - j.budget_units);
    }
    j.peak_instances = t->result.peak_instances;
    j.task_restarts = t->result.task_restarts;
    j.task_faults = t->result.task_faults;
    j.instance_crashes = t->result.instance_crashes;
    j.quarantined_tasks =
        static_cast<std::uint32_t>(t->result.quarantined_tasks.size());
    report.jobs.push_back(std::move(j));
  }
  report.finalize(busy_slot_seconds_, allocated_instance_seconds_);
  return report;
}

EnsembleReport EnsembleDriver::run() {
  WIRE_REQUIRE(!ran_, "ensemble already ran");
  ran_ = true;
  if (options_.shards == 0) {
    run_sequential_loop();
  } else {
    run_windowed_loop();
  }
  return assemble_report();
}

}  // namespace wire::ensemble
