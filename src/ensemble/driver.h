// The ensemble driver: runs a stream of workflow jobs on one shared cloud
// site. Each job gets its own FrameworkMaster + ScalingPolicy instance (a
// fresh one from the policy factory) wrapped in a sim::JobEngine; the driver
// multiplexes the engines over a single site clock, interleaving their
// discrete events in global time order. The SiteArbiter partitions the site
// instance cap among live jobs after every event; each tenant's engine
// enforces its share on the grow path and surfaces it to the tenant's policy
// through MonitorSnapshot::pool_cap.
//
// Isolation contract: a tenant's policy sees only its own job — its DAG, its
// task observations, its instances, its share as pool_cap. Nothing about
// other tenants (not even their existence) leaks through the monitoring
// surface; cross-tenant coupling happens exclusively through the arbiter's
// capacity partition.
//
// pool_cap semantics under the arbiter: an admitted tenant always sees its
// explicit share (1..site_cap) — never sim::kNoInstanceCap, which would mean
// "no ceiling imposed". A share of 0 is reported as a genuine 0 (all growth
// blocked), no longer conflated with the unlimited sentinel; arbiters floor
// a tenant's share at its live instance count, so 0 can only reach a tenant
// that currently holds no instances.
//
// Execution model (keyed windowed stepping): the driver keeps three indexed
// min-heaps of (site time, tenant index) keys (KeyedHeap) — each active
// tenant's next event, its next *demand-relevant* event (ControlTick /
// InstanceDrain / InstanceCrash / fault-mode InstanceReady, see
// JobEngine::next_demand_event_time), and, for tenants whose engine finished,
// the pending retirement at admitted_at + end_time(). A tenant's keys move
// only when the tenant does: after it steps, at admission, at retirement,
// and after a checkpoint grant is installed on it. Each iteration takes the
// horizon H = min(next arrival, top of the demand set), pops the tenants
// whose next event lies strictly below H and steps each one up to H (local
// events never read the instance cap and never move the demand signal, so
// the order across tenants does not matter), then serially processes exactly
// one site event: the next arrival if it is due, else the smaller of the
// event-heap and retirement-heap tops. The (time, index) key reproduces the
// sequential scan's tie-break (arrivals first, then lowest tenant index), so
// the result is byte-identical to the fully sequential reference loop
// (EnsembleOptions::shards == 0; tests/test_ensemble_sharded.cpp proves the
// equivalence differentially). Everything runs on the calling thread. With
// the site's checkpoint channel on, every event counts as demand-relevant
// (local events read the channel grant, and any event can complete a job and
// free channel share), so no tenant runs ahead and the loop steps one event
// at a time.
//
// Arbitration keeps one TenantDemand row per open tenant in a ShareLedger,
// keyed by tenant index, across serial events. A rebalance refreshes only the
// rows of tenants that stepped or were admitted since the previous one,
// re-runs the allocation when any row was inserted, updated or erased (it is
// a pure function of the rows), and installs a cap only on the tenants whose
// share the ledger reports as moved. Under DemandWeighted the ledger updates
// shares in O(changed rows) per serial event instead of re-running the
// allocation over every open tenant; the allocation arithmetic and its
// (arrival, job id) tie-breaks are the reference loop's. Checkpoint-channel
// grants, when the channel is on, stay a full pass over the rows.
//
// Policy-state sharing: no two tenant policies ever run at once — tenants
// step one at a time and plan() only at control ticks — and the
// dedicated-baseline replays run one after another once the stream drains.
// So a PolicyFactory may share scratch (exp::policy_factory shares one
// core::PlanScratch) across every policy it mints.
//
// Site listener cadence: the windowed loop emits SiteSamples at serial events
// only (arrivals, demand-relevant tenant events, retirements) — the points
// where shares can actually move; with the checkpoint channel on that is
// every event. The shards == 0 reference loop keeps the historical
// after-every-event cadence. Share values and the capacity invariant are
// identical at the shared points.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "ensemble/arbiter.h"
#include "ensemble/arrival.h"
#include "ensemble/keyed_heap.h"
#include "ensemble/report.h"
#include "sim/config.h"
#include "sim/scaling_policy.h"
#include "workload/profiles.h"

namespace wire::ensemble {

/// Creates one fresh policy instance per job (tenant controllers share no
/// state across jobs).
using PolicyFactory =
    std::function<std::unique_ptr<sim::ScalingPolicy>()>;

struct EnsembleOptions {
  ArbiterStrategy strategy = ArbiterStrategy::StaticFairShare;
  /// Shared site capacity partitioned by the arbiter (>= 1).
  std::uint32_t site_cap = 12;
  /// Per-job bootstrap pool at admission, clamped to the job's share.
  std::uint32_t initial_instances = 1;
  /// Hard guard against a stuck ensemble (site clock).
  sim::SimTime max_sim_seconds = 90.0 * 24.0 * 3600.0;
  /// Also run every job alone on the full site (same workflow, policy kind,
  /// seeds) to compute the dedicated-site makespan that per-job slowdown is
  /// measured against. Doubles the simulation work; disable for quick runs
  /// (slowdown and dedicated makespan then report 0).
  bool dedicated_baseline = true;
  /// Which loop runs the stream: 1 = the windowed loop; 0 = the fully
  /// sequential reference loop, kept as the byte-identity oracle for tests
  /// and bench_scale. The EnsembleReport is identical under both; any other
  /// value is rejected.
  std::uint32_t shards = 1;
  /// Feed each tenant's projected memory demand
  /// (JobEngine::requested_mem_mb) into demand-weighted arbitration via
  /// ArbiterConfig::instance_mem_mb taken from the site's MemoryConfig. Off
  /// by default: baselines stay byte-identical.
  bool memory_aware_demand = false;
  /// Per-tenant budget (charging units) every job of the stream runs under;
  /// 0 disables budget accounting entirely (byte-identical baselines). The
  /// driver does not enforce the budget itself — the tenant's own
  /// policies::BudgetPolicy does (mint one through exp::budget_policy_factory
  /// with BudgetOptions::budget_units equal to this) — but it seeds the
  /// demand signal: a tenant whose engine has not yet reported a remaining
  /// budget bids with the full amount, and the report's per-job budget /
  /// overrun counters are measured against it.
  double budget_units = 0.0;
  /// Cooperative checkpoint staggering on the shared checkpoint channel
  /// (only meaningful when the site's CheckpointConfig is enabled). Off:
  /// tenants with checkpoint pressure share the channel concurrently — each
  /// is installed its diluted bandwidth share. On: the arbiter serializes
  /// access into round-robin windows at full bandwidth
  /// (allocate_checkpoint_windows).
  bool stagger_checkpoints = false;
  /// Staggering round length (seconds); 0 = the site's control lag.
  double checkpoint_stagger_period_seconds = 0.0;
};

/// Site-level observation emitted after every processed event (arrival,
/// tenant event, retirement) once shares are rebalanced. Tests use it to
/// assert the capacity invariant at every control point. The driver keeps
/// one sample up to date in place (a row per arrival, removed at
/// retirement, fields rewritten only where they moved) and passes it to
/// every listener call.
struct SiteSample {
  sim::SimTime now = 0.0;
  std::uint32_t site_cap = 0;
  /// Sum of live instances across all tenants (<= site_cap, invariant).
  std::uint32_t live_total = 0;
  /// Per-tenant rows, one for every job that has arrived but not finished,
  /// in arrival order.
  std::vector<std::uint32_t> jobs;
  std::vector<std::uint32_t> live;
  std::vector<std::uint32_t> shares;
};

class EnsembleDriver {
 public:
  /// `profiles` is the workflow catalogue the arrival stream indexes into;
  /// `cloud` describes one site instance (its max_instances is ignored —
  /// EnsembleOptions::site_cap is the shared ceiling, and the per-tenant
  /// engines are capped by their arbiter shares instead). Rejects options
  /// outside their documented domains, naming the offending field.
  EnsembleDriver(std::vector<workload::WorkflowProfile> profiles,
                 ArrivalProcess arrivals, PolicyFactory policy_factory,
                 const sim::CloudConfig& cloud,
                 const EnsembleOptions& options = {});
  ~EnsembleDriver();  // out of line: Tenant is private to the .cpp

  /// Observer invoked after every processed site event (optional).
  void set_site_listener(std::function<void(const SiteSample&)> listener) {
    site_listener_ = std::move(listener);
  }

  /// Runs the whole stream to completion and reports. Deterministic in
  /// (profiles, arrivals, policy factory output, cloud, options): two runs
  /// with identical inputs produce byte-identical reports. Call once.
  EnsembleReport run();

 private:
  struct Tenant;

  void admit(Tenant& tenant, sim::SimTime now);
  void retire(Tenant& tenant, sim::SimTime now);
  void key(Tenant& tenant);
  void mark_stepped(Tenant& tenant);
  /// The tenant's current demand row, read from its engine.
  TenantDemand demand_of(const Tenant& tenant) const;
  /// Hands the tenant's demand row to the ledger if it changed.
  void refresh_row(const Tenant& tenant);
  /// The tenant's row in sample_ (listener runs only).
  std::size_t sample_row(const Tenant& tenant) const;
  /// Refreshes stale rows (every open row with `refill_all`), re-runs the
  /// allocation if any row changed, and notifies the site listener.
  void rebalance(sim::SimTime now, bool refill_all);
  void allocate_and_install(sim::SimTime now);
  void admit_arrival(const JobArrival& a);
  void run_sequential_loop();
  void run_windowed_loop();
  EnsembleReport assemble_report();
  double dedicated_makespan(const Tenant& tenant);

  std::vector<workload::WorkflowProfile> profiles_;
  ArrivalProcess arrivals_;
  PolicyFactory policy_factory_;
  sim::CloudConfig cloud_;
  EnsembleOptions options_;
  std::function<void(const SiteSample&)> site_listener_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  /// Demand rows of the arrived, not yet retired tenants, keyed by tenant
  /// index, and the channel arbitration parameters (checkpoint channel on).
  ShareLedger ledger_;
  ArbiterConfig checkpoint_config_;
  /// Tenants stepped since the last rebalance (their rows are stale).
  std::vector<Tenant*> stepped_;
  /// Keyed by tenant index: next event and next demand-relevant event of
  /// every active unfinished tenant, and pending retirements. Only the
  /// windowed loop reads them.
  KeyedHeap events_;
  KeyedHeap demands_;
  KeyedHeap retirements_;
  /// The listener payload, kept current while a listener is set.
  SiteSample sample_;
  double busy_slot_seconds_ = 0.0;
  double allocated_instance_seconds_ = 0.0;
  bool ran_ = false;
};

}  // namespace wire::ensemble
