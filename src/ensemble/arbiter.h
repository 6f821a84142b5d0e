// The site arbiter: partitions one shared instance cap among live tenants.
//
// Per-tenant cap semantics (the contract every strategy obeys):
//
//   1. `share[i] >= live_instances[i]` — a share never drops below what the
//      tenant currently holds. The arbiter does not preempt: capacity flows
//      between tenants only as their own scaling policies release instances
//      (at charge boundaries, under the steering discipline). A tenant whose
//      share shrank below its previous value simply cannot grow until its
//      pool drains down.
//   2. `sum(share) <= site_cap` — shares are an exclusive partition of the
//      site. Together with (1) and the engine-side grow clipping this makes
//      `sum(live) <= site_cap` an invariant at every event, not just at
//      control ticks.
//   3. Allocation is a pure function of (strategy, site_cap, tenants) with
//      deterministic tie-breaking (arrival time, then job id), so ensemble
//      runs are byte-reproducible.
//
// Strategies:
//   FifoExclusive   — the whole site goes to the oldest unfinished job;
//                     later arrivals wait in a FIFO queue (batch-queue
//                     semantics, the zero-sharing baseline).
//   StaticFairShare — every live tenant is entitled to ~cap/n; spare
//                     capacity beyond the entitlements is handed out
//                     round-robin in arrival order.
//   DemandWeighted  — spare capacity (cap - sum(live)) is split in
//                     proportion to each tenant's unmet demand, where demand
//                     is the pool size the tenant's controller last asked
//                     for (PoolCommand::desired_pool — WIRE's unclamped
//                     Algorithm-3 size, the reactive baselines' load
//                     target). Capacity nobody demands stays unallocated
//                     and is re-offered at the next reallocation.
//   BudgetWeighted  — tenants bid with their unmet demand *scaled by
//                     remaining budget* (TenantDemand::remaining_budget_units,
//                     the spend signal a policies::BudgetPolicy reports
//                     through the engine): money left to burn is what turns
//                     demand into a credible bid. An exhausted tenant
//                     (remaining == 0) bids nothing beyond the
//                     minimum-progress floor — one instance while it has
//                     unmet demand — and a tenant that reports no budget at
//                     all (-1) bids as if one unit remained, so mixed
//                     budgeted/unbudgeted ensembles stay well-defined.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "sim/config.h"

namespace wire::ensemble {

enum class ArbiterStrategy {
  FifoExclusive,
  StaticFairShare,
  DemandWeighted,
  BudgetWeighted,
};

const char* strategy_name(ArbiterStrategy strategy);

/// All four strategies, in the order above (bench sweeps).
std::vector<ArbiterStrategy> all_strategies();

/// One tenant's state as the arbiter sees it.
struct TenantDemand {
  std::uint32_t job = 0;
  sim::SimTime arrival_seconds = 0.0;
  /// Instances the tenant currently holds (provisioning + ready) — the floor
  /// of its share.
  std::uint32_t live_instances = 0;
  /// Pool size the tenant's controller wants (>= 1 for a tenant that still
  /// has work; waiting tenants report their bootstrap size).
  std::uint32_t requested_pool = 0;
  /// Projected memory demand (MB) the tenant's controller reported
  /// (JobEngine::requested_mem_mb); 0.0 = not reported. Only consulted by
  /// memory-aware arbitration (ArbiterConfig::instance_mem_mb > 0).
  double requested_mem_mb = 0.0;
  /// Checkpoint bytes (MB) the tenant's running set would write
  /// (JobEngine::checkpoint_demand_mb); 0.0 = no checkpoint pressure. Only
  /// consulted by checkpoint-channel arbitration
  /// (ArbiterConfig::checkpoint_bandwidth_mb_per_s > 0).
  double checkpoint_mb = 0.0;
  /// Charging units of budget the tenant has left to spend
  /// (JobEngine::remaining_budget_units); -1.0 = no budget reported, 0.0 =
  /// exhausted. Only consulted by BudgetWeighted arbitration.
  double remaining_budget_units = -1.0;

  friend bool operator==(const TenantDemand&, const TenantDemand&) = default;
};

/// Site-level arbitration parameters beyond the strategy itself.
struct ArbiterConfig {
  /// Shared instance cap; must be >= 1.
  std::uint32_t site_cap = 0;
  /// Per-instance memory capacity (MB). When > 0, DemandWeighted lifts each
  /// tenant's effective requested pool to at least
  /// ceil(requested_mem_mb / instance_mem_mb) — a tenant whose projected
  /// footprint cannot fit its instance-count demand bids for enough
  /// instances to hold it. 0 (the default) reproduces the instance-only
  /// arbitration byte-identically.
  double instance_mem_mb = 0.0;
  /// Shared checkpoint-channel bandwidth (CheckpointConfig's
  /// channel_bandwidth_mb_per_s). When > 0, allocate_checkpoint_windows
  /// arbitrates the channel among tenants with checkpoint pressure; 0 (the
  /// default) disables channel arbitration entirely.
  double checkpoint_bandwidth_mb_per_s = 0.0;
  /// Cooperative staggering: serialize tenants' channel access into
  /// round-robin windows instead of diluting the bandwidth.
  bool stagger_checkpoints = false;
  /// Staggering round length (seconds); each of the n demanding tenants gets
  /// a 1/n slice per round. Must be > 0 when stagger_checkpoints is set.
  double stagger_period_seconds = 0.0;
};

/// One tenant's grant on the shared checkpoint channel.
struct CheckpointGrant {
  /// Channel share (MB/s) the tenant may write at.
  double bandwidth_mb_per_s = 0.0;
  /// Staggering window in site time: writes may start in
  /// [offset + k*period, offset + k*period + length). period 0 = always open.
  sim::SimTime window_offset_seconds = 0.0;
  double window_length_seconds = 0.0;
  double window_period_seconds = 0.0;

  friend bool operator==(const CheckpointGrant&,
                         const CheckpointGrant&) = default;
};

/// Partitions `site_cap` among `tenants` under `strategy`. Returns one share
/// per tenant, in input order, satisfying the contract documented above.
/// Requires site_cap >= 1 and sum(live_instances) <= site_cap. Builds a
/// ShareLedger over the rows and reads it out.
std::vector<std::uint32_t> allocate_shares(
    ArbiterStrategy strategy, std::uint32_t site_cap,
    const std::vector<TenantDemand>& tenants);

/// As above, with the full config (memory-aware demand lifting). The
/// three-argument overload forwards here with instance_mem_mb = 0.
std::vector<std::uint32_t> allocate_shares(
    ArbiterStrategy strategy, const ArbiterConfig& config,
    const std::vector<TenantDemand>& tenants);

/// The incremental form of allocate_shares: one demand row per slot (a dense
/// id the caller picks, such as a tenant index), kept across allocations.
/// Rows come and go through insert/update/erase; allocate() re-runs the
/// allocation and reports only the slots whose share moved since the
/// previous allocate(). Shares equal allocate_shares over the current rows.
///
/// DemandWeighted is incremental. The ledger keeps the running sums
/// L = sum(live) and T = sum(extra), where a row's extra is its effective
/// requested pool above its floor, and buckets of rows keyed by extra, each
/// in FIFO order. With spare S = cap - L, every row gets its whole extra when
/// T <= S. Otherwise every row of bucket e gets floor(S*e/T), and the
/// k = S - sum(floors) leftover units go to whole buckets in descending
/// S*e mod T; buckets whose remainders tie form one group, and when a group
/// outnumbers the units left, the first ones of the group in merged FIFO
/// order take them. A bucket's rows are revisited only when its grant moves,
/// so an allocation costs O(D log D + k + changed rows) for D distinct
/// extras. The other strategies run their full pass over the rows and diff
/// the result against the previous shares.
class ShareLedger {
 public:
  /// Requires config.site_cap >= 1.
  ShareLedger(ArbiterStrategy strategy, const ArbiterConfig& config);

  /// Adds a row under a slot that holds none.
  void insert(std::size_t slot, const TenantDemand& row);
  /// Replaces the row of a held slot.
  void update(std::size_t slot, const TenantDemand& row);
  /// Drops the row of a held slot; its share is no longer reported.
  void erase(std::size_t slot);

  bool contains(std::size_t slot) const {
    return slot < pos_.size() && pos_[slot] != kAbsent;
  }
  const TenantDemand& row(std::size_t slot) const;
  std::size_t size() const { return rows_.size(); }
  /// The held rows, densely packed in an unspecified order; slot_at maps a
  /// position back to its slot.
  const std::vector<TenantDemand>& rows() const { return rows_; }
  std::size_t slot_at(std::size_t i) const { return slots_[i]; }
  /// Sum of live_instances over the held rows.
  std::uint32_t live_total() const {
    return static_cast<std::uint32_t>(live_total_);
  }
  /// True when a row was inserted, updated or erased since the last
  /// allocate().
  bool pending() const { return pending_; }

  /// Re-runs the allocation. Returns the held slots whose share differs from
  /// the one the previous call reported (every slot inserted since counts as
  /// moved), in ascending slot order; the list stays valid until the next
  /// allocate(). Requires live_total() <= site_cap.
  const std::vector<std::size_t>& allocate();
  /// The share last reported for a held slot.
  std::uint32_t share(std::size_t slot) const;

 private:
  static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);
  /// Share of a slot no allocate() has reported yet.
  static constexpr std::uint32_t kUnset = static_cast<std::uint32_t>(-1);

  /// A row's place in its demand bucket: FIFO order (arrival, job), the
  /// slot making the key unique.
  struct Member {
    sim::SimTime arrival_seconds;
    std::uint32_t job;
    std::size_t slot;
    bool operator<(const Member& o) const;
  };
  /// The rows sharing one extra value, and the per-row grant last applied.
  struct Bucket {
    std::set<Member> members;
    std::uint32_t grant = 0;
    std::uint32_t next_grant = 0;
  };

  void add(std::size_t slot);
  void remove(std::size_t slot);
  void allocate_demand_weighted();
  void allocate_full_pass();
  /// Recomputes a held slot's DemandWeighted share and records a move.
  void touch(std::size_t slot);
  void report(std::size_t slot, std::uint32_t share);

  ArbiterStrategy strategy_;
  ArbiterConfig config_;
  std::vector<TenantDemand> rows_;
  std::vector<std::size_t> slots_;
  /// Per slot: position in rows_ (kAbsent when not held), extra demand,
  /// share last reported, and whether it holds a leftover unit of a tied
  /// remainder group.
  std::vector<std::size_t> pos_;
  std::vector<std::uint32_t> extra_;
  std::vector<std::uint32_t> share_;
  std::vector<bool> tie_unit_;
  std::uint64_t live_total_ = 0;
  std::uint64_t extra_total_ = 0;
  std::uint64_t share_total_ = 0;
  bool pending_ = false;
  /// DemandWeighted state: buckets by extra (> 0), the slots holding a
  /// tie-group unit, and the slots changed since the last allocate().
  std::map<std::uint32_t, Bucket> buckets_;
  std::vector<std::size_t> tie_units_;
  std::vector<std::size_t> previous_tie_units_;
  std::vector<std::size_t> dirty_;
  /// allocate() scratch and result; touched_[slot] == epoch_ marks a slot
  /// already recomputed in the current allocate().
  std::vector<std::pair<std::uint64_t, Bucket*>> ranked_;
  std::vector<std::pair<std::set<Member>::const_iterator,
                        std::set<Member>::const_iterator>>
      heads_;
  std::vector<std::uint64_t> touched_;
  std::uint64_t epoch_ = 0;
  std::vector<std::size_t> order_;
  std::vector<std::uint32_t> full_;
  std::vector<std::size_t> changed_;
};

/// Partitions the shared checkpoint channel among tenants, one grant per
/// tenant in input order. Pure and deterministic like allocate_shares (FIFO
/// tie-breaking by arrival, then job id). Without staggering, every tenant
/// gets bandwidth / max(1, n_demanding) and an always-open window —
/// concurrent cross-tenant writes dilute each other. With staggering, the
/// k-th demanding tenant (FIFO order) gets the full bandwidth inside its
/// exclusive slice [k*P/n, (k+1)*P/n) of each period P; tenants without
/// recorded pressure keep the full bandwidth and an open window (their
/// stray writes are corrected at the next reallocation — windows are
/// advisory, not a hard reservation). Requires
/// config.checkpoint_bandwidth_mb_per_s > 0.
std::vector<CheckpointGrant> allocate_checkpoint_windows(
    const ArbiterConfig& config, const std::vector<TenantDemand>& tenants);

}  // namespace wire::ensemble
