#include "ensemble/arbiter.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.h"

namespace wire::ensemble {

const char* strategy_name(ArbiterStrategy strategy) {
  switch (strategy) {
    case ArbiterStrategy::FifoExclusive: return "fifo-exclusive";
    case ArbiterStrategy::StaticFairShare: return "fair-share";
    case ArbiterStrategy::DemandWeighted: return "demand-weighted";
    case ArbiterStrategy::BudgetWeighted: return "budget-weighted";
  }
  return "unknown";
}

std::vector<ArbiterStrategy> all_strategies() {
  return {ArbiterStrategy::FifoExclusive, ArbiterStrategy::StaticFairShare,
          ArbiterStrategy::DemandWeighted, ArbiterStrategy::BudgetWeighted};
}

namespace {

/// Fills `order` with the tenant indices in FIFO order: by arrival time,
/// then job id. Rows usually come already in that order, which an O(n) check
/// detects; a strictly increasing sequence is the unique sorted order, so
/// keeping the identity then is exact.
void fifo_order(const std::vector<TenantDemand>& tenants,
                std::vector<std::size_t>& order) {
  const auto before = [&](std::size_t a, std::size_t b) {
    if (tenants[a].arrival_seconds != tenants[b].arrival_seconds) {
      return tenants[a].arrival_seconds < tenants[b].arrival_seconds;
    }
    return tenants[a].job < tenants[b].job;
  };
  order.resize(tenants.size());
  std::iota(order.begin(), order.end(), 0);
  const auto unordered = [&](std::size_t a, std::size_t b) {
    return !before(a, b);
  };
  if (std::adjacent_find(order.begin(), order.end(), unordered) !=
      order.end()) {
    std::sort(order.begin(), order.end(), before);
  }
}

/// Gives one more unit to each of the `k` candidates with the largest
/// remainders, ties going to the earlier FIFO rank — the first k candidates
/// of a stable sort of the FIFO order by descending remainder — without
/// sorting all the rows: a selection over the candidates suffices, since
/// every chosen one gets the same single unit. Fewer than k candidates all
/// get one. Returns the number of units handed out.
std::uint32_t grant_largest_remainders(
    std::vector<std::size_t>& candidates,
    const std::vector<std::uint64_t>& remainder,
    const std::vector<std::size_t>& order, std::uint32_t k,
    std::vector<std::uint32_t>& target) {
  const std::size_t take = std::min<std::size_t>(k, candidates.size());
  if (take < candidates.size()) {
    std::vector<std::size_t> rank(order.size());
    for (std::size_t p = 0; p < order.size(); ++p) rank[order[p]] = p;
    std::nth_element(candidates.begin(),
                     candidates.begin() + static_cast<std::ptrdiff_t>(take),
                     candidates.end(), [&](std::size_t a, std::size_t b) {
                       if (remainder[a] != remainder[b]) {
                         return remainder[a] > remainder[b];
                       }
                       return rank[a] < rank[b];
                     });
  }
  for (std::size_t c = 0; c < take; ++c) ++target[candidates[c]];
  return static_cast<std::uint32_t>(take);
}

void fifo_exclusive(std::uint32_t spare,
                    const std::vector<std::size_t>& order,
                    std::vector<std::uint32_t>& shares) {
  // The whole remaining site backs the oldest job; everyone else is frozen
  // at their floor (zero for jobs that were never admitted).
  shares[order.front()] += spare;
}

void static_fair_share(std::uint32_t site_cap, std::uint32_t spare,
                       const std::vector<std::size_t>& order,
                       std::vector<std::uint32_t>& shares) {
  // Equal entitlements cap/n, the integer remainder going to the earliest
  // arrivals. Tenants whose floor already exceeds their entitlement keep the
  // floor (no preemption); the others are lifted toward the entitlement one
  // instance at a time in arrival order, which keeps the split exact when
  // the spare runs out mid-pass.
  const std::uint32_t n = static_cast<std::uint32_t>(order.size());
  std::vector<std::uint32_t> entitlement(shares.size(), site_cap / n);
  for (std::uint32_t k = 0; k < site_cap % n; ++k) {
    ++entitlement[order[k]];
  }
  bool lifted = true;
  while (spare > 0 && lifted) {
    lifted = false;
    for (std::size_t i : order) {
      if (spare == 0) break;
      if (shares[i] < entitlement[i]) {
        ++shares[i];
        --spare;
        lifted = true;
      }
    }
  }
  // Entitlements sum to the cap, so spare survives the lifting only when
  // some floors sit above their entitlement; hand it out round-robin.
  while (spare > 0) {
    for (std::size_t i : order) {
      if (spare == 0) break;
      ++shares[i];
      --spare;
    }
  }
}

/// The tenant's effective requested pool: the controller's ask, lifted by
/// the memory footprint when a per-instance capacity is configured, clamped
/// to the site. Shared by the demand- and budget-weighted strategies so the
/// two bid on the same demand signal.
std::uint32_t effective_requested(const TenantDemand& tenant,
                                  std::uint32_t site_cap,
                                  double instance_mem_mb) {
  std::uint32_t requested = tenant.requested_pool;
  if (instance_mem_mb > 0.0 && tenant.requested_mem_mb > 0.0) {
    const double needed = std::ceil(tenant.requested_mem_mb / instance_mem_mb);
    if (needed > static_cast<double>(requested)) {
      requested = needed >= static_cast<double>(site_cap)
                      ? site_cap
                      : static_cast<std::uint32_t>(needed);
    }
  }
  return std::min(requested, site_cap);
}

void budget_weighted(std::uint32_t site_cap, double instance_mem_mb,
                     std::uint32_t spare,
                     const std::vector<TenantDemand>& tenants,
                     const std::vector<std::size_t>& order,
                     std::vector<std::uint32_t>& shares) {
  // A tenant that reports no budget (-1) bids as if exactly one charging
  // unit remained — between an exhausted tenant (weight 0, floor only) and
  // any tenant with real money left.
  constexpr double kUnreportedUnits = 1.0;
  // Fixed-point weight scale: 1/16 charging unit of budget resolution is
  // plenty, and the clamp at 2^16 units keeps every bid product comfortably
  // inside 64 bits (bid <= extra * 2^20, num <= spare * 2^30 after the bid
  // clamp below).
  constexpr double kWeightScale = 16.0;
  constexpr double kMaxUnits = 65536.0;
  constexpr std::uint64_t kMaxBid = std::uint64_t{1} << 30;

  std::vector<std::uint32_t> extra(tenants.size(), 0);
  std::vector<std::uint64_t> weight(tenants.size(), 0);
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const std::uint32_t want =
        std::max(tenants[i].live_instances,
                 effective_requested(tenants[i], site_cap, instance_mem_mb));
    extra[i] = want - tenants[i].live_instances;
    const double r = tenants[i].remaining_budget_units;
    const double units = r < 0.0 ? kUnreportedUnits : std::min(r, kMaxUnits);
    weight[i] = static_cast<std::uint64_t>(
        std::llround(std::max(0.0, units) * kWeightScale));
    // Any strictly-positive remaining budget must bid above the exhausted
    // floor: below 1/32 of a charging unit llround truncates the weight to
    // 0, which would starve a nearly-broke (but solvent) tenant exactly
    // like one at 0 — contradicting the documented exhausted-floor
    // semantics. Floor the fixed-point weight at 1.
    if (weight[i] == 0 && units > 0.0) weight[i] = 1;
  }

  // Minimum-progress floor, in FIFO order: a tenant with unmet demand and
  // nothing live gets one instance before any bidding — an exhausted tenant
  // (or one whose instance just crashed) inches forward instead of being
  // starved to death at zero by the solvent bidders.
  for (std::size_t i : order) {
    if (spare == 0) break;
    if (tenants[i].live_instances == 0 && shares[i] == 0 && extra[i] > 0) {
      ++shares[i];
      --extra[i];
      --spare;
    }
  }
  if (spare == 0) return;

  std::vector<std::uint64_t> bid(tenants.size(), 0);
  std::uint64_t total_bid = 0;
  std::uint64_t weighted_extra = 0;
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    bid[i] = std::min(static_cast<std::uint64_t>(extra[i]) * weight[i], kMaxBid);
    total_bid += bid[i];
    if (weight[i] > 0) weighted_extra += extra[i];
  }
  if (total_bid == 0) return;  // only exhausted demand left: capacity waits
  if (weighted_extra <= spare) {
    // Every solvent demand fits; exhausted tenants stay at their floor and
    // unbacked capacity is re-offered at the next reallocation.
    for (std::size_t i = 0; i < shares.size(); ++i) {
      if (weight[i] > 0) shares[i] += extra[i];
    }
    return;
  }

  // Largest-remainder split of the spare over the budget-scaled bids, each
  // grant capped at the tenant's unmet demand; capacity freed by the caps is
  // re-offered round-robin in FIFO order to solvent tenants still short.
  std::vector<std::uint64_t> remainder(tenants.size(), 0);
  std::vector<std::uint32_t> grant(tenants.size(), 0);
  std::vector<std::size_t> candidates;
  std::uint32_t granted = 0;
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    const std::uint64_t num = static_cast<std::uint64_t>(spare) * bid[i];
    grant[i] = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(num / total_bid, extra[i]));
    remainder[i] = num % total_bid;
    granted += grant[i];
    if (remainder[i] != 0 && weight[i] != 0 && grant[i] < extra[i]) {
      candidates.push_back(i);
    }
  }
  granted += grant_largest_remainders(candidates, remainder, order,
                                      spare - granted, grant);
  bool moved = true;
  while (granted < spare && moved) {
    moved = false;
    for (std::size_t i : order) {
      if (granted == spare) break;
      if (weight[i] > 0 && grant[i] < extra[i]) {
        ++grant[i];
        ++granted;
        moved = true;
      }
    }
  }
  for (std::size_t i = 0; i < shares.size(); ++i) shares[i] += grant[i];
}

}  // namespace

std::vector<std::uint32_t> allocate_shares(
    ArbiterStrategy strategy, std::uint32_t site_cap,
    const std::vector<TenantDemand>& tenants) {
  ArbiterConfig config;
  config.site_cap = site_cap;
  return allocate_shares(strategy, config, tenants);
}

std::vector<std::uint32_t> allocate_shares(
    ArbiterStrategy strategy, const ArbiterConfig& config,
    const std::vector<TenantDemand>& tenants) {
  ShareLedger ledger(strategy, config);
  for (std::size_t i = 0; i < tenants.size(); ++i) ledger.insert(i, tenants[i]);
  ledger.allocate();
  std::vector<std::uint32_t> shares(tenants.size());
  for (std::size_t i = 0; i < tenants.size(); ++i) shares[i] = ledger.share(i);
  return shares;
}

bool ShareLedger::Member::operator<(const Member& o) const {
  if (arrival_seconds != o.arrival_seconds) {
    return arrival_seconds < o.arrival_seconds;
  }
  if (job != o.job) return job < o.job;
  return slot < o.slot;
}

ShareLedger::ShareLedger(ArbiterStrategy strategy, const ArbiterConfig& config)
    : strategy_(strategy), config_(config) {
  WIRE_REQUIRE(config_.site_cap >= 1, "site cap must be at least one instance");
}

const TenantDemand& ShareLedger::row(std::size_t slot) const {
  WIRE_REQUIRE(contains(slot), "slot holds no row");
  return rows_[pos_[slot]];
}

std::uint32_t ShareLedger::share(std::size_t slot) const {
  WIRE_REQUIRE(contains(slot) && share_[slot] != kUnset,
               "slot has no reported share");
  return share_[slot];
}

void ShareLedger::insert(std::size_t slot, const TenantDemand& row) {
  WIRE_REQUIRE(!contains(slot), "slot already holds a row");
  if (slot >= pos_.size()) {
    pos_.resize(slot + 1, kAbsent);
    extra_.resize(slot + 1, 0);
    share_.resize(slot + 1, kUnset);
    tie_unit_.resize(slot + 1, false);
    touched_.resize(slot + 1, 0);
  }
  pos_[slot] = rows_.size();
  rows_.push_back(row);
  slots_.push_back(slot);
  share_[slot] = kUnset;
  add(slot);
}

void ShareLedger::update(std::size_t slot, const TenantDemand& row) {
  WIRE_REQUIRE(contains(slot), "slot holds no row");
  remove(slot);
  rows_[pos_[slot]] = row;
  add(slot);
}

void ShareLedger::erase(std::size_t slot) {
  WIRE_REQUIRE(contains(slot), "slot holds no row");
  remove(slot);
  if (share_[slot] != kUnset) share_total_ -= share_[slot];
  share_[slot] = kUnset;
  tie_unit_[slot] = false;
  // Swap-and-pop keeps the rows dense; the full passes do not rely on their
  // order (fifo_order sorts when needed).
  const std::size_t at = pos_[slot];
  rows_[at] = rows_.back();
  slots_[at] = slots_.back();
  pos_[slots_[at]] = at;
  rows_.pop_back();
  slots_.pop_back();
  pos_[slot] = kAbsent;
}

/// Enters a held slot's row into the running sums and its demand bucket.
void ShareLedger::add(std::size_t slot) {
  const TenantDemand& row = rows_[pos_[slot]];
  const std::uint32_t want = std::max(
      row.live_instances,
      effective_requested(row, config_.site_cap, config_.instance_mem_mb));
  const std::uint32_t extra = want - row.live_instances;
  extra_[slot] = extra;
  live_total_ += row.live_instances;
  extra_total_ += extra;
  if (strategy_ == ArbiterStrategy::DemandWeighted) {
    if (extra > 0) {
      buckets_[extra].members.insert({row.arrival_seconds, row.job, slot});
    }
    dirty_.push_back(slot);
  }
  pending_ = true;
}

/// Takes a held slot's row out of the running sums and its demand bucket.
void ShareLedger::remove(std::size_t slot) {
  const TenantDemand& row = rows_[pos_[slot]];
  const std::uint32_t extra = extra_[slot];
  live_total_ -= row.live_instances;
  extra_total_ -= extra;
  if (strategy_ == ArbiterStrategy::DemandWeighted && extra > 0) {
    const auto bucket = buckets_.find(extra);
    bucket->second.members.erase({row.arrival_seconds, row.job, slot});
    if (bucket->second.members.empty()) buckets_.erase(bucket);
  }
  pending_ = true;
}

const std::vector<std::size_t>& ShareLedger::allocate() {
  WIRE_REQUIRE(live_total_ <= config_.site_cap,
               "tenants hold more instances than the site cap");
  changed_.clear();
  pending_ = false;
  if (strategy_ == ArbiterStrategy::DemandWeighted) {
    allocate_demand_weighted();
  } else {
    allocate_full_pass();
  }
  std::sort(changed_.begin(), changed_.end());
  WIRE_CHECK(share_total_ <= config_.site_cap,
             "arbiter over-allocated the site");
  return changed_;
}

void ShareLedger::report(std::size_t slot, std::uint32_t share) {
  const std::uint32_t old = share_[slot];
  if (share == old) return;
  if (old != kUnset) share_total_ -= old;
  share_total_ += share;
  share_[slot] = share;
  changed_.push_back(slot);
}

void ShareLedger::touch(std::size_t slot) {
  if (!contains(slot) || touched_[slot] == epoch_) return;
  touched_[slot] = epoch_;
  std::uint32_t share = rows_[pos_[slot]].live_instances;
  if (extra_[slot] > 0) share += buckets_.find(extra_[slot])->second.grant;
  if (tie_unit_[slot]) ++share;
  report(slot, share);
}

void ShareLedger::allocate_demand_weighted() {
  ++epoch_;
  // Per-bucket grants. Every demand fits: each row takes its whole extra,
  // and undemanded capacity stays unallocated until a tenant asks for it.
  // Otherwise a largest-remainder proportional split of the spare over
  // unmet demand, in exact integer arithmetic.
  const std::uint64_t spare = config_.site_cap - live_total_;
  std::uint64_t left = 0;  // leftover units for the tied group
  std::size_t group_begin = 0;
  std::size_t group_end = 0;
  if (extra_total_ <= spare) {
    for (auto& [extra, bucket] : buckets_) bucket.next_grant = extra;
  } else {
    left = spare;
    ranked_.clear();
    for (auto& [extra, bucket] : buckets_) {
      const std::uint64_t num = spare * extra;
      bucket.next_grant = static_cast<std::uint32_t>(num / extra_total_);
      left -= bucket.next_grant * bucket.members.size();
      if (num % extra_total_ != 0) {
        ranked_.emplace_back(num % extra_total_, &bucket);
      }
    }
    // Leftover units go out by descending remainder. A group of buckets with
    // equal remainders is granted whole while the units last; the group that
    // outnumbers them splits in FIFO order below.
    std::sort(ranked_.begin(), ranked_.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    for (std::size_t i = 0; i < ranked_.size() && left > 0;) {
      std::size_t j = i;
      std::uint64_t members = 0;
      for (; j < ranked_.size() && ranked_[j].first == ranked_[i].first; ++j) {
        members += ranked_[j].second->members.size();
      }
      if (members > left) {
        group_begin = i;
        group_end = j;
        break;
      }
      for (std::size_t g = i; g < j; ++g) ++ranked_[g].second->next_grant;
      left -= members;
      i = j;
    }
    // Remainders sum to `left` times the total extra, so the units run out
    // inside the ranking.
    WIRE_CHECK(left == 0 || group_begin < group_end,
               "leftover units outlast the remainder ranking");
  }

  // The tied group's leftover units: the first `left` rows of the group in
  // merged FIFO order. Rows that held one last time are rechecked too.
  previous_tie_units_.swap(tie_units_);
  tie_units_.clear();
  for (std::size_t slot : previous_tie_units_) tie_unit_[slot] = false;
  heads_.clear();
  for (std::size_t g = group_begin; g < group_end; ++g) {
    const std::set<Member>& members = ranked_[g].second->members;
    heads_.emplace_back(members.begin(), members.end());
  }
  for (; left > 0; --left) {
    std::size_t best = heads_.size();
    for (std::size_t h = 0; h < heads_.size(); ++h) {
      if (heads_[h].first == heads_[h].second) continue;
      if (best == heads_.size() || *heads_[h].first < *heads_[best].first) {
        best = h;
      }
    }
    const std::size_t slot = (heads_[best].first++)->slot;
    tie_unit_[slot] = true;
    tie_units_.push_back(slot);
  }
  // Shares are recomputed once every grant and unit is in place: every row
  // of a bucket whose grant moved, the rows whose tie unit may have moved,
  // and the rows changed since the last allocation.
  for (auto& [extra, bucket] : buckets_) {
    if (bucket.next_grant == bucket.grant) continue;
    bucket.grant = bucket.next_grant;
    for (const Member& m : bucket.members) touch(m.slot);
  }
  for (std::size_t slot : previous_tie_units_) touch(slot);
  for (std::size_t slot : tie_units_) touch(slot);
  for (std::size_t slot : dirty_) touch(slot);
  dirty_.clear();
}

void ShareLedger::allocate_full_pass() {
  // Floors: what each tenant already holds is never taken away.
  full_.resize(rows_.size());
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    full_[i] = rows_[i].live_instances;
  }
  if (rows_.empty()) return;
  const std::uint32_t spare =
      config_.site_cap - static_cast<std::uint32_t>(live_total_);
  fifo_order(rows_, order_);
  switch (strategy_) {
    case ArbiterStrategy::FifoExclusive:
      fifo_exclusive(spare, order_, full_);
      break;
    case ArbiterStrategy::StaticFairShare:
      static_fair_share(config_.site_cap, spare, order_, full_);
      break;
    case ArbiterStrategy::BudgetWeighted:
      budget_weighted(config_.site_cap, config_.instance_mem_mb, spare, rows_,
                      order_, full_);
      break;
    case ArbiterStrategy::DemandWeighted:
      WIRE_CHECK(false, "DemandWeighted allocates incrementally");
  }
  for (std::size_t i = 0; i < rows_.size(); ++i) report(slots_[i], full_[i]);
}

std::vector<CheckpointGrant> allocate_checkpoint_windows(
    const ArbiterConfig& config, const std::vector<TenantDemand>& tenants) {
  WIRE_REQUIRE(config.checkpoint_bandwidth_mb_per_s > 0.0,
               "checkpoint-channel arbitration needs a channel");
  const double bandwidth = config.checkpoint_bandwidth_mb_per_s;
  std::vector<CheckpointGrant> grants(tenants.size());
  std::uint32_t demanding = 0;
  for (const TenantDemand& t : tenants) {
    if (t.checkpoint_mb > 0.0) ++demanding;
  }
  if (!config.stagger_checkpoints) {
    // Concurrent co-sited writes interfere: every tenant sees its diluted
    // share of the channel, always open.
    const double share =
        bandwidth / static_cast<double>(std::max(demanding, 1u));
    for (CheckpointGrant& g : grants) g.bandwidth_mb_per_s = share;
    return grants;
  }
  WIRE_REQUIRE(config.stagger_period_seconds > 0.0,
               "staggering needs a positive period");
  // Cooperative staggering: serialize channel access. Demanding tenants get
  // the full bandwidth inside exclusive FIFO-ordered slices of each period;
  // the rest keep an open window at full bandwidth (no recorded pressure).
  for (CheckpointGrant& g : grants) g.bandwidth_mb_per_s = bandwidth;
  if (demanding == 0) return grants;
  const double period = config.stagger_period_seconds;
  const double slice = period / static_cast<double>(demanding);
  std::uint32_t k = 0;
  std::vector<std::size_t> order;
  fifo_order(tenants, order);
  for (std::size_t i : order) {
    if (tenants[i].checkpoint_mb <= 0.0) continue;
    grants[i].window_offset_seconds = static_cast<double>(k) * slice;
    grants[i].window_length_seconds = slice;
    grants[i].window_period_seconds = period;
    ++k;
  }
  return grants;
}

}  // namespace wire::ensemble
