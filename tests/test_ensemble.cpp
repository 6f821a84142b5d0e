// Tests of the multi-tenant ensemble subsystem: arrival streams, arbiter
// share accounting, the shared-site capacity invariant, tenant snapshot
// isolation, job retirement, and report determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ensemble/arbiter.h"
#include "ensemble/arrival.h"
#include "ensemble/driver.h"
#include "ensemble/report.h"
#include "exp/settings.h"
#include "policies/baselines.h"
#include "sim/engine.h"
#include "util/check.h"
#include "util/rng.h"
#include "workload/generators.h"
#include "workload/profiles.h"

namespace wire::ensemble {
namespace {

/// Deterministic §IV-B-like site without stochastic variability, so the
/// driver tests stay fast and exactly reproducible.
sim::CloudConfig quiet_site(std::uint32_t max_instances = 6) {
  sim::CloudConfig config;
  config.lag_seconds = 180.0;
  config.charging_unit_seconds = 900.0;
  config.slots_per_instance = 4;
  config.max_instances = max_instances;
  config.variability.instance_speed_sigma = 0.0;
  config.variability.interference_sigma = 0.0;
  config.variability.transfer_noise_sigma = 0.0;
  config.variability.transfer_latency_seconds = 0.0;
  config.variability.bandwidth_mb_per_s = 1e12;
  return config;
}

std::vector<workload::WorkflowProfile> small_profiles() {
  return {workload::tpch6_profile(workload::Scale::Small),
          workload::pagerank_profile(workload::Scale::Small)};
}

// ---------------------------------------------------------------------------
// ArrivalProcess

TEST(Arrivals, PoissonIsDeterministicInSeed) {
  PoissonArrivalConfig config;
  config.mean_interarrival_seconds = 300.0;
  config.job_count = 20;
  config.seed = 7;
  const ArrivalProcess a = ArrivalProcess::poisson(config, 3);
  const ArrivalProcess b = ArrivalProcess::poisson(config, 3);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.jobs()[i].job, b.jobs()[i].job);
    EXPECT_DOUBLE_EQ(a.jobs()[i].arrival_seconds, b.jobs()[i].arrival_seconds);
    EXPECT_EQ(a.jobs()[i].profile_index, b.jobs()[i].profile_index);
    EXPECT_EQ(a.jobs()[i].workflow_seed, b.jobs()[i].workflow_seed);
    EXPECT_EQ(a.jobs()[i].run_seed, b.jobs()[i].run_seed);
  }
  config.seed = 8;
  const ArrivalProcess c = ArrivalProcess::poisson(config, 3);
  EXPECT_NE(a.jobs().front().arrival_seconds,
            c.jobs().front().arrival_seconds);
}

TEST(Arrivals, PoissonStreamIsWellFormed) {
  PoissonArrivalConfig config;
  config.mean_interarrival_seconds = 120.0;
  config.job_count = 50;
  config.seed = 11;
  const ArrivalProcess stream = ArrivalProcess::poisson(config, 4);
  ASSERT_EQ(stream.size(), 50u);
  std::set<std::uint64_t> seeds;
  double prev = 0.0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const JobArrival& a = stream.jobs()[i];
    EXPECT_EQ(a.job, static_cast<std::uint32_t>(i));  // dense ids
    EXPECT_GE(a.arrival_seconds, prev);               // sorted
    EXPECT_LT(a.profile_index, 4u);
    seeds.insert(a.workflow_seed);
    seeds.insert(a.run_seed);
    prev = a.arrival_seconds;
  }
  // Every per-job seed is distinct (workflow and run seeds never collide).
  EXPECT_EQ(seeds.size(), 2 * stream.size());
}

TEST(Arrivals, FixedTraceIsNormalized) {
  std::vector<JobArrival> trace(3);
  trace[0].arrival_seconds = 500.0;
  trace[0].profile_index = 1;
  trace[1].arrival_seconds = 100.0;
  trace[1].profile_index = 0;
  trace[2].arrival_seconds = 300.0;
  trace[2].profile_index = 2;
  const ArrivalProcess stream = ArrivalProcess::fixed_trace(trace, 5);
  ASSERT_EQ(stream.size(), 3u);
  EXPECT_DOUBLE_EQ(stream.jobs()[0].arrival_seconds, 100.0);
  EXPECT_DOUBLE_EQ(stream.jobs()[1].arrival_seconds, 300.0);
  EXPECT_DOUBLE_EQ(stream.jobs()[2].arrival_seconds, 500.0);
  EXPECT_EQ(stream.jobs()[0].profile_index, 0u);  // profiles follow the sort
  EXPECT_EQ(stream.jobs()[1].profile_index, 2u);
  EXPECT_EQ(stream.jobs()[2].profile_index, 1u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(stream.jobs()[i].job, static_cast<std::uint32_t>(i));
  }
}

// ---------------------------------------------------------------------------
// SiteArbiter

TenantDemand demand(std::uint32_t job, double arrival, std::uint32_t live,
                    std::uint32_t requested) {
  TenantDemand d;
  d.job = job;
  d.arrival_seconds = arrival;
  d.live_instances = live;
  d.requested_pool = requested;
  return d;
}

TEST(Arbiter, FifoExclusiveBacksTheOldestJob) {
  // B arrived first: it gets its floor plus all spare; A stays at its floor.
  const std::vector<TenantDemand> tenants = {demand(1, 5.0, 2, 8),
                                             demand(0, 1.0, 3, 4)};
  const std::vector<std::uint32_t> shares =
      allocate_shares(ArbiterStrategy::FifoExclusive, 10, tenants);
  EXPECT_EQ(shares[0], 2u);
  EXPECT_EQ(shares[1], 8u);
}

TEST(Arbiter, FifoTiesBreakOnJobId) {
  const std::vector<TenantDemand> tenants = {demand(2, 1.0, 0, 4),
                                             demand(1, 1.0, 0, 4)};
  const std::vector<std::uint32_t> shares =
      allocate_shares(ArbiterStrategy::FifoExclusive, 6, tenants);
  EXPECT_EQ(shares[0], 0u);  // job 2 waits
  EXPECT_EQ(shares[1], 6u);  // job 1 wins the tie
}

TEST(Arbiter, FairShareSplitsEntitlementsWithRemainderToEarliest) {
  // cap 10, three idle tenants: entitlements 4/3/3, remainder to the oldest.
  const std::vector<TenantDemand> tenants = {
      demand(0, 1.0, 0, 10), demand(1, 2.0, 0, 10), demand(2, 3.0, 0, 10)};
  const std::vector<std::uint32_t> shares =
      allocate_shares(ArbiterStrategy::StaticFairShare, 10, tenants);
  EXPECT_EQ(shares[0], 4u);
  EXPECT_EQ(shares[1], 3u);
  EXPECT_EQ(shares[2], 3u);
}

TEST(Arbiter, FairShareKeepsOversizedFloors) {
  // A tenant already above its entitlement keeps its floor (no preemption);
  // what remains flows to the others.
  const std::vector<TenantDemand> tenants = {demand(0, 1.0, 7, 7),
                                             demand(1, 2.0, 1, 6)};
  const std::vector<std::uint32_t> shares =
      allocate_shares(ArbiterStrategy::StaticFairShare, 8, tenants);
  EXPECT_EQ(shares[0], 7u);
  EXPECT_EQ(shares[1], 1u);
  EXPECT_LE(shares[0] + shares[1], 8u);
}

TEST(Arbiter, DemandWeightedGrantsFittingDemandExactly) {
  // Total unmet demand (6 + 3) fits in the spare 10: everyone gets what they
  // asked for, the undemanded instance stays unallocated.
  const std::vector<TenantDemand> tenants = {demand(0, 1.0, 0, 6),
                                             demand(1, 2.0, 0, 3)};
  const std::vector<std::uint32_t> shares =
      allocate_shares(ArbiterStrategy::DemandWeighted, 10, tenants);
  EXPECT_EQ(shares[0], 6u);
  EXPECT_EQ(shares[1], 3u);
}

TEST(Arbiter, DemandWeightedSplitsProportionallyWhenOversubscribed) {
  // Both want the full site: the spare splits evenly.
  const std::vector<TenantDemand> tenants = {demand(0, 1.0, 0, 20),
                                             demand(1, 2.0, 0, 20)};
  const std::vector<std::uint32_t> shares =
      allocate_shares(ArbiterStrategy::DemandWeighted, 10, tenants);
  EXPECT_EQ(shares[0], 5u);
  EXPECT_EQ(shares[1], 5u);
}

TEST(Arbiter, ContractHoldsForEveryStrategy) {
  // Floors respected and sum <= cap under a mixed demand profile.
  const std::vector<TenantDemand> tenants = {
      demand(0, 1.0, 4, 9), demand(1, 2.0, 2, 2), demand(2, 2.0, 0, 5)};
  for (ArbiterStrategy strategy : all_strategies()) {
    const std::vector<std::uint32_t> shares =
        allocate_shares(strategy, 8, tenants);
    std::uint32_t total = 0;
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      EXPECT_GE(shares[i], tenants[i].live_instances)
          << strategy_name(strategy) << " preempted tenant " << i;
      total += shares[i];
    }
    EXPECT_LE(total, 8u) << strategy_name(strategy) << " over-allocated";
  }
}

TEST(Arbiter, RejectsImpossibleInputs) {
  const std::vector<TenantDemand> over = {demand(0, 1.0, 4, 4),
                                          demand(1, 2.0, 3, 3)};
  EXPECT_THROW(allocate_shares(ArbiterStrategy::StaticFairShare, 6, over),
               util::ContractViolation);
  EXPECT_THROW(allocate_shares(ArbiterStrategy::StaticFairShare, 0, {}),
               util::ContractViolation);
  EXPECT_TRUE(allocate_shares(ArbiterStrategy::DemandWeighted, 4, {}).empty());
}

// ---------------------------------------------------------------------------
// Arbiter oracle: the selection-based remainder pass against the full
// stable sort it replaced, and row-order invariance.

/// The pre-selection arbiter for the two proportional strategies, kept here
/// as the oracle: FIFO order by a full sort, and the leftover units of the
/// largest-remainder split handed out along a stable sort of that order by
/// descending remainder.
std::vector<std::uint32_t> reference_shares(ArbiterStrategy strategy,
                                            const ArbiterConfig& config,
                                            const std::vector<TenantDemand>& t) {
  const std::uint32_t cap = config.site_cap;
  const std::size_t n = t.size();
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (t[a].arrival_seconds != t[b].arrival_seconds) {
      return t[a].arrival_seconds < t[b].arrival_seconds;
    }
    return t[a].job < t[b].job;
  });
  std::vector<std::uint32_t> shares(n);
  std::uint32_t live = 0;
  for (std::size_t i = 0; i < n; ++i) {
    shares[i] = t[i].live_instances;
    live += t[i].live_instances;
  }
  std::uint32_t spare = cap - live;
  std::vector<std::uint32_t> extra(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t requested = t[i].requested_pool;
    if (config.instance_mem_mb > 0.0 && t[i].requested_mem_mb > 0.0) {
      const double needed =
          std::ceil(t[i].requested_mem_mb / config.instance_mem_mb);
      if (needed > static_cast<double>(requested)) {
        requested = needed >= static_cast<double>(cap)
                        ? cap
                        : static_cast<std::uint32_t>(needed);
      }
    }
    extra[i] = std::max(t[i].live_instances, std::min(requested, cap)) -
               t[i].live_instances;
  }
  const auto by_remainder = [&](const std::vector<std::uint64_t>& rem) {
    std::vector<std::size_t> sorted = order;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [&](std::size_t a, std::size_t b) {
                       return rem[a] > rem[b];
                     });
    return sorted;
  };
  std::vector<std::uint64_t> rem(n, 0);
  if (strategy == ArbiterStrategy::DemandWeighted) {
    std::uint64_t total = 0;
    for (std::uint32_t e : extra) total += e;
    if (total <= spare) {
      for (std::size_t i = 0; i < n; ++i) shares[i] += extra[i];
      return shares;
    }
    std::uint32_t granted = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t num = std::uint64_t{spare} * extra[i];
      shares[i] += static_cast<std::uint32_t>(num / total);
      granted += static_cast<std::uint32_t>(num / total);
      rem[i] = num % total;
    }
    for (std::size_t i : by_remainder(rem)) {
      if (granted == spare) break;
      if (rem[i] == 0) continue;
      ++shares[i];
      ++granted;
    }
    return shares;
  }
  std::vector<std::uint64_t> weight(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double r = t[i].remaining_budget_units;
    const double units = r < 0.0 ? 1.0 : std::min(r, 65536.0);
    weight[i] = static_cast<std::uint64_t>(
        std::llround(std::max(0.0, units) * 16.0));
    if (weight[i] == 0 && units > 0.0) weight[i] = 1;
  }
  for (std::size_t i : order) {
    if (spare == 0) break;
    if (t[i].live_instances == 0 && shares[i] == 0 && extra[i] > 0) {
      ++shares[i];
      --extra[i];
      --spare;
    }
  }
  if (spare == 0) return shares;
  std::vector<std::uint64_t> bid(n);
  std::uint64_t total_bid = 0;
  std::uint64_t weighted_extra = 0;
  for (std::size_t i = 0; i < n; ++i) {
    bid[i] = std::min<std::uint64_t>(std::uint64_t{extra[i]} * weight[i],
                                     std::uint64_t{1} << 30);
    total_bid += bid[i];
    if (weight[i] > 0) weighted_extra += extra[i];
  }
  if (total_bid == 0) return shares;
  if (weighted_extra <= spare) {
    for (std::size_t i = 0; i < n; ++i) {
      if (weight[i] > 0) shares[i] += extra[i];
    }
    return shares;
  }
  std::vector<std::uint32_t> grant(n);
  std::uint32_t granted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t num = std::uint64_t{spare} * bid[i];
    grant[i] = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(num / total_bid, extra[i]));
    rem[i] = num % total_bid;
    granted += grant[i];
  }
  for (std::size_t i : by_remainder(rem)) {
    if (granted == spare) break;
    if (rem[i] == 0 || weight[i] == 0 || grant[i] >= extra[i]) continue;
    ++grant[i];
    ++granted;
  }
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
  for (std::size_t i = 0; i < n; ++i) shares[i] += grant[i];
  return shares;
}

/// A random oversubscribed demand set in FIFO order: arrival times collide
/// often (job ids break the ties), demands come from a few small values so
/// remainders tie, and budgets span unreported, exhausted, sub-unit and
/// ample.
std::vector<TenantDemand> random_demands(util::Rng& rng, std::uint32_t cap,
                                         bool memory) {
  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 40));
  std::vector<TenantDemand> rows(n);
  std::uint32_t live = 0;
  double clock = 0.0;
  const double budgets[] = {-1.0, 0.0, 0.01, 0.5, 1.0, 3.0, 100.0};
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.bernoulli(0.6)) clock += static_cast<double>(rng.uniform_int(1, 3));
    rows[i].job = static_cast<std::uint32_t>(i);
    rows[i].arrival_seconds = clock;
    const auto held = static_cast<std::uint32_t>(rng.uniform_int(0, 2));
    rows[i].live_instances = live + held <= cap / 2 ? held : 0;
    live += rows[i].live_instances;
    rows[i].requested_pool =
        rows[i].live_instances +
        static_cast<std::uint32_t>(rng.uniform_int(0, 3) * 2);
    if (memory && rng.bernoulli(0.3)) {
      rows[i].requested_mem_mb = 1024.0 * static_cast<double>(
                                              rng.uniform_int(1, 12));
    }
    rows[i].remaining_budget_units = budgets[rng.uniform_int(0, 6)];
  }
  return rows;
}

TEST(ArbiterOracle, SelectionMatchesStableSortReference) {
  // The proportional strategies hand out their leftover units by selecting
  // the k largest remainders instead of stable-sorting every row; shares
  // must match the sorting reference bit for bit, remainder ties included.
  std::size_t oversubscribed = 0;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    util::Rng rng(seed);
    ArbiterConfig config;
    config.site_cap = static_cast<std::uint32_t>(rng.uniform_int(4, 48));
    const bool memory = rng.bernoulli(0.5);
    if (memory) config.instance_mem_mb = 4096.0;
    std::vector<TenantDemand> rows = random_demands(rng, config.site_cap,
                                                    memory);
    std::uint64_t wanted = 0;
    for (const TenantDemand& d : rows) wanted += d.requested_pool;
    if (wanted > config.site_cap) ++oversubscribed;
    for (const ArbiterStrategy strategy :
         {ArbiterStrategy::DemandWeighted, ArbiterStrategy::BudgetWeighted}) {
      EXPECT_EQ(allocate_shares(strategy, config, rows),
                reference_shares(strategy, config, rows))
          << strategy_name(strategy);
      // Shuffled rows exercise the sorting FIFO path on both sides.
      std::shuffle(rows.begin(), rows.end(), rng.engine());
      EXPECT_EQ(allocate_shares(strategy, config, rows),
                reference_shares(strategy, config, rows))
          << strategy_name(strategy) << " (shuffled)";
    }
  }
  EXPECT_GT(oversubscribed, 300u);
}

TEST(ArbiterOracle, SharesIndependentOfRowOrder) {
  // Allocation is a function of the tenants, not of how the rows are laid
  // out: FIFO-sorted rows (the identity fast path) and shuffled rows (the
  // sorting path) give every job the same share under all four strategies.
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    util::Rng rng(seed * 7919);
    ArbiterConfig config;
    config.site_cap = static_cast<std::uint32_t>(rng.uniform_int(4, 48));
    const std::vector<TenantDemand> sorted =
        random_demands(rng, config.site_cap, /*memory=*/false);
    std::vector<TenantDemand> shuffled = sorted;
    std::shuffle(shuffled.begin(), shuffled.end(), rng.engine());
    for (const ArbiterStrategy strategy : all_strategies()) {
      const std::vector<std::uint32_t> a =
          allocate_shares(strategy, config, sorted);
      const std::vector<std::uint32_t> b =
          allocate_shares(strategy, config, shuffled);
      for (std::size_t i = 0; i < shuffled.size(); ++i) {
        EXPECT_EQ(b[i], a[shuffled[i].job])
            << strategy_name(strategy) << " job " << shuffled[i].job;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ShareLedger: random insert/update/erase sequences against the oracles.

/// Where a DemandWeighted allocation over `rows` falls: which regime, and
/// whether its leftover units split a remainder tie that spans two extra
/// values (the case the ledger settles by merged FIFO order).
struct RegimeProbe {
  bool zero_spare = false;
  bool fits = false;
  bool oversubscribed_with_spare = false;
  bool cross_extra_tie = false;
};

RegimeProbe probe_regime(const ArbiterConfig& config,
                         const std::vector<TenantDemand>& rows) {
  RegimeProbe probe;
  std::uint64_t live = 0;
  std::uint64_t total = 0;
  std::vector<std::uint32_t> extra;
  for (const TenantDemand& r : rows) {
    std::uint32_t requested = r.requested_pool;
    if (config.instance_mem_mb > 0.0 && r.requested_mem_mb > 0.0) {
      const double needed = std::ceil(r.requested_mem_mb / config.instance_mem_mb);
      requested = std::max(requested, static_cast<std::uint32_t>(needed));
    }
    requested = std::min(requested, config.site_cap);
    extra.push_back(std::max(r.live_instances, requested) - r.live_instances);
    live += r.live_instances;
    total += extra.back();
  }
  const std::uint64_t spare = config.site_cap - live;
  if (spare == 0) {
    probe.zero_spare = true;
    return probe;
  }
  if (total <= spare) {
    probe.fits = true;
    return probe;
  }
  probe.oversubscribed_with_spare = true;
  std::uint64_t left = spare;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> candidates;
  for (std::uint32_t e : extra) {
    left -= spare * e / total;
    if (spare * e % total != 0) candidates.emplace_back(spare * e % total, e);
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  if (left == 0 || left >= candidates.size()) return probe;
  const std::uint64_t boundary = candidates[left - 1].first;
  if (candidates[left].first != boundary) return probe;
  std::set<std::uint32_t> extras;
  for (const auto& [rem, e] : candidates) {
    if (rem == boundary) extras.insert(e);
  }
  probe.cross_extra_tie = extras.size() > 1;
  return probe;
}

/// One fuzz run: a random sequence of row inserts (in arrival order),
/// updates and erasures on a ledger, checked after every operation against
/// reference_shares (DemandWeighted, BudgetWeighted) and allocate_shares
/// (all strategies), and the moved-slot report against the share diff.
/// Returns what the run covered.
struct LedgerCoverage {
  std::size_t zero_spare = 0;
  std::size_t fits = 0;
  std::size_t oversubscribed_with_spare = 0;
  std::size_t cross_extra_ties = 0;
  std::size_t fifo_first_erased = 0;
};

void fuzz_ledger(std::uint64_t seed, LedgerCoverage& coverage) {
  util::Rng rng(seed);
  ArbiterConfig config;
  config.site_cap = static_cast<std::uint32_t>(rng.uniform_int(3, 24));
  const bool memory = rng.bernoulli(0.5);
  if (memory) config.instance_mem_mb = 4096.0;
  const std::vector<ArbiterStrategy> strategies = all_strategies();
  const ArbiterStrategy strategy = rng.bernoulli(0.7)
      ? ArbiterStrategy::DemandWeighted
      : strategies[static_cast<std::size_t>(rng.uniform_int(0, 3))];
  SCOPED_TRACE(std::string(strategy_name(strategy)) + " cap=" +
               std::to_string(config.site_cap) +
               (memory ? " memory-aware" : ""));
  ShareLedger ledger(strategy, config);

  std::map<std::size_t, TenantDemand> held;  // slot -> row, slot order
  std::map<std::size_t, std::uint32_t> reported;
  std::size_t next_slot = 0;
  double clock = 0.0;
  const double budgets[] = {-1.0, 0.0, 0.01, 0.5, 1.0, 3.0, 100.0};
  const auto live_elsewhere = [&](std::size_t slot) {
    std::uint32_t live = 0;
    for (const auto& [s, r] : held) {
      if (s != slot) live += r.live_instances;
    }
    return live;
  };
  // A fresh demand for `slot`: few distinct extras so remainders tie often,
  // and now and then a floor that fills the site exactly (zero spare).
  const auto redraw = [&](std::size_t slot, TenantDemand& row) {
    const std::uint32_t room = config.site_cap - live_elsewhere(slot);
    row.live_instances =
        rng.bernoulli(0.15)
            ? std::min<std::uint32_t>(room, 6)
            : std::min<std::uint32_t>(
                  room, static_cast<std::uint32_t>(rng.uniform_int(0, 2)));
    const auto extra = static_cast<std::uint32_t>(rng.uniform_int(0, 4));
    row.requested_pool = rng.bernoulli(0.1) && row.live_instances > 0
                             ? row.live_instances - 1
                             : row.live_instances + extra;
    row.requested_mem_mb =
        memory && rng.bernoulli(0.3)
            ? 1024.0 * static_cast<double>(rng.uniform_int(1, 16))
            : 0.0;
    row.remaining_budget_units = budgets[rng.uniform_int(0, 6)];
  };

  for (int op = 0; op < 80; ++op) {
    const double pick = rng.uniform(0.0, 1.0);
    if (held.empty() || pick < 0.35) {
      if (rng.bernoulli(0.6)) clock += static_cast<double>(rng.uniform_int(1, 3));
      TenantDemand row;
      row.job = static_cast<std::uint32_t>(next_slot);
      row.arrival_seconds = clock;
      redraw(next_slot, row);
      held[next_slot] = row;
      ledger.insert(next_slot++, row);
    } else if (pick < 0.8) {
      auto it = held.begin();
      std::advance(it, rng.uniform_int(0, static_cast<std::int64_t>(held.size()) - 1));
      redraw(it->first, it->second);
      ledger.update(it->first, it->second);
    } else {
      // Half the erasures retire the FIFO-first tenant (slot order is
      // arrival order here), the one the tied leftover units favour.
      auto it = held.begin();
      if (rng.bernoulli(0.5)) {
        ++coverage.fifo_first_erased;
      } else {
        std::advance(it, rng.uniform_int(0, static_cast<std::int64_t>(held.size()) - 1));
      }
      ledger.erase(it->first);
      reported.erase(it->first);
      held.erase(it);
    }
    ASSERT_TRUE(ledger.pending());
    const std::vector<std::size_t> moved = ledger.allocate();
    EXPECT_FALSE(ledger.pending());

    std::vector<TenantDemand> rows;
    std::vector<std::size_t> slots;
    std::uint32_t live = 0;
    for (const auto& [slot, row] : held) {
      rows.push_back(row);
      slots.push_back(slot);
      live += row.live_instances;
    }
    SCOPED_TRACE("op " + std::to_string(op) + ", rows " +
                 std::to_string(rows.size()));
    EXPECT_EQ(ledger.size(), rows.size());
    EXPECT_EQ(ledger.live_total(), live);
    const std::vector<std::uint32_t> pure =
        allocate_shares(strategy, config, rows);
    std::vector<std::uint32_t> expected = pure;
    if (strategy == ArbiterStrategy::DemandWeighted ||
        strategy == ArbiterStrategy::BudgetWeighted) {
      expected = reference_shares(strategy, config, rows);
      EXPECT_EQ(pure, expected) << "allocate_shares vs reference";
    }
    std::vector<std::size_t> diff;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      ASSERT_TRUE(ledger.contains(slots[i]));
      EXPECT_EQ(ledger.share(slots[i]), expected[i]) << "slot " << slots[i];
      const auto prev = reported.find(slots[i]);
      if (prev == reported.end() || prev->second != expected[i]) {
        diff.push_back(slots[i]);
      }
      reported[slots[i]] = expected[i];
    }
    EXPECT_EQ(moved, diff) << "moved-slot report";
    if (strategy == ArbiterStrategy::DemandWeighted && !rows.empty()) {
      const RegimeProbe probe = probe_regime(config, rows);
      coverage.zero_spare += probe.zero_spare;
      coverage.fits += probe.fits;
      coverage.oversubscribed_with_spare += probe.oversubscribed_with_spare;
      coverage.cross_extra_ties += probe.cross_extra_tie;
    }
  }
}

TEST(LedgerFuzz, MatchesOraclesAfterEveryOperation) {
  // WIRE_FUZZ_SEED=<n> replays one run (the failing seed is in the trace);
  // unset, a fixed seed set runs and must cover every allocation regime.
  LedgerCoverage coverage;
  if (const char* env = std::getenv("WIRE_FUZZ_SEED")) {
    const std::uint64_t seed = std::strtoull(env, nullptr, 10);
    SCOPED_TRACE("WIRE_FUZZ_SEED=" + std::to_string(seed));
    fuzz_ledger(seed, coverage);
    return;
  }
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("WIRE_FUZZ_SEED=" + std::to_string(seed));
    fuzz_ledger(seed, coverage);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(coverage.zero_spare, 1000u);
  EXPECT_GT(coverage.fits, 1000u);
  EXPECT_GT(coverage.oversubscribed_with_spare, 1000u);
  EXPECT_GT(coverage.cross_extra_ties, 100u);
  EXPECT_GT(coverage.fifo_first_erased, 1000u);
}

// ---------------------------------------------------------------------------
// JobEngine external cap

TEST(JobEngineCap, ExternalCapBindsAndDemandStaysHonest) {
  // A wide stage under pure-reactive wants ~12 instances; an external cap of
  // 2 must clip the pool while the demand signal keeps reporting the real
  // want (that asymmetry is what demand-weighted arbitration feeds on).
  const dag::Workflow wf = workload::linear_workflow(1, 48, 400.0);
  policies::PureReactivePolicy policy;
  sim::CloudConfig config = quiet_site(0);  // no site-side limit
  sim::RunOptions options;
  options.initial_instances = 1;
  sim::JobEngine engine(wf, policy, config, options);
  engine.set_instance_cap(2);
  engine.start();
  std::uint32_t demand_seen = 0;
  while (!engine.done()) {
    engine.step();
    EXPECT_LE(engine.live_instances(), 2u);
    demand_seen = std::max(demand_seen, engine.requested_pool());
  }
  const sim::RunResult result = engine.result();
  EXPECT_LE(result.peak_instances, 2u);
  EXPECT_GT(demand_seen, 2u);
  for (const sim::TaskRuntime& rec : result.task_records) {
    EXPECT_EQ(rec.phase, sim::TaskPhase::Completed);
  }
}

TEST(JobEngineCap, ZeroCapBlocksAllGrowth) {
  // A share of 0 parks the tenant at its floor: no new instances, ever.
  // (kNoInstanceCap, not 0, is the "uncapped" sentinel.)
  const dag::Workflow wf = workload::linear_workflow(1, 16, 200.0);
  policies::PureReactivePolicy policy;
  sim::RunOptions options;
  options.initial_instances = 1;
  sim::JobEngine engine(wf, policy, quiet_site(0), options);
  engine.start();
  engine.set_instance_cap(0);
  while (!engine.done()) {
    engine.step();
    EXPECT_LE(engine.live_instances(), 1u);
  }
  EXPECT_LE(engine.result().peak_instances, 1u);
}

// ---------------------------------------------------------------------------
// EnsembleDriver

ArrivalProcess burst_stream(std::uint32_t jobs, double spacing_seconds) {
  std::vector<JobArrival> trace(jobs);
  for (std::uint32_t i = 0; i < jobs; ++i) {
    trace[i].arrival_seconds = spacing_seconds * i;
    trace[i].profile_index = i % 2;
  }
  return ArrivalProcess::fixed_trace(std::move(trace), 13);
}

TEST(EnsembleDriver, ReportsAreByteReproducible) {
  const sim::CloudConfig site = quiet_site();
  EnsembleOptions options;
  options.strategy = ArbiterStrategy::DemandWeighted;
  options.site_cap = 6;
  const PolicyFactory factory =
      exp::policy_factory(exp::PolicyKind::ReactiveConserving);

  EnsembleDriver first(small_profiles(), burst_stream(5, 120.0), factory,
                       site, options);
  EnsembleDriver second(small_profiles(), burst_stream(5, 120.0), factory,
                        site, options);
  const EnsembleReport a = first.run();
  const EnsembleReport b = second.run();
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.render(), b.render());
}

TEST(EnsembleDriver, CapacityInvariantHoldsAtEveryEvent) {
  // A tight burst (5 jobs, 1-minute spacing) on a 4-instance site keeps the
  // arbiter under pressure; the invariant must hold after every event under
  // every strategy.
  for (ArbiterStrategy strategy : all_strategies()) {
    EnsembleOptions options;
    options.strategy = strategy;
    options.site_cap = 4;
    EnsembleDriver driver(small_profiles(), burst_stream(5, 60.0),
                          exp::policy_factory(exp::PolicyKind::PureReactive),
                          quiet_site(), options);
    std::size_t samples = 0;
    driver.set_site_listener([&](const SiteSample& sample) {
      ++samples;
      ASSERT_LE(sample.live_total, sample.site_cap);
      std::uint32_t share_total = 0;
      for (std::size_t i = 0; i < sample.jobs.size(); ++i) {
        ASSERT_GE(sample.shares[i], sample.live[i])
            << strategy_name(strategy) << " preempted job "
            << sample.jobs[i];
        share_total += sample.shares[i];
      }
      ASSERT_LE(share_total, sample.site_cap);
    });
    const EnsembleReport report = driver.run();
    EXPECT_GT(samples, report.jobs.size());  // many events per job
    EXPECT_EQ(report.jobs.size(), 5u);
  }
}

TEST(EnsembleDriver, FifoAdmitsOneJobAtATime) {
  EnsembleOptions options;
  options.strategy = ArbiterStrategy::FifoExclusive;
  options.site_cap = 4;
  options.dedicated_baseline = false;
  EnsembleDriver driver(small_profiles(), burst_stream(4, 30.0),
                        exp::policy_factory(exp::PolicyKind::PureReactive),
                        quiet_site(), options);
  driver.set_site_listener([](const SiteSample& sample) {
    std::size_t running = 0;
    for (std::uint32_t live : sample.live) running += live > 0 ? 1 : 0;
    ASSERT_LE(running, 1u) << "fifo-exclusive ran two jobs concurrently";
  });
  const EnsembleReport report = driver.run();
  // Later arrivals queue behind the head: at least one job waited.
  double max_wait = 0.0;
  for (const JobOutcome& j : report.jobs) {
    max_wait = std::max(max_wait, j.queue_wait_seconds);
    EXPECT_GE(j.queue_wait_seconds, 0.0);
  }
  EXPECT_GT(max_wait, 0.0);
}

TEST(EnsembleDriver, JobsRetireWithConsistentTimestamps) {
  EnsembleOptions options;
  options.strategy = ArbiterStrategy::StaticFairShare;
  options.site_cap = 6;
  EnsembleDriver driver(small_profiles(), burst_stream(4, 300.0),
                        exp::policy_factory(exp::PolicyKind::ReactiveConserving),
                        quiet_site(), options);
  const EnsembleReport report = driver.run();
  ASSERT_EQ(report.jobs.size(), 4u);
  for (const JobOutcome& j : report.jobs) {
    EXPECT_GE(j.admitted_seconds, j.arrival_seconds);
    EXPECT_GT(j.completed_seconds, j.admitted_seconds);
    EXPECT_DOUBLE_EQ(j.queue_wait_seconds,
                     j.admitted_seconds - j.arrival_seconds);
    EXPECT_DOUBLE_EQ(j.makespan_seconds,
                     j.completed_seconds - j.admitted_seconds);
    EXPECT_GT(j.dedicated_makespan_seconds, 0.0);
    EXPECT_GE(j.slowdown, 1.0 - 1e-9);  // sharing never beats a dedicated site
    EXPECT_GT(j.cost_units, 0.0);
  }
  EXPECT_GE(report.horizon_seconds,
            report.jobs.back().completed_seconds - 1e-9);
  EXPECT_GT(report.throughput_jobs_per_hour, 0.0);
  EXPECT_GT(report.site_utilization, 0.0);
  EXPECT_LE(report.site_utilization, 1.0 + 1e-9);
  EXPECT_GE(report.max_slowdown, report.mean_slowdown);
}

/// Delegates to reactive-conserving while cross-checking everything the
/// snapshot exposes against the tenant's own workflow: any leakage of another
/// tenant's tasks or instances would break the recorded sizes/ids.
class IsolationProbePolicy : public sim::ScalingPolicy {
 public:
  IsolationProbePolicy(std::uint32_t site_cap,
                       std::vector<std::string>* violations)
      : site_cap_(site_cap), violations_(violations) {}

  std::string name() const override { return inner_.name(); }

  void on_run_start(const dag::Workflow& workflow,
                    const sim::CloudConfig& config) override {
    task_count_ = workflow.task_count();
    inner_.on_run_start(workflow, config);
  }

  sim::PoolCommand plan(const sim::MonitorSnapshot& snapshot) override {
    if (snapshot.tasks.size() != task_count_) {
      violations_->push_back("snapshot task vector is not this job's DAG");
    }
    if (snapshot.pool_cap == sim::kNoInstanceCap) {
      violations_->push_back("pool_cap is uncapped under an arbiter");
    } else if (snapshot.pool_cap == 0 || snapshot.pool_cap > site_cap_) {
      // An admitted tenant's share is floored at 1 (and at its live count),
      // so a genuine zero share must never reach a policy in these runs.
      violations_->push_back("pool_cap outside (0, site_cap]");
    }
    if (snapshot.instances.size() > snapshot.pool_cap) {
      violations_->push_back("snapshot shows more instances than the share");
    }
    for (const sim::InstanceObservation& inst : snapshot.instances) {
      for (dag::TaskId t : inst.running_tasks) {
        if (t >= task_count_) {
          violations_->push_back("foreign task id on a tenant instance");
        }
      }
    }
    for (dag::TaskId t : snapshot.ready_queue) {
      if (t >= task_count_) {
        violations_->push_back("foreign task id in the ready queue");
      }
    }
    return inner_.plan(snapshot);
  }

 private:
  std::uint32_t site_cap_;
  std::vector<std::string>* violations_;
  std::size_t task_count_ = 0;
  policies::ReactiveConservingPolicy inner_;
};

TEST(EnsembleDriver, TenantSnapshotsAreIsolated) {
  // Two profiles with different task counts run concurrently; every
  // snapshot any tenant's policy sees must describe only that tenant.
  EnsembleOptions options;
  options.strategy = ArbiterStrategy::StaticFairShare;
  options.site_cap = 6;
  options.dedicated_baseline = false;
  std::vector<std::string> violations;
  EnsembleDriver driver(
      small_profiles(), burst_stream(4, 60.0),
      [&]() {
        return std::make_unique<IsolationProbePolicy>(6, &violations);
      },
      quiet_site(), options);
  const EnsembleReport report = driver.run();
  EXPECT_EQ(report.jobs.size(), 4u);
  EXPECT_TRUE(violations.empty())
      << violations.size() << " violations, first: " << violations.front();
}

TEST(EnsembleDriver, RejectsMalformedSetups) {
  const sim::CloudConfig site = quiet_site();
  const PolicyFactory factory =
      exp::policy_factory(exp::PolicyKind::PureReactive);
  EXPECT_THROW(EnsembleDriver({}, burst_stream(2, 60.0), factory, site),
               util::ContractViolation);
  std::vector<JobArrival> bad(1);
  bad[0].profile_index = 99;
  EXPECT_THROW(EnsembleDriver(small_profiles(),
                              ArrivalProcess::fixed_trace(bad), factory, site),
               util::ContractViolation);
  EnsembleOptions zero_cap;
  zero_cap.site_cap = 0;
  EXPECT_THROW(EnsembleDriver(small_profiles(), burst_stream(2, 60.0), factory,
                              site, zero_cap),
               util::ContractViolation);
}

TEST(EnsembleDriver, RejectsOutOfDomainOptionsNamingTheField) {
  // Each bad value must fail at construction with a message that names the
  // field. A NaN max_sim_seconds would otherwise disable the stuck guard
  // (every `now > NaN` is false), and a negative one would surface as a
  // misleading "site appears stuck" at the first arrival.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    const char* field;
    void (*corrupt)(EnsembleOptions&, double);
    double value;
  };
  const auto shards = [](EnsembleOptions& o, double v) {
    o.shards = static_cast<std::uint32_t>(v);
  };
  const auto max_sim = [](EnsembleOptions& o, double v) {
    o.max_sim_seconds = v;
  };
  const auto budget = [](EnsembleOptions& o, double v) {
    o.budget_units = v;
  };
  const auto stagger = [](EnsembleOptions& o, double v) {
    o.checkpoint_stagger_period_seconds = v;
  };
  const Case cases[] = {
      {"EnsembleOptions::shards", shards, 2.0},
      {"EnsembleOptions::shards", shards, 8.0},
      {"EnsembleOptions::max_sim_seconds", max_sim, nan},
      {"EnsembleOptions::max_sim_seconds", max_sim, inf},
      {"EnsembleOptions::max_sim_seconds", max_sim, 0.0},
      {"EnsembleOptions::max_sim_seconds", max_sim, -1.0},
      {"EnsembleOptions::budget_units", budget, nan},
      {"EnsembleOptions::budget_units", budget, inf},
      {"EnsembleOptions::budget_units", budget, -1.0},
      {"EnsembleOptions::checkpoint_stagger_period_seconds", stagger, nan},
      {"EnsembleOptions::checkpoint_stagger_period_seconds", stagger, inf},
      {"EnsembleOptions::checkpoint_stagger_period_seconds", stagger, -1.0},
  };
  const PolicyFactory factory =
      exp::policy_factory(exp::PolicyKind::PureReactive);
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.field) + " = " + std::to_string(c.value));
    EnsembleOptions options;
    c.corrupt(options, c.value);
    try {
      const EnsembleDriver driver(small_profiles(), burst_stream(2, 60.0),
                                  factory, quiet_site(), options);
      ADD_FAILURE() << "constructor accepted the bad value";
    } catch (const util::ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
          << e.what();
    }
  }
  // The boundary values stay legal: both loops, no budget, no stagger
  // override.
  for (const std::uint32_t loop : {0u, 1u}) {
    EnsembleOptions options;
    options.shards = loop;
    options.budget_units = 0.0;
    options.checkpoint_stagger_period_seconds = 0.0;
    EXPECT_NO_THROW(EnsembleDriver(small_profiles(), burst_stream(2, 60.0),
                                   factory, quiet_site(), options));
  }
}

}  // namespace
}  // namespace wire::ensemble
