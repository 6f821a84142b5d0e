// The experiment settings matrix of §IV-C: four resource-management policies
// × four charging units (1, 15, 30, 60 minutes), on the simulated ExoGENI
// site of §IV-B (12 XOXLarge instances max, 4 slots each, ~3 minute lag).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/controller.h"
#include "policies/budget.h"
#include "sim/config.h"
#include "sim/scaling_policy.h"

namespace wire::exp {

/// The four §IV-C resource-management settings.
enum class PolicyKind {
  FullSite,            // static, 12 instances ("full-site runs")
  PureReactive,        // pool == active tasks
  ReactiveConserving,  // reactive load + steering release rules
  Wire,                // the WIRE controller
};

const char* policy_label(PolicyKind kind);

/// All four, in paper order.
std::vector<PolicyKind> all_policies();

/// The §IV-B charging units in seconds: 1, 15, 30, 60 minutes.
std::vector<double> paper_charging_units();

/// The §IV-B cloud site with the given charging unit.
sim::CloudConfig paper_cloud(double charging_unit_seconds);

/// Instantiates a policy. `wire_options` applies to PolicyKind::Wire only.
std::unique_ptr<sim::ScalingPolicy> make_policy(
    PolicyKind kind, const core::WireOptions& wire_options = {});

/// A reusable factory for `kind`: each call yields a fresh policy instance.
/// This is the shape the multi-tenant ensemble driver consumes (one
/// controller per concurrent job). For PolicyKind::Wire, every controller
/// from one factory shares a single Plan scratch arena (safe: no two policies
/// of an ensemble ever plan() concurrently; see core/plan_scratch.h) — pass
/// WireOptions::plan_scratch to override.
///
/// With `wire_options.bandit` enabled, every minted controller carries its
/// OWN BanditSelector (per-tenant predictor selection), all seeded from the
/// same `bandit.seed`. The seed is deliberately NOT mixed with a mint-order
/// counter: the ensemble driver's dedicated-baseline replay mints a second
/// policy for every tenant, and that replay must see the same selector
/// stream as the tenant's shared-site run. Per-tenant selector streams still
/// diverge deterministically because each tenant feeds its selector its own
/// regret sequence. Selector-off (`bandit.arms == 0`) stays byte-identical
/// to the pre-bandit factories.
std::function<std::unique_ptr<sim::ScalingPolicy>()> policy_factory(
    PolicyKind kind, const core::WireOptions& wire_options = {});

/// As policy_factory, with every minted policy wrapped in a
/// policies::BudgetPolicy carrying `budget`. With budget.budget_units == 0
/// the wrapper is a pure passthrough and the factory's runs are
/// byte-identical to policy_factory's — the budget-off identity contract.
std::function<std::unique_ptr<sim::ScalingPolicy>()> budget_policy_factory(
    PolicyKind kind, const policies::BudgetOptions& budget,
    const core::WireOptions& wire_options = {});

/// Bootstrap pool size for a policy on a site: the full site for FullSite,
/// one instance for the elastic policies.
std::uint32_t initial_instances(PolicyKind kind,
                                const sim::CloudConfig& config);

}  // namespace wire::exp
