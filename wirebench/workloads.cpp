#include "workloads.h"

#include <algorithm>
#include <cmath>

#include "core/controller.h"
#include "dag/workflow.h"
#include "ensemble/driver.h"
#include "exp/settings.h"
#include "policies/budget.h"
#include "sim/driver.h"
#include "sim/engine.h"
#include "util/rng.h"
#include "workload/generators.h"
#include "workload/profiles.h"

namespace wirebench {
namespace {

using namespace wire;

constexpr std::size_t kMaxFailureMessages = 5;

/// FNV-1a over raw bytes; outcome digests fold doubles bit-exactly.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
  void f64(double v) { bytes(&v, sizeof v); }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
};

void fail(PassResult& out, const std::string& message) {
  if (out.failures.size() < kMaxFailureMessages) {
    out.failures.push_back(message);
  }
}

// --------------------------------------------------------------------------
// Single-job workloads
// --------------------------------------------------------------------------

struct JobSpec {
  std::size_t workflow = 0;
  exp::PolicyKind kind = exp::PolicyKind::Wire;
  sim::CloudConfig cloud;
  std::uint64_t run_seed = 0;
  core::WireOptions wire;
  policies::BudgetOptions budget;
};

/// Mints the job's policy through exp::make_policy and decorates it for
/// `mode`: nothing in Plain; the WIRE decision in Untraced; every policy
/// layer in Traced.
std::unique_ptr<sim::ScalingPolicy> mint(const JobSpec& spec, Mode mode,
                                         Probe& probe) {
  const bool wire = spec.kind == exp::PolicyKind::Wire;
  std::unique_ptr<sim::ScalingPolicy> policy =
      exp::make_policy(spec.kind, spec.wire);
  if (spec.budget.budget_units > 0.0) {
    if (mode == Mode::Traced) {
      policy = std::make_unique<TimedPolicy>(std::move(policy), probe,
                                             /*decision=*/false,
                                             /*outer=*/false);
    }
    policy = std::make_unique<policies::BudgetPolicy>(std::move(policy),
                                                      spec.budget);
  }
  if (mode == Mode::Plain || (!wire && mode == Mode::Untraced)) return policy;
  return std::make_unique<TimedPolicy>(std::move(policy), probe, wire,
                                       /*outer=*/true);
}

/// Billing bounds that any correct charging-unit ledger meets, checked
/// against quantities other than the bill itself: the bill is a whole number
/// of units, covers every ready instance-second, and rounds each billed
/// instance's ready life up by less than one unit. `billed_rows` is the
/// number of instances that left provisioning (0 when unknown, which skips
/// the upper bound).
bool check_billing(const sim::RunResult& r, std::size_t billed_rows, double u,
                   std::string* why) {
  const double ready_units = r.ready_instance_seconds / u;
  const double slack = 1e-6 * static_cast<double>(billed_rows + 1);
  if (r.cost_units != std::floor(r.cost_units)) {
    *why = "billed units are not whole: " + std::to_string(r.cost_units);
    return false;
  }
  if (r.cost_units < ready_units - slack) {
    *why = "billed " + std::to_string(r.cost_units) +
           " units for " + std::to_string(ready_units) + " ready units";
    return false;
  }
  if (billed_rows > 0 &&
      r.cost_units > ready_units + static_cast<double>(billed_rows) + slack) {
    *why = "billed " + std::to_string(r.cost_units) + " units for " +
           std::to_string(ready_units) + " ready units over " +
           std::to_string(billed_rows) + " instances";
    return false;
  }
  return true;
}

/// Exactly-once resolution: every task completed or quarantined, never both,
/// and the quarantine list matches the per-task records.
bool check_resolution(const dag::Workflow& wf, const sim::RunResult& r,
                      std::string* why) {
  if (r.task_records.size() != wf.task_count()) {
    *why = "task record count differs from the DAG";
    return false;
  }
  std::vector<char> quarantined(wf.task_count(), 0);
  for (std::size_t i = 0; i < r.quarantined_tasks.size(); ++i) {
    const dag::TaskId t = r.quarantined_tasks[i];
    if (t >= wf.task_count() || quarantined[t] != 0 ||
        (i > 0 && t <= r.quarantined_tasks[i - 1])) {
      *why = "quarantine list is not a strictly ascending task set";
      return false;
    }
    quarantined[t] = 1;
  }
  std::size_t completed = 0;
  for (std::size_t t = 0; t < wf.task_count(); ++t) {
    const sim::TaskRuntime& rec = r.task_records[t];
    const bool done = rec.phase == sim::TaskPhase::Completed;
    if (rec.quarantined != (quarantined[t] != 0) ||
        (done && quarantined[t] != 0)) {
      *why = "task both completed and quarantined, or quarantine mismatch";
      return false;
    }
    if (done) ++completed;
  }
  if (completed + r.quarantined_tasks.size() != wf.task_count()) {
    *why = "completed + quarantined != task count";
    return false;
  }
  return true;
}

void fold_result(Fnv& fnv, const sim::RunResult& r) {
  fnv.f64(r.makespan);
  fnv.f64(r.cost_units);
  fnv.f64(r.ready_instance_seconds);
  fnv.f64(r.busy_slot_seconds);
  fnv.f64(r.wasted_slot_seconds);
  fnv.u64(r.peak_instances);
  fnv.u64(r.task_restarts);
  fnv.u64(r.control_ticks);
  fnv.u64(r.task_faults);
  fnv.u64(r.instance_crashes);
  fnv.u64(r.oom_kills);
  fnv.u64(r.checkpoints_completed);
  fnv.u64(r.checkpoints_lost);
  fnv.u64(r.monitor_dropouts);
  for (dag::TaskId t : r.quarantined_tasks) fnv.u64(t);
  for (const sim::TaskRuntime& rec : r.task_records) {
    fnv.f64(rec.completed_at);
    fnv.u64(rec.attempts);
  }
}

/// A fixed set of dedicated-site jobs over a few workflows.
class JobSetWorkload : public Workload {
 public:
  PassResult run_pass(Mode mode, Probe& probe) const override;

 protected:
  /// Fills workflows_ and jobs_ for `seed`.
  virtual void build(std::uint64_t seed) = 0;

  void setup(std::uint64_t seed) override {
    workflows_.clear();
    jobs_.clear();
    build(seed);
    dag_tasks_ = 0;
    for (const JobSpec& job : jobs_) {
      dag_tasks_ += workflows_[job.workflow].task_count();
    }
    // Engine construction is part of set-up's cost, so build one.
    Probe setup_probe;
    std::unique_ptr<sim::ScalingPolicy> policy =
        mint(jobs_.front(), Mode::Plain, setup_probe);
    sim::JobEngine engine(workflows_[jobs_.front().workflow], *policy,
                          jobs_.front().cloud, run_options(jobs_.front()));
  }

  /// Times workload::make_workflow calls into build_s_.
  template <typename Fn>
  void add_workflow(Fn&& make) {
    const Clock::time_point t0 = Clock::now();
    workflows_.push_back(make());
    build_s_ += seconds_between(t0, Clock::now());
  }

  static sim::RunOptions run_options(const JobSpec& job) {
    sim::RunOptions options;
    options.seed = job.run_seed;
    options.initial_instances = exp::initial_instances(job.kind, job.cloud);
    return options;
  }

  std::vector<dag::Workflow> workflows_;
  std::vector<JobSpec> jobs_;

 private:
  void run_job(const JobSpec& job, Mode mode, Probe& probe, Fnv& fnv,
               PassResult& out) const;
};

PassResult JobSetWorkload::run_pass(Mode mode, Probe& probe) const {
  PassResult out;
  Fnv fnv;
  const Clock::time_point t0 = Clock::now();
  for (const JobSpec& job : jobs_) run_job(job, mode, probe, fnv, out);
  out.wall_s = seconds_between(t0, Clock::now());
  out.digest = fnv.h;
  return out;
}

void JobSetWorkload::run_job(const JobSpec& job, Mode mode, Probe& probe,
                             Fnv& fnv, PassResult& out) const {
  const dag::Workflow& wf = workflows_[job.workflow];
  const sim::RunOptions options = run_options(job);
  ++out.jobs;
  out.tasks += wf.task_count();
  sim::RunResult r;
  std::size_t billed_rows = 0;  // Plain mode has no engine to count them on
  try {
    const double start_before = probe.start_s;
    const Clock::time_point j0 = Clock::now();
    std::unique_ptr<sim::ScalingPolicy> policy = mint(job, mode, probe);
    if (mode == Mode::Traced) {
      probe.start_s += seconds_between(j0, Clock::now());
    }
    if (mode == Mode::Plain) {
      r = sim::simulate(wf, *policy, job.cloud, options);
    } else {
      sim::JobEngine engine(wf, *policy, job.cloud, options);
      engine.start();
      if (mode == Mode::Untraced) {
        while (!engine.done()) engine.step();
      } else {
        // Construction and start(), less the policy's own set-up (minting
        // and on_run_start), which belongs to the policy layers.
        out.engine_s += seconds_between(j0, Clock::now()) -
                        (probe.start_s - start_before);
        while (!engine.done()) {
          const double plan_before = probe.outer_plan_s + probe.estimate_s;
          const std::uint64_t calls_before = probe.outer_plan_calls;
          const Clock::time_point s0 = Clock::now();
          engine.step();
          const double dt = seconds_between(s0, Clock::now());
          ++out.events;
          if (probe.outer_plan_calls != calls_before) {
            ++out.tick_steps;
            out.tick_overhead_s +=
                dt - (probe.outer_plan_s + probe.estimate_s - plan_before);
          } else {
            out.event_step_s += dt;
          }
        }
      }
      const Clock::time_point r0 = Clock::now();
      r = engine.result();
      if (mode == Mode::Traced) out.engine_s += seconds_between(r0, Clock::now());
      for (const sim::Instance& inst : engine.cloud().instances()) {
        if (inst.state != sim::InstanceState::Provisioning) ++billed_rows;
      }
    }
    policy.reset();
    out.job_ms.push_back(seconds_between(j0, Clock::now()) * 1e3);
  } catch (const std::exception& e) {
    ++out.failed_jobs;
    fail(out, std::string(wf.name()) + ": " + e.what());
    fnv.u64(0xDEADull);
    return;
  }

  std::string why;
  bool ok = check_resolution(wf, r, &why) &&
            check_billing(r, billed_rows, job.cloud.charging_unit_seconds,
                          &why);
  if (ok && job.cloud.max_instances > 0 &&
      r.peak_instances > job.cloud.max_instances) {
    ok = false;
    why = "peak instances exceed the site cap";
  }
  if (!ok) {
    ++out.failed_jobs;
    fail(out, std::string(wf.name()) + ": " + why);
  }
  fold_result(fnv, r);

  out.useful_slot_s += r.busy_slot_seconds;
  out.wasted_slot_s += r.wasted_slot_seconds;
  out.crashes += r.instance_crashes;
  out.oom_kills += r.oom_kills;
  out.checkpoints_committed += r.checkpoints_completed;
  out.checkpoints_lost += r.checkpoints_lost;
  out.monitor_dropouts += r.monitor_dropouts;
  out.quarantined_tasks += r.quarantined_tasks.size();
  if (job.kind != exp::PolicyKind::Wire) return;
  ++out.wire_jobs;
  out.cost_units += r.cost_units;
  out.makespan_s += r.makespan;
  out.busy_slot_s += r.busy_slot_seconds;
  out.ready_slot_s +=
      r.ready_instance_seconds * static_cast<double>(job.cloud.slots_per_instance);
  for (const sim::TaskRuntime& rec : r.task_records) {
    if (rec.phase != sim::TaskPhase::Completed) continue;
    out.wait_s += rec.occupancy_start - rec.ready_at;
    ++out.waits;
  }
}

/// Fig. 5/6 regime: all eight Table-I profiles x the four §IV-C policies x
/// the four charging units on the §IV-B site, several run seeds each.
class Table1Matrix final : public JobSetWorkload {
 public:
  const char* name() const override { return "table1-matrix"; }
  double nominal_pass_s() const override { return 1.6; }

 protected:
  // Six DAG instances per profile, one run each: one DAG's draw would
  // otherwise move every metric of its profile together, and the median
  // job sits where job times climb steeply with DAG size.
  static constexpr std::uint32_t kDags = 6;
  static constexpr std::uint32_t kRunSeeds = 1;

  void build(std::uint64_t seed) override {
    build_s_ = 0.0;
    const std::vector<workload::WorkflowProfile> profiles =
        workload::table1_profiles();
    std::uint64_t stream = 0;
    for (const workload::WorkflowProfile& profile : profiles) {
      for (std::uint32_t d = 0; d < kDags; ++d) {
        add_workflow([&] {
          return workload::make_workflow(
              profile, util::derive_seed(seed, 100 + workflows_.size()));
        });
        for (exp::PolicyKind kind : exp::all_policies()) {
          for (double u : exp::paper_charging_units()) {
            for (std::uint32_t s = 0; s < kRunSeeds; ++s) {
              JobSpec job;
              job.workflow = workflows_.size() - 1;
              job.kind = kind;
              job.cloud = exp::paper_cloud(u);
              job.run_seed = util::derive_seed(seed, 1000 + stream++);
              jobs_.push_back(job);
            }
          }
        }
      }
    }
  }
};

/// Genome L + PageRank L on a hostile site with every extension on.
class ChaosExtensions final : public JobSetWorkload {
 public:
  const char* name() const override { return "chaos-extensions"; }
  double nominal_pass_s() const override { return 1.3; }

 protected:
  // PageRank-heavy: its long map tasks are the ones that outlive the
  // checkpoint interval, and a two-to-one mix keeps the median job inside
  // one workflow's host-time mode. Several DAG draws per workflow keep one
  // draw from moving every run of its workflow together.
  static constexpr std::uint32_t kDags = 8;
  static constexpr std::uint32_t kRunsPerDag[] = {6, 12};

  static sim::CloudConfig hostile_site(const workload::WorkflowProfile& p) {
    sim::CloudConfig config = exp::paper_cloud(60.0);
    config.faults.crash_rate_per_hour = 0.6;
    config.faults.crash_notice_seconds = 120.0;
    config.faults.provision_failure_prob = 0.1;
    config.faults.straggler_prob = 0.15;
    config.faults.task_failure_prob = 0.05;
    config.faults.monitor_dropout_prob = 0.1;
    double need = 0.0;
    for (const workload::StageProfile& s : p.stages) {
      need = std::max(need, s.mean_peak_mem_mb);
    }
    config.memory.instance_mem_mb =
        1.2 * need * static_cast<double>(config.slots_per_instance);
    config.memory.noise_sigma = 0.2;
    config.checkpoint.channel_bandwidth_mb_per_s = 400.0;
    config.checkpoint.interval_policy =
        sim::CheckpointConfig::IntervalPolicy::Static;
    config.checkpoint.static_interval_seconds = 60.0;
    return config;
  }

  void build(std::uint64_t seed) override {
    build_s_ = 0.0;
    const workload::WorkflowProfile profiles[] = {
        workload::epigenomics_profile(workload::Scale::Large),
        workload::pagerank_profile(workload::Scale::Large)};
    const double budgets[] = {680.0, 350.0};
    std::uint64_t stream = 0;
    for (std::size_t p = 0; p < 2; ++p) {
      for (std::uint32_t d = 0; d < kDags; ++d) {
        add_workflow([&] {
          return workload::make_workflow(
              profiles[p], util::derive_seed(seed, 200 + workflows_.size()));
        });
        for (std::uint32_t s = 0; s < kRunsPerDag[p]; ++s) {
          JobSpec job;
          job.workflow = workflows_.size() - 1;
          job.cloud = hostile_site(profiles[p]);
          job.run_seed = util::derive_seed(seed, 3000 + stream++);
          job.wire.bandit.arms = 4;
          job.wire.bandit.switch_period_ticks = 2;
          job.wire.bandit.seed = util::derive_seed(job.run_seed, 0xB17);
          job.budget.budget_units = budgets[p];
          job.budget.mode = policies::BudgetMode::kHardCap;
          jobs_.push_back(job);
        }
      }
    }
  }
};

// --------------------------------------------------------------------------
// ensemble-dense
// --------------------------------------------------------------------------

/// 2048 WIRE tenants arriving 50 ms apart on one demand-weighted site.
class EnsembleDense final : public Workload {
 public:
  const char* name() const override { return "ensemble-dense"; }
  double nominal_pass_s() const override { return 2.3; }

  void setup(std::uint64_t seed) override {
    profiles_ = {workload::tpch6_profile(workload::Scale::Small),
                 workload::pagerank_profile(workload::Scale::Small)};
    std::vector<ensemble::JobArrival> trace(kTenants);
    for (std::uint32_t i = 0; i < kTenants; ++i) {
      trace[i].arrival_seconds = 0.05 * i;
      trace[i].profile_index = i % profiles_.size();
    }
    arrivals_ = std::make_unique<ensemble::ArrivalProcess>(
        ensemble::ArrivalProcess::fixed_trace(std::move(trace),
                                              util::derive_seed(seed, 4)));
    ensemble::EnsembleDriver driver(profiles_, *arrivals_,
                                    exp::policy_factory(exp::PolicyKind::Wire),
                                    site(), options());
  }

  /// Tenant DAGs are instantiated inside run(), at admission; generate
  /// them once here to count and time them.
  void census() override {
    build_s_ = 0.0;
    dag_tasks_ = 0;
    for (const ensemble::JobArrival& a : arrivals_->jobs()) {
      const Clock::time_point t0 = Clock::now();
      dag_tasks_ += workload::make_workflow(profiles_[a.profile_index],
                                            a.workflow_seed)
                        .task_count();
      build_s_ += seconds_between(t0, Clock::now());
    }
  }

  PassResult run_pass(Mode mode, Probe& probe) const override;

 private:
  static constexpr std::uint32_t kTenants = 2048;

  static sim::CloudConfig site() {
    // Quiet, deterministic site (bench_scale's): the driver's work, not
    // variability, sets the event count.
    sim::CloudConfig config;
    config.lag_seconds = 180.0;
    config.charging_unit_seconds = 900.0;
    config.slots_per_instance = 4;
    config.variability.instance_speed_sigma = 0.0;
    config.variability.interference_sigma = 0.0;
    config.variability.transfer_noise_sigma = 0.0;
    config.variability.transfer_latency_seconds = 0.0;
    config.variability.bandwidth_mb_per_s = 1e12;
    return config;
  }

  static ensemble::EnsembleOptions options() {
    ensemble::EnsembleOptions o;
    o.strategy = ensemble::ArbiterStrategy::DemandWeighted;
    o.site_cap = kTenants / 4;
    o.dedicated_baseline = false;
    o.shards = 1;
    return o;
  }

  std::vector<workload::WorkflowProfile> profiles_;
  std::unique_ptr<ensemble::ArrivalProcess> arrivals_;
};

PassResult EnsembleDense::run_pass(Mode mode, Probe& probe) const {
  PassResult out;
  ensemble::PolicyFactory factory = exp::policy_factory(exp::PolicyKind::Wire);
  if (mode != Mode::Plain) {
    factory = [inner = std::move(factory), &probe]() {
      const Clock::time_point m0 = Clock::now();
      std::unique_ptr<sim::ScalingPolicy> policy = inner();
      if (probe.traced) probe.start_s += seconds_between(m0, Clock::now());
      return std::make_unique<TimedPolicy>(std::move(policy), probe,
                                           /*decision=*/true, /*outer=*/true);
    };
  }
  ensemble::EnsembleReport report;
  bool cap_ok = true;
  const Clock::time_point t0 = Clock::now();
  try {
    ensemble::EnsembleDriver driver(profiles_, *arrivals_, factory, site(),
                                    options());
    if (mode != Mode::Plain) {
      driver.set_site_listener([&](const ensemble::SiteSample& sample) {
        ++out.serial_events;
        out.peak_live_tenants = std::max<std::uint64_t>(
            out.peak_live_tenants, sample.jobs.size());
        std::uint64_t live = 0;
        for (std::uint32_t l : sample.live) live += l;
        if (sample.live_total > sample.site_cap || live != sample.live_total) {
          cap_ok = false;
        }
      });
    }
    const Clock::time_point r0 = Clock::now();
    report = driver.run();
    out.ensemble_run_s = seconds_between(r0, Clock::now());
  } catch (const std::exception& e) {
    out.jobs = kTenants;
    out.failed_jobs = kTenants;
    fail(out, std::string("ensemble: ") + e.what());
    out.wall_s = seconds_between(t0, Clock::now());
    return out;
  }
  out.wall_s = seconds_between(t0, Clock::now());
  // One stream cannot be split into per-tenant host times; each tenant is
  // charged an equal share of it.
  out.job_ms.assign(kTenants, out.wall_s * 1e3 / kTenants);

  Fnv fnv;
  double cost = 0.0;
  out.jobs = report.jobs.size();
  for (const ensemble::JobOutcome& job : report.jobs) {
    const bool ok = job.admitted_seconds >= job.arrival_seconds &&
                    job.completed_seconds >= job.admitted_seconds &&
                    job.cost_units >= 1.0 && job.peak_instances <= options().site_cap;
    if (!ok) {
      ++out.failed_jobs;
      fail(out, "ensemble job " + std::to_string(job.job) +
                    ": inconsistent timeline or billing");
    }
    cost += job.cost_units;
    fnv.u64(job.job);
    fnv.f64(job.admitted_seconds);
    fnv.f64(job.completed_seconds);
    fnv.f64(job.cost_units);
    fnv.u64(job.peak_instances);
    fnv.u64(job.task_restarts);
    fnv.u64(job.quarantined_tasks);
    out.makespan_s += job.makespan_seconds;
    out.cost_units += job.cost_units;
    out.wait_s += job.queue_wait_seconds;
    ++out.waits;
    out.quarantined_tasks += job.quarantined_tasks;
    out.crashes += job.instance_crashes;
  }
  fnv.f64(report.horizon_seconds);
  fnv.f64(report.site_utilization);
  out.digest = fnv.h;
  if (report.jobs.size() != kTenants) {
    out.failed_jobs = kTenants;
    fail(out, "ensemble: report lists " + std::to_string(report.jobs.size()) +
                  " jobs");
  }
  if (std::fabs(cost - report.total_cost_units) > 1e-6 * std::max(1.0, cost)) {
    ++out.failed_jobs;
    fail(out, "ensemble: per-job costs do not sum to the site total");
  }
  if (!cap_ok) {
    ++out.failed_jobs;
    fail(out, "ensemble: live instances exceeded the site cap at a sample");
  }
  out.wire_jobs = report.jobs.size();
  // Site utilization: busy over the site's slot capacity for the horizon.
  out.ready_slot_s = static_cast<double>(report.site_cap) *
                     report.slots_per_instance * report.horizon_seconds;
  out.busy_slot_s = report.site_utilization * out.ready_slot_s;
  out.useful_slot_s = out.busy_slot_s;
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "table1-matrix", "ensemble-dense", "chaos-extensions"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "table1-matrix") return std::make_unique<Table1Matrix>();
  if (name == "ensemble-dense") return std::make_unique<EnsembleDense>();
  if (name == "chaos-extensions") return std::make_unique<ChaosExtensions>();
  return nullptr;
}

}  // namespace wirebench
