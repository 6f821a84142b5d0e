// The WIRE benchmark driver.
//
//   wirebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   wirebench --selftest [--seed <n>]
//
// Sets the workload up several times (set-up time is the median), then runs
// its whole job set a fixed number of passes, --seconds over the workload's
// nominal pass time, and finally once more through the plain, undecorated
// entry points. Every pass must produce the
// same outcome digest. With --trace 0 the last line is a JSON object
// carrying the end-to-end metrics: each per-job and per-decision host time
// is the fastest any pass took for that job or decision, and wall_s is the
// sum of the per-job times. With --trace 1 untraced and traced passes alternate and
// the JSON carries the per-layer metrics, averaged over the traced passes.
//
// --selftest runs every workload's job set plain, decorated and traced and
// exits nonzero unless all three digests agree.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "probe.h"
#include "workloads.h"

namespace {

using namespace wirebench;

constexpr int kSetupRepeats = 51;
constexpr int kMinPasses = 2;
// A run on a machine much slower than the reference stops once its passes
// have taken this many times --seconds (twice that with --trace 1, which
// also runs a traced pass per pass), so it still ends in bounded time; at
// the reference speed the pass count is not cut.
constexpr double kMaxSecondsFactor = 1.5;
constexpr std::uint64_t kDefaultSeed = 1;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
};

bool parse(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else {
      return false;
    }
  }
  return args->selftest || !args->workload.empty();
}

/// The process's resident high-water mark. VmHWM belongs to the address
/// space, which exec replaces, so unlike getrusage's ru_maxrss it does not
/// inherit the launching process's peak.
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib / 1024.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// One metric of the result line.
struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Accumulates passes and the checks that span them.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool have_digest = false;
  std::uint64_t digest = 0;

  void add(const char* label, const PassResult& pass) {
    attempted += pass.jobs;
    failed += pass.failed_jobs;
    for (const std::string& f : pass.failures) {
      std::printf("FAIL %s: %s\n", label, f.c_str());
    }
    if (!have_digest) {
      have_digest = true;
      digest = pass.digest;
    } else if (pass.digest != digest) {
      // A pass that diverges from the first counts every one of its jobs
      // as failed: the outcome is no longer a function of the inputs.
      std::printf("FAIL %s: digest %016" PRIx64 " != %016" PRIx64 "\n", label,
                  pass.digest, digest);
      failed += pass.jobs;
    }
  }
};

void print_result(const Ledger& ledger, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += ledger.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ledger.attempted);
  json += ", \"failed\": " + std::to_string(ledger.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void print_outcome(const Workload& w, std::uint64_t seed,
                   const PassResult& pass) {
  std::printf(
      "outcome %s seed=%" PRIu64 " digest=%016" PRIx64
      " jobs=%" PRIu64 " wire_jobs=%" PRIu64 " cost=%a makespan=%a busy=%a\n",
      w.name(), seed, pass.digest, pass.jobs, pass.wire_jobs,
      pass.cost_units, pass.makespan_s, pass.busy_slot_s);
}

void print_tail(const char* name, const std::vector<double>& values) {
  const Tail t = tail(values);
  std::printf("tail %s: p%.0f of %zu samples = %.6g\n", name, t.percentile,
              t.samples, t.value);
}

/// The elementwise minimum over passes. The run is deterministic, so the
/// i-th sample of every pass times the same job or the same decision; its
/// minimum is that operation's cost with the machine's interference
/// filtered out. Where other tenants share the caches and the memory bus,
/// whole passes slow by up to 40% for seconds at a time, while each
/// operation is short enough to find a quiet moment in one of the passes.
/// The pass count is fixed per workload, so parent and change take the
/// minimum over the same number of samples.
std::vector<double> fastest_each(const std::vector<std::vector<double>>& passes) {
  std::vector<double> best = passes.front();
  for (const std::vector<double>& pass : passes) {
    best.resize(std::min(best.size(), pass.size()));
    for (std::size_t i = 0; i < best.size(); ++i) {
      best[i] = std::min(best[i], pass[i]);
    }
  }
  return best;
}

/// End-to-end metrics. Per-job and per-decision host times are
/// per-operation minima over the passes; wall_s is the job set's time at
/// those minima. (On a shared 4-vCPU host the median pass spread two to
/// four times as much from run to run: a run's average speed follows the
/// host's slow phases, its fastest moments much less.)
std::vector<Metric> end_to_end(double setup_s,
                               const std::vector<double>& job_ms,
                               const std::vector<double>& plan_us,
                               const PassResult& first) {
  print_tail("job_ms", job_ms);
  print_tail("plan_us_p99", plan_us);
  double wall_ms = 0.0;
  for (double ms : job_ms) wall_ms += ms;
  const double wire_jobs = static_cast<double>(first.wire_jobs);
  return {
      {"setup_s", setup_s, "s"},
      {"wall_s", wall_ms / 1e3, "s"},
      {"job_ms_p50", median(job_ms), "ms"},
      {"plan_us_p50", median(plan_us), "us"},
      {"plan_us_p99", tail(plan_us).value, "us"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"cost_units", ratio(first.cost_units, wire_jobs), "units"},
      {"makespan_s", ratio(first.makespan_s, wire_jobs), "s"},
      {"utilization", ratio(first.busy_slot_s, first.ready_slot_s), "ratio"},
      {"mean_wait_s", ratio(first.wait_s, static_cast<double>(first.waits)),
       "s"},
  };
}

/// Per-layer metrics, averaged over the traced passes.
std::vector<Metric> per_layer(const Workload& w,
                              const std::vector<PassResult>& traced,
                              const std::vector<Probe>& probes,
                              double untraced_wall, double traced_wall) {
  PassResult s;  // sums over traced passes
  Probe p;
  for (const PassResult& t : traced) {
    s.events += t.events;
    s.tasks += t.tasks;
    s.tick_steps += t.tick_steps;
    s.event_step_s += t.event_step_s;
    s.tick_overhead_s += t.tick_overhead_s;
    s.engine_s += t.engine_s;
    s.useful_slot_s += t.useful_slot_s;
    s.wasted_slot_s += t.wasted_slot_s;
    s.crashes += t.crashes;
    s.oom_kills += t.oom_kills;
    s.checkpoints_committed += t.checkpoints_committed;
    s.checkpoints_lost += t.checkpoints_lost;
    s.monitor_dropouts += t.monitor_dropouts;
    s.quarantined_tasks += t.quarantined_tasks;
    s.serial_events += t.serial_events;
    s.peak_live_tenants = std::max(s.peak_live_tenants, t.peak_live_tenants);
    s.ensemble_run_s += t.ensemble_run_s;
    s.wall_s += t.wall_s;
  }
  for (const Probe& q : probes) {
    p.outer_plan_s += q.outer_plan_s;
    p.start_s += q.start_s;
    p.wire_plan_s += q.wire_plan_s;
    p.wire_ticks += q.wire_ticks;
    p.incremental_ticks += q.incremental_ticks;
    p.stamped_ticks += q.stamped_ticks;
    p.upcoming_tasks += q.upcoming_tasks;
    p.memo_hits += q.memo_hits;
    p.memo_misses += q.memo_misses;
    p.controller_state_bytes += q.controller_state_bytes;
    p.predictor_state_bytes += q.predictor_state_bytes;
    p.controllers += q.controllers;
    p.bandit_switches += q.bandit_switches;
    p.estimate_calls += q.estimate_calls;
    p.estimate_s += q.estimate_s;
    p.budget_plan_s += q.budget_plan_s;
    p.budget_ticks += q.budget_ticks;
    p.budget_exhausted_runs += q.budget_exhausted_runs;
  }
  const double n = static_cast<double>(traced.size());
  const double events = static_cast<double>(s.events);
  const double ticks = static_cast<double>(p.wire_ticks);
  const double steps_s = s.event_step_s + s.tick_overhead_s;
  const double sim_self_s = (steps_s + s.engine_s) / n;
  const double driver_s =
      (s.ensemble_run_s - p.outer_plan_s - p.estimate_s - p.start_s) / n;
  const double controllers = static_cast<double>(p.controllers);
  return {
      {"sim.events", events / n, "count"},
      {"sim.events_per_task", ratio(events, static_cast<double>(s.tasks)),
       "ratio"},
      {"sim.event_us",
       ratio(s.event_step_s * 1e6, static_cast<double>(s.events - s.tick_steps)),
       "us"},
      {"sim.tick_overhead_us",
       ratio(s.tick_overhead_s * 1e6, static_cast<double>(s.tick_steps)), "us"},
      {"sim.self_s", sim_self_s, "s"},
      {"sim.self_share", ratio(sim_self_s, s.wall_s / n), "ratio"},
      {"sim.useful_slot_ratio",
       ratio(s.useful_slot_s, s.useful_slot_s + s.wasted_slot_s), "ratio"},
      {"sim.crashes", static_cast<double>(s.crashes) / n, "count"},
      {"sim.oom_kills", static_cast<double>(s.oom_kills) / n, "count"},
      {"sim.checkpoints_committed",
       static_cast<double>(s.checkpoints_committed) / n, "count"},
      {"sim.checkpoints_lost", static_cast<double>(s.checkpoints_lost) / n,
       "count"},
      {"sim.monitor_dropouts", static_cast<double>(s.monitor_dropouts) / n,
       "count"},
      {"sim.quarantined_tasks", static_cast<double>(s.quarantined_tasks) / n,
       "count"},
      {"core.ticks", ticks / n, "count"},
      {"core.plan_s", p.wire_plan_s / n, "s"},
      {"core.start_s", p.start_s / n, "s"},
      {"core.plan_share", ratio(p.wire_plan_s, s.wall_s), "ratio"},
      {"core.incremental_ratio",
       ratio(static_cast<double>(p.incremental_ticks), ticks), "ratio"},
      {"core.stamped_ratio", ratio(static_cast<double>(p.stamped_ticks), ticks),
       "ratio"},
      {"core.memo_hit_ratio",
       ratio(static_cast<double>(p.memo_hits),
             static_cast<double>(p.memo_hits + p.memo_misses)),
       "ratio"},
      {"core.upcoming_mean",
       ratio(static_cast<double>(p.upcoming_tasks), ticks), "count"},
      {"core.state_bytes", ratio(p.controller_state_bytes, controllers),
       "bytes"},
      {"predict.estimate_calls", static_cast<double>(p.estimate_calls) / n,
       "count"},
      {"predict.estimate_us",
       ratio(p.estimate_s * 1e6, static_cast<double>(p.estimate_calls)), "us"},
      {"predict.state_bytes", ratio(p.predictor_state_bytes, controllers),
       "bytes"},
      {"predict.bandit_switches", static_cast<double>(p.bandit_switches) / n,
       "count"},
      {"policies.budget_us_per_tick",
       ratio((p.budget_plan_s - (p.budget_ticks > 0 ? p.wire_plan_s : 0.0)) * 1e6,
             static_cast<double>(p.budget_ticks)),
       "us"},
      {"policies.budget_exhausted_runs",
       static_cast<double>(p.budget_exhausted_runs) / n, "count"},
      {"ensemble.serial_events", static_cast<double>(s.serial_events) / n,
       "count"},
      {"ensemble.peak_live_tenants", static_cast<double>(s.peak_live_tenants),
       "count"},
      {"ensemble.tenant_plan_s",
       s.ensemble_run_s > 0.0 ? p.outer_plan_s / n : 0.0, "s"},
      {"ensemble.driver_us_per_serial_event",
       s.serial_events > 0
           ? driver_s * 1e6 / (static_cast<double>(s.serial_events) / n)
           : 0.0,
       "us"},
      {"ensemble.driver_share",
       s.ensemble_run_s > 0.0 ? ratio(driver_s, s.wall_s / n) : 0.0, "ratio"},
      {"workload.build_s", w.build_s(), "s"},
      {"dag.tasks", static_cast<double>(w.dag_tasks()), "count"},
      {"trace.wall_s", traced_wall, "s"},
      {"trace.overhead_s", traced_wall - untraced_wall, "s"},
  };
}

int run_benchmark(const Args& args) {
  std::unique_ptr<Workload> w = make_workload(args.workload);
  if (!w) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  Ledger ledger;
  std::vector<double> walls, traced_walls;
  std::vector<std::vector<double>> job_ms, plan_us;  // per untraced pass
  std::vector<PassResult> traced;
  std::vector<Probe> probes;
  PassResult first;
  const int passes = std::max(
      kMinPasses,
      static_cast<int>(std::lround(args.seconds / w->nominal_pass_s())));
  std::vector<double> setup_times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    w->setup(args.seed);
    setup_times.push_back(seconds_between(t0, Clock::now()));
  }
  const double limit_s =
      kMaxSecondsFactor * args.seconds * (args.trace ? 2.0 : 1.0);
  const Clock::time_point start = Clock::now();
  for (int rep = 0; rep < passes; ++rep) {
    if (rep >= kMinPasses && seconds_between(start, Clock::now()) >= limit_s) {
      std::printf("passes cut at %d of %d: the machine is far slower than "
                  "the reference\n", rep, passes);
      break;
    }
    Probe probe;
    PassResult pass = w->run_pass(Mode::Untraced, probe);
    ledger.add("untraced pass", pass);
    walls.push_back(pass.wall_s);
    job_ms.push_back(pass.job_ms);
    plan_us.push_back(std::move(probe.plan_us));
    if (rep == 0) first = pass;
    if (args.trace) {
      probes.emplace_back();
      probes.back().traced = true;
      PassResult t = w->run_pass(Mode::Traced, probes.back());
      ledger.add("traced pass", t);
      traced_walls.push_back(t.wall_s);
      traced.push_back(std::move(t));
    }
  }
  Probe plain_probe;
  ledger.add("plain reference", w->run_pass(Mode::Plain, plain_probe));

  print_outcome(*w, args.seed, first);
  std::printf("pass wall_s:");
  for (double v : walls) std::printf(" %.4f", v);
  std::printf("\n");
  if (args.trace) {
    w->census();
    print_result(ledger, per_layer(*w, traced, probes, median(walls),
                                   median(traced_walls)));
  } else {
    print_result(ledger,
                 end_to_end(median(setup_times),
                            fastest_each(job_ms), fastest_each(plan_us),
                            first));
  }
  return 0;
}

int run_selftest(std::uint64_t seed) {
  int rc = 0;
  for (const std::string& name : workload_names()) {
    std::unique_ptr<Workload> w = make_workload(name);
    w->setup(seed);
    Probe plain_probe, untraced_probe, traced_probe;
    traced_probe.traced = true;
    const PassResult plain = w->run_pass(Mode::Plain, plain_probe);
    const PassResult untraced = w->run_pass(Mode::Untraced, untraced_probe);
    const PassResult traced = w->run_pass(Mode::Traced, traced_probe);
    const bool ok = plain.failed_jobs == 0 && untraced.failed_jobs == 0 &&
                    traced.failed_jobs == 0 &&
                    plain.digest == untraced.digest &&
                    plain.digest == traced.digest;
    std::printf("%-17s plain %016" PRIx64 " untraced %016" PRIx64
                " traced %016" PRIx64 "  %s\n",
                name.c_str(), plain.digest, untraced.digest, traced.digest,
                ok ? "ok" : "MISMATCH");
    for (const PassResult* p : {&plain, &untraced, &traced}) {
      for (const std::string& f : p->failures) {
        std::printf("  FAIL %s\n", f.c_str());
      }
    }
    if (!ok) rc = 1;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: wirebench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n       wirebench --selftest [--seed <n>]\n");
    return 2;
  }
  return args.selftest ? run_selftest(args.seed) : run_benchmark(args);
}
