// The benchmark's three workloads. Each builds its job set from a seed and
// runs it in one of three modes through the libraries' public entry points:
//
//   Plain    — sim::simulate / EnsembleDriver::run with undecorated policies
//              (the identity reference);
//   Untraced — the benchmark's own JobEngine::step() loop, with one
//              TimedPolicy around each WIRE decision (two clock reads per
//              plan(), nothing else);
//   Traced   — as Untraced, plus per-step timing, decorators around every
//              policy layer, the MapeTrace listener and the estimate_exec
//              probe.
//
// Every mode checks each job's outcome and folds it into a digest; the three
// modes of one job set must produce the same digest.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "probe.h"

namespace wirebench {

enum class Mode { Plain, Untraced, Traced };

/// What one pass over a job set produced.
struct PassResult {
  double wall_s = 0.0;
  /// Host milliseconds per job (per tenant on ensemble-dense).
  std::vector<double> job_ms;
  std::uint64_t jobs = 0;
  std::uint64_t failed_jobs = 0;
  std::vector<std::string> failures;  // first few check failures
  /// FNV-1a over every job's outcome, in job order.
  std::uint64_t digest = 0;

  // --- Simulated outcome of the WIRE jobs (deterministic in the seed) ---
  std::uint64_t wire_jobs = 0;
  double cost_units = 0.0;
  double makespan_s = 0.0;
  double busy_slot_s = 0.0;
  double ready_slot_s = 0.0;
  double wait_s = 0.0;
  std::uint64_t waits = 0;

  // --- sim layer (counts always; host time in traced passes) ---
  std::uint64_t tasks = 0;
  std::uint64_t events = 0;
  std::uint64_t tick_steps = 0;
  double event_step_s = 0.0;    // steps without a plan() call
  double tick_overhead_s = 0.0; // tick steps minus their plan() time
  double engine_s = 0.0;        // construct + start + result()
  double useful_slot_s = 0.0;   // busy slot-seconds of every job
  double wasted_slot_s = 0.0;
  std::uint64_t crashes = 0;
  std::uint64_t oom_kills = 0;
  std::uint64_t checkpoints_committed = 0;
  std::uint64_t checkpoints_lost = 0;
  std::uint64_t monitor_dropouts = 0;
  std::uint64_t quarantined_tasks = 0;

  // --- ensemble layer ---
  std::uint64_t serial_events = 0;
  std::uint64_t peak_live_tenants = 0;
  double ensemble_run_s = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  /// Host seconds one untraced pass took on the reference machine (see
  /// BENCH_baseline.json). It fixes how many passes a run of a given length
  /// makes, so a faster or slower change is measured over the same number
  /// of passes as its parent.
  virtual double nominal_pass_s() const = 0;
  /// Builds the job set for `seed` (DAGs, configs, arrival stream) and
  /// constructs one engine or driver over the first job. Idempotent: the
  /// benchmark repeats it to time set-up.
  virtual void setup(std::uint64_t seed) = 0;
  virtual PassResult run_pass(Mode mode, Probe& probe) const = 0;
  /// Fills build_s() and dag_tasks() where setup() does not generate the
  /// workflows itself.
  virtual void census() {}

  /// Host seconds the last setup() spent generating workflows.
  double build_s() const { return build_s_; }
  /// Tasks in the job set.
  std::uint64_t dag_tasks() const { return dag_tasks_; }

 protected:
  double build_s_ = 0.0;
  std::uint64_t dag_tasks_ = 0;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();
/// Null for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace wirebench
