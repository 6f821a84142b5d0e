// Tests for the data-transfer models: the fixed-duration (uncontended) path,
// the processor-sharing shared-bandwidth path, and the per-dispatch
// scheduling overhead.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "exp/settings.h"
#include "policies/baselines.h"
#include "sim/driver.h"
#include "workload/generators.h"
#include "workload/profiles.h"

namespace wire::sim {
namespace {

using dag::TaskId;

/// Single stage of `n` tasks with the given input size, no output, fixed
/// exec.
dag::Workflow make_transfer_stage(std::uint32_t n, double input_mb,
                                  double exec_s = 10.0) {
  dag::WorkflowBuilder builder("transfer");
  const auto s0 = builder.add_stage("xfer");
  for (std::uint32_t i = 0; i < n; ++i) {
    builder.add_task(s0, "t" + std::to_string(i), input_mb, 0.0, exec_s, {});
  }
  return builder.build();
}

CloudConfig base_config(std::uint32_t slots) {
  CloudConfig config;
  config.lag_seconds = 1000.0;  // keep control ticks out of the way
  config.charging_unit_seconds = 10000.0;
  config.slots_per_instance = slots;
  config.max_instances = 4;
  config.variability.instance_speed_sigma = 0.0;
  config.variability.interference_sigma = 0.0;
  config.variability.transfer_noise_sigma = 0.0;
  config.variability.transfer_latency_seconds = 0.0;
  config.variability.bandwidth_mb_per_s = 100.0;
  return config;
}

RunResult run_static(const dag::Workflow& wf, const CloudConfig& config,
                     std::uint32_t instances = 1) {
  policies::StaticPolicy policy(instances);
  RunOptions options;
  options.initial_instances = instances;
  return simulate(wf, policy, config, options);
}

TEST(Transfers, UncontendedDurationIsPayloadOverLink) {
  // 200 MB at 100 MB/s: 2 s transfer-in, then 10 s exec.
  const dag::Workflow wf = make_transfer_stage(1, 200.0);
  const RunResult r = run_static(wf, base_config(1));
  EXPECT_DOUBLE_EQ(r.task_records[0].transfer_in_time, 2.0);
  EXPECT_DOUBLE_EQ(r.makespan, 12.0);
}

TEST(Transfers, LatencyAppliesOnlyToNonZeroPayloads) {
  CloudConfig config = base_config(1);
  config.variability.transfer_latency_seconds = 0.5;
  const dag::Workflow with_data = make_transfer_stage(1, 100.0);
  EXPECT_DOUBLE_EQ(run_static(with_data, config).task_records[0]
                       .transfer_in_time,
                   1.5);
  const dag::Workflow no_data = make_transfer_stage(1, 0.0);
  EXPECT_DOUBLE_EQ(run_static(no_data, config).task_records[0]
                       .transfer_in_time,
                   0.0);
}

TEST(Transfers, SharedFabricSplitsBandwidthEvenly) {
  // Two concurrent 100 MB transfers on a 100 MB/s aggregate: each runs at
  // 50 MB/s -> 2 s each (vs 1 s uncontended).
  CloudConfig config = base_config(2);
  config.variability.aggregate_bandwidth_mb_per_s = 100.0;
  const dag::Workflow wf = make_transfer_stage(2, 100.0);
  const RunResult r = run_static(wf, config);
  EXPECT_NEAR(r.task_records[0].transfer_in_time, 2.0, 1e-6);
  EXPECT_NEAR(r.task_records[1].transfer_in_time, 2.0, 1e-6);
}

TEST(Transfers, PerLinkCapBindsWhenFabricIsWide) {
  // Aggregate 1000 MB/s but link 100 MB/s: a single 100 MB transfer still
  // takes 1 s.
  CloudConfig config = base_config(1);
  config.variability.aggregate_bandwidth_mb_per_s = 1000.0;
  const dag::Workflow wf = make_transfer_stage(1, 100.0);
  const RunResult r = run_static(wf, config);
  EXPECT_NEAR(r.task_records[0].transfer_in_time, 1.0, 1e-6);
}

TEST(Transfers, StaggeredTransfersSpeedUpWhenPeersFinish) {
  // Tasks A (100 MB) and B (300 MB) start together on a 200 MB/s aggregate
  // with 200 MB/s links. Shared phase: each at 100 MB/s; A finishes at 1 s
  // (100 MB done; B has 100 of 300). B then runs alone at 200 MB/s:
  // remaining 200 MB -> 1 s. B's transfer: 2 s total.
  CloudConfig config = base_config(2);
  config.variability.bandwidth_mb_per_s = 200.0;
  config.variability.aggregate_bandwidth_mb_per_s = 200.0;
  dag::WorkflowBuilder builder("staggered");
  const auto s0 = builder.add_stage("xfer");
  builder.add_task(s0, "a", 100.0, 0.0, 10.0, {});
  builder.add_task(s0, "b", 300.0, 0.0, 10.0, {});
  const dag::Workflow wf = builder.build();
  const RunResult r = run_static(wf, config);
  EXPECT_NEAR(r.task_records[0].transfer_in_time, 1.0, 1e-6);
  EXPECT_NEAR(r.task_records[1].transfer_in_time, 2.0, 1e-6);
}

TEST(Transfers, ContentionMakesFullSiteSlowerThanLinkSpeed) {
  // 16 tasks x 100 MB on 4 instances (16 slots), aggregate 400 MB/s: all
  // sixteen start together at 25 MB/s -> 4 s transfer phase. Uncontended
  // each would take 1 s.
  CloudConfig config = base_config(4);
  config.variability.aggregate_bandwidth_mb_per_s = 400.0;
  const dag::Workflow wf = make_transfer_stage(16, 100.0);
  const RunResult r = run_static(wf, config, 4);
  for (const TaskRuntime& rec : r.task_records) {
    EXPECT_NEAR(rec.transfer_in_time, 4.0, 1e-6);
  }
  EXPECT_NEAR(r.makespan, 14.0, 1e-6);
}

TEST(Transfers, DispatchOverheadDelaysTransferStart) {
  CloudConfig config = base_config(1);
  config.dispatch_overhead_seconds = 7.0;
  const dag::Workflow wf = make_transfer_stage(1, 100.0);
  const RunResult r = run_static(wf, config);
  // Occupancy = 7 s overhead + 1 s transfer + 10 s exec.
  EXPECT_DOUBLE_EQ(r.task_records[0].transfer_in_time, 8.0);
  EXPECT_DOUBLE_EQ(r.makespan, 18.0);
}

TEST(Transfers, DispatchOverheadAppliesUnderSharedBandwidthToo) {
  CloudConfig config = base_config(1);
  config.dispatch_overhead_seconds = 7.0;
  config.variability.aggregate_bandwidth_mb_per_s = 100.0;
  const dag::Workflow wf = make_transfer_stage(1, 100.0);
  const RunResult r = run_static(wf, config);
  EXPECT_NEAR(r.task_records[0].transfer_in_time, 8.0, 1e-6);
}

TEST(Transfers, SharedModeCompletesEveryTaskUnderChurn) {
  // Elastic policy + shared bandwidth + releases: transfers of killed tasks
  // must be purged, restarted tasks retransfer, and the run still finishes.
  CloudConfig config = base_config(4);
  config.lag_seconds = 5.0;
  config.charging_unit_seconds = 20.0;
  config.max_instances = 6;
  config.variability.aggregate_bandwidth_mb_per_s = 150.0;
  const dag::Workflow wf = make_transfer_stage(24, 80.0, 15.0);
  policies::PureReactivePolicy policy;
  RunOptions options;
  options.initial_instances = 1;
  const RunResult r = simulate(wf, policy, config, options);
  for (const TaskRuntime& rec : r.task_records) {
    EXPECT_EQ(rec.phase, TaskPhase::Completed);
    EXPECT_GT(rec.transfer_in_time, 0.0);
  }
}

TEST(Transfers, NoiseMakesTransfersVary) {
  CloudConfig config = base_config(4);
  config.variability.transfer_noise_sigma = 0.4;
  config.variability.aggregate_bandwidth_mb_per_s = 1000.0;
  const dag::Workflow wf = make_transfer_stage(8, 100.0);
  RunOptions options;
  options.seed = 9;
  options.initial_instances = 2;
  policies::StaticPolicy policy(2);
  const RunResult r = simulate(wf, policy, config, options);
  double lo = 1e18, hi = 0.0;
  for (const TaskRuntime& rec : r.task_records) {
    lo = std::min(lo, rec.transfer_in_time);
    hi = std::max(hi, rec.transfer_in_time);
  }
  EXPECT_GT(hi, lo * 1.05);  // the noise is visible
}

/// The §IV-B site (shared 300 MB/s fabric, 10 s dispatch overhead) in one of
/// three configurations: quiet; crashes plus a static-interval checkpoint
/// channel; the memory dimension on.
CloudConfig golden_site(const std::string& mode,
                        const workload::WorkflowProfile& profile) {
  CloudConfig config = exp::paper_cloud(900.0);
  if (mode == "crash+ckpt") {
    config.faults.crash_rate_per_hour = 0.6;
    config.faults.crash_notice_seconds = 120.0;
    config.checkpoint.channel_bandwidth_mb_per_s = 400.0;
    config.checkpoint.interval_policy = CheckpointConfig::IntervalPolicy::Static;
    config.checkpoint.static_interval_seconds = 60.0;
  } else if (mode == "memory") {
    double need = 0.0;
    for (const workload::StageProfile& s : profile.stages) {
      need = std::max(need, s.mean_peak_mem_mb);
    }
    config.memory.instance_mem_mb =
        1.2 * need * static_cast<double>(config.slots_per_instance);
    config.memory.noise_sigma = 0.2;
  }
  return config;
}

/// Hexfloat signature of the outcome the fabric and checkpoint-channel guard
/// events shape: one bit of drift in any double is a string diff.
std::string fabric_signature(const RunResult& r) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "makespan=%a cost=%a busy=%a ckpt=%u/%u", r.makespan,
                r.cost_units, r.busy_slot_seconds, r.checkpoints_completed,
                r.checkpoints_lost);
  return buf;
}

TEST(Transfers, SharedFabricGoldensOnThePaperSite) {
  // WIRE on Genome L and PageRank L with the aggregate-bandwidth fabric on,
  // pinned bit for bit. Any change to how the processor-sharing guards are
  // scheduled or retired must leave these strings untouched.
  struct Cell {
    workload::WorkflowProfile profile;
    const char* mode;
    const char* golden;
  };
  const workload::WorkflowProfile genome =
      workload::epigenomics_profile(workload::Scale::Large);
  const workload::WorkflowProfile pagerank =
      workload::pagerank_profile(workload::Scale::Large);
  const Cell cells[] = {
      {genome, "quiet",
       "makespan=0x1.703027b915e16p+11 cost=0x1.28p+5 "
       "busy=0x1.8dce1ffb682b2p+16 ckpt=0/0"},
      {genome, "crash+ckpt",
       "makespan=0x1.7cb9dee2eab55p+11 cost=0x1.3p+5 "
       "busy=0x1.8cad1405554ddp+16 ckpt=273/1"},
      {genome, "memory",
       "makespan=0x1.9ce3f4fdd88c1p+11 cost=0x1.48p+5 "
       "busy=0x1.84698a7eea153p+16 ckpt=0/0"},
      {pagerank, "quiet",
       "makespan=0x1.2084dbe242bdcp+12 cost=0x1.cp+3 "
       "busy=0x1.c7cd797afcce9p+14 ckpt=0/0"},
      {pagerank, "crash+ckpt",
       "makespan=0x1.48c672f7a61ebp+12 cost=0x1.ap+3 "
       "busy=0x1.ca11f3ec591b9p+14 ckpt=269/0"},
      {pagerank, "memory",
       "makespan=0x1.051e11ff8e5cap+12 cost=0x1.ep+3 "
       "busy=0x1.c2b270120d2b2p+14 ckpt=0/0"},
  };
  for (const Cell& cell : cells) {
    const dag::Workflow wf = workload::make_workflow(cell.profile, 7);
    const CloudConfig config = golden_site(cell.mode, cell.profile);
    const auto policy = exp::make_policy(exp::PolicyKind::Wire);
    RunOptions options;
    options.seed = 11;
    options.initial_instances =
        exp::initial_instances(exp::PolicyKind::Wire, config);
    const RunResult r = simulate(wf, *policy, config, options);
    EXPECT_EQ(fabric_signature(r), cell.golden)
        << cell.profile.name << " / " << cell.mode;
  }
}

}  // namespace
}  // namespace wire::sim
