// The traced campaign loop.
//
// Rebuilds Campaign::Run from the library's public parts (MakeCluster,
// FaultInjector, EnvFaultInjector, StatesMonitor, ImbalanceDetector,
// TestCaseExecutor, StrategyRegistry::Make) and wraps the four seams the
// loop talks through — DfsInterface, FaultHooks, EnvFaultRuntime and
// Strategy — in forwarding decorators that open a span around each call.
// Nothing inside src/ is instrumented; every layer is timed from outside.
//
// The executor is a black box, so its phases are recovered from the order
// of the DFS calls it makes during one Run():
//   testcase   Execute calls before the first load sample;
//   detect     the first sample and the detector verdict;
//   dc_wait    RebalanceDone / AdvanceTime / TriggerRebalance /
//              EnvRecoveryPending (the double-check's waits);
//   dc_reexec  Execute calls that follow a wait (the re-executed case);
//   dc_probe   Execute calls that follow a load sample (probe bursts and
//              their rmdir cleanup);
//   reset      ResetToInitial and everything after it.
// The op counts per phase must add up to the executor's own total, which
// RunTracedCampaign checks.

#ifndef CAMPAIGN_BENCH_TRACED_CAMPAIGN_H_
#define CAMPAIGN_BENCH_TRACED_CAMPAIGN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "campaign_bench/tracer.h"
#include "src/harness/campaign.h"

namespace campaign_bench {

// Counts taken at the same boundaries as the spans, for one campaign.
struct LayerCounts {
  uint64_t seed_ops = 0;       // initial-population creates
  uint64_t testcase_ops = 0;
  uint64_t dc_reexec_ops = 0;
  uint64_t dc_probe_ops = 0;
  uint64_t dc_wait_calls = 0;  // AdvanceTime polls after the first sample
  uint64_t reset_calls = 0;
  uint64_t execute_calls = 0;
  uint64_t execute_failed = 0;
  uint64_t advance_calls = 0;
  uint64_t sample_calls = 0;
  uint64_t on_op_calls = 0;
  uint64_t migrate_moves = 0;
  uint64_t next_calls = 0;
  uint64_t candidates = 0;
  uint64_t confirmed = 0;
  uint64_t hung = 0;
  uint64_t false_positives = 0;  // confirmed reports with no planted bug active
  // Virtual time advanced inside the double-check phases, and in total.
  int64_t dc_virtual = 0;
  int64_t total_virtual = 0;

  LayerCounts& operator+=(const LayerCounts& other) {
    seed_ops += other.seed_ops;
    testcase_ops += other.testcase_ops;
    dc_reexec_ops += other.dc_reexec_ops;
    dc_probe_ops += other.dc_probe_ops;
    dc_wait_calls += other.dc_wait_calls;
    reset_calls += other.reset_calls;
    execute_calls += other.execute_calls;
    execute_failed += other.execute_failed;
    advance_calls += other.advance_calls;
    sample_calls += other.sample_calls;
    on_op_calls += other.on_op_calls;
    migrate_moves += other.migrate_moves;
    next_calls += other.next_calls;
    candidates += other.candidates;
    confirmed += other.confirmed;
    hung += other.hung;
    false_positives += other.false_positives;
    dc_virtual += other.dc_virtual;
    total_virtual += other.total_virtual;
    return *this;
  }
};

struct TracedCampaign {
  themis::CampaignResult result;
  LayerCounts counts;
  SpanTable spans{};    // per-name totals for this campaign
  double wall_s = 0.0;  // the kCampaign span
};

// The planted faults a campaign with this config runs against (the library
// loop's private FaultsForConfig, rebuilt from the public registries).
std::vector<themis::FaultSpec> FaultsForConfig(const themis::CampaignConfig& config);

// Runs one campaign under the tracer. Fails like Campaign::Run on a bad
// config or strategy name, and with Internal if the phase op counts do not
// add up to the executor's total.
themis::Result<TracedCampaign> RunTracedCampaign(const themis::CampaignConfig& config,
                                                 std::string_view strategy_name,
                                                 Tracer& tracer, uint32_t campaign_id);

// Empty when the traced result reproduces the untraced one; otherwise the
// fields that differ. Compared: digest, testcases, total_ops, candidates,
// final_coverage and distinct_failures.
std::string ParityMismatch(const themis::CampaignResult& untraced,
                           const themis::CampaignResult& traced);

}  // namespace campaign_bench

#endif  // CAMPAIGN_BENCH_TRACED_CAMPAIGN_H_
