// Unit tests for the telemetry subsystem: the campaign event log, its JSON
// rendering, and the per-job job_summary records of the JSONL export.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "src/common/strings.h"
#include "src/harness/runner.h"
#include "src/harness/telemetry_export.h"
#include "src/telemetry/event_log.h"

namespace themis {
namespace {

TEST(EventLog, RecordsWithVirtualTimestamps) {
  VirtualClock clock;
  EventLog log;
  log.BindClock(&clock);
  clock.Advance(Minutes(2));
  log.Record(CampaignEventKind::kSeedAccepted, "variance", 1.5, 0.25);
  clock.Advance(Seconds(30));
  log.Record(CampaignEventKind::kMutation, "replace", 0.0, 0.0, 3);
  ASSERT_EQ(log.events().size(), 2u);
  EXPECT_EQ(log.events()[0].kind, CampaignEventKind::kSeedAccepted);
  EXPECT_EQ(log.events()[0].at, Minutes(2));
  EXPECT_EQ(log.events()[0].label, "variance");
  EXPECT_DOUBLE_EQ(log.events()[0].value, 1.5);
  EXPECT_EQ(log.events()[1].at, Minutes(2) + Seconds(30));
  EXPECT_EQ(log.events()[1].count, 3u);
}

TEST(EventLog, TakeEventsDrainsTheLog) {
  EventLog log;
  log.Record(CampaignEventKind::kClusterReset);
  std::vector<CampaignEvent> taken = log.TakeEvents();
  EXPECT_EQ(taken.size(), 1u);
  EXPECT_TRUE(log.events().empty());
}

TEST(EventLog, ToJsonOmitsZeroFields) {
  CampaignEvent event;
  event.kind = CampaignEventKind::kDoubleCheck;
  event.at = 1500000;
  event.label = "confirmed";
  event.value = 1.5;
  std::string json = event.ToJson(4);
  EXPECT_EQ(json,
            "{\"job\":4,\"at_us\":1500000,\"event\":\"double_check\","
            "\"label\":\"confirmed\",\"value\":1.5}");
  CampaignEvent bare;
  bare.kind = CampaignEventKind::kClusterReset;
  EXPECT_EQ(bare.ToJson(), "{\"at_us\":0,\"event\":\"cluster_reset\"}");
}

TEST(EventLog, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(JsonEscape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(EventLog, EventEqualityIsFieldwise) {
  CampaignEvent a;
  a.kind = CampaignEventKind::kVariance;
  a.value = 0.5;
  CampaignEvent b = a;
  EXPECT_EQ(a, b);
  b.value2 = 0.1;
  EXPECT_FALSE(a == b);
}

// Every job gets one job_summary line carrying its own counters and timings;
// it is the only machine-readable record of a job's wall and CPU time.
TEST(TelemetryExport, JobSummaryLinesCarryEachJobsCounters) {
  CampaignMatrix matrix;
  matrix.seeds = 2;
  matrix.base.budget = Hours(1);
  matrix.base.collect_telemetry = true;
  RunnerOptions options;
  options.jobs = 2;
  MatrixResult result = CampaignRunner(options).Run(matrix);
  ASSERT_EQ(result.jobs.size(), 2u);
  // Distinct jobs, so a line carrying the other job's values is caught.
  ASSERT_NE(result.jobs[0].result.total_ops, result.jobs[1].result.total_ops);

  const std::string jsonl = RenderTelemetryJsonl(result);
  std::vector<std::string> summaries;
  for (std::string_view line : Split(jsonl, '\n')) {
    if (line.find("\"event\":\"job_summary\"") != std::string_view::npos) {
      summaries.emplace_back(line);
    }
  }
  ASSERT_EQ(summaries.size(), 2u);
  for (size_t i = 0; i < summaries.size(); ++i) {
    const JobResult& job = result.jobs[i];
    ASSERT_TRUE(job.status.ok()) << job.status.ToString();
    const CampaignResult& r = job.result;
    EXPECT_GT(r.testcases, 0);
    EXPECT_FALSE(r.telemetry.empty());
    const std::string& line = summaries[i];
    EXPECT_EQ(line.rfind(Sprintf("{\"job\":%zu,", i), 0), 0u) << line;
    for (const std::string& field :
         {Sprintf("\"testcases\":%d,", r.testcases),
          Sprintf("\"total_ops\":%llu,", static_cast<unsigned long long>(r.total_ops)),
          Sprintf("\"candidates\":%d,", r.candidates),
          Sprintf("\"events\":%zu,", r.telemetry.size()),
          Sprintf("\"wall_seconds\":%.6f,", job.wall_seconds),
          Sprintf("\"cpu_seconds\":%.6f}", job.cpu_seconds)}) {
      EXPECT_NE(line.find(field), std::string::npos) << field << " not in " << line;
    }
  }
}

}  // namespace
}  // namespace themis
