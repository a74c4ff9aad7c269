// The bit-identical --jobs guarantee, extended to telemetry: the same
// CampaignMatrix run on 1, 2 and 8 worker threads must produce byte-identical
// campaign digests and identical telemetry event streams (ISSUE: telemetry
// must not perturb RNG streams).

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "src/harness/runner.h"
#include "src/harness/telemetry_export.h"

namespace themis {
namespace {

CampaignMatrix TestMatrix() {
  CampaignMatrix matrix;
  matrix.flavors = {Flavor::kGluster, Flavor::kHdfs};
  matrix.strategies = {"Themis"};
  matrix.seeds = 2;
  matrix.matrix_seed = 20260806;
  matrix.base.budget = Hours(2);
  matrix.base.collect_telemetry = true;
  return matrix;
}

MatrixResult RunWithJobs(int jobs) {
  RunnerOptions options;
  options.jobs = jobs;
  return CampaignRunner(options).Run(TestMatrix());
}

// All event lines as sorted JSON strings — the order-insensitive multiset
// view of the matrix's telemetry.
std::vector<std::string> EventMultiset(const MatrixResult& result) {
  std::vector<std::string> lines;
  for (const JobResult& job : result.jobs) {
    for (const CampaignEvent& event : job.result.telemetry) {
      lines.push_back(event.ToJson(static_cast<int64_t>(job.job.index)));
    }
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

// The deterministic portion of the JSONL export: everything except the
// job_summary records (the only lines carrying wall/cpu time).
std::string DeterministicJsonl(const MatrixResult& result) {
  std::istringstream in(RenderTelemetryJsonl(result));
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"event\":\"job_summary\"") == std::string::npos) {
      out += line;
      out += '\n';
    }
  }
  return out;
}

TEST(Determinism, DigestsIdenticalAcrossJobCounts) {
  MatrixResult serial = RunWithJobs(1);
  MatrixResult two = RunWithJobs(2);
  MatrixResult eight = RunWithJobs(8);
  ASSERT_EQ(serial.jobs.size(), 4u);
  ASSERT_EQ(two.jobs.size(), serial.jobs.size());
  ASSERT_EQ(eight.jobs.size(), serial.jobs.size());
  for (size_t i = 0; i < serial.jobs.size(); ++i) {
    ASSERT_TRUE(serial.jobs[i].status.ok()) << serial.jobs[i].status.ToString();
    ASSERT_TRUE(two.jobs[i].status.ok());
    ASSERT_TRUE(eight.jobs[i].status.ok());
    EXPECT_EQ(serial.jobs[i].result.Digest(), two.jobs[i].result.Digest())
        << "job " << i << " differs between --jobs 1 and --jobs 2";
    EXPECT_EQ(serial.jobs[i].result.Digest(), eight.jobs[i].result.Digest())
        << "job " << i << " differs between --jobs 1 and --jobs 8";
  }
}

TEST(Determinism, TelemetryEventMultisetsIdentical) {
  MatrixResult serial = RunWithJobs(1);
  MatrixResult eight = RunWithJobs(8);
  std::vector<std::string> serial_events = EventMultiset(serial);
  std::vector<std::string> parallel_events = EventMultiset(eight);
  ASSERT_FALSE(serial_events.empty());
  EXPECT_EQ(serial_events, parallel_events);
  // Stronger than the multiset: the per-job streams are ordered identically
  // too, since each campaign records from a single thread in virtual time.
  for (size_t i = 0; i < serial.jobs.size(); ++i) {
    EXPECT_EQ(serial.jobs[i].result.telemetry, eight.jobs[i].result.telemetry)
        << "job " << i;
  }
}

TEST(Determinism, JsonlExportByteIdenticalAcrossJobCounts) {
  std::string serial = DeterministicJsonl(RunWithJobs(1));
  std::string two = DeterministicJsonl(RunWithJobs(2));
  std::string eight = DeterministicJsonl(RunWithJobs(8));
  EXPECT_EQ(serial, two);
  EXPECT_EQ(serial, eight);
}

TEST(Determinism, RunJobsOrderDoesNotMatter) {
  // The digest must be a property of the job, not of submission order.
  std::vector<CampaignJob> jobs = CampaignRunner::Expand(TestMatrix());
  std::reverse(jobs.begin(), jobs.end());
  RunnerOptions options;
  options.jobs = 4;
  MatrixResult reversed = CampaignRunner(options).RunJobs(jobs);
  MatrixResult canonical = RunWithJobs(1);
  ASSERT_EQ(reversed.jobs.size(), canonical.jobs.size());
  for (const JobResult& job : reversed.jobs) {
    const JobResult& match = canonical.jobs[job.job.index];
    ASSERT_EQ(match.job.index, job.job.index);
    EXPECT_EQ(job.result.Digest(), match.result.Digest());
  }
  // The JSONL export re-sorts into canonical order, so it is byte-identical
  // to the canonical run's export as well.
  EXPECT_EQ(DeterministicJsonl(reversed), DeterministicJsonl(canonical));
}

TEST(Determinism, CollectTelemetryFlagDoesNotChangeResults) {
  // Recording events must never touch the RNG: the digest over the
  // non-telemetry fields has to match a run with collection disabled.
  CampaignMatrix with = TestMatrix();
  CampaignMatrix without = TestMatrix();
  without.base.collect_telemetry = false;
  RunnerOptions options;
  options.jobs = 2;
  MatrixResult a = CampaignRunner(options).Run(with);
  MatrixResult b = CampaignRunner(options).Run(without);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (size_t i = 0; i < a.jobs.size(); ++i) {
    CampaignResult stripped = a.jobs[i].result;
    stripped.telemetry.clear();
    EXPECT_EQ(stripped.Digest(), b.jobs[i].result.Digest()) << "job " << i;
    EXPECT_TRUE(b.jobs[i].result.telemetry.empty());
  }
}

}  // namespace
}  // namespace themis
