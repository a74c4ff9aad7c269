// Parallel campaign engine tests: matrix expansion, thread-count and
// job-order invariance of results, loop observers that leave digests
// untouched and the one-thread floor, per-job error isolation, and the
// roll-ups. This test is the ThreadSanitizer target of the
// THEMIS_SANITIZE=thread configuration.

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <set>
#include <thread>

#include "src/harness/runner.h"

namespace themis {
namespace {

CampaignMatrix SmallMatrix() {
  CampaignMatrix matrix;
  matrix.flavors = {Flavor::kGluster, Flavor::kLeo};
  matrix.strategies = {"Themis", "Fix_conf"};
  matrix.seeds = 2;
  matrix.matrix_seed = 77;
  matrix.base.budget = Minutes(30);
  matrix.base.fault_set = FaultSet::kNewBugs;
  return matrix;
}

RunnerOptions WithJobs(int jobs) {
  RunnerOptions options;
  options.jobs = jobs;
  return options;
}

void ExpectSameCampaignResult(const CampaignResult& a, const CampaignResult& b,
                              const std::string& context) {
  EXPECT_EQ(a.strategy_name, b.strategy_name) << context;
  EXPECT_EQ(a.flavor, b.flavor) << context;
  EXPECT_EQ(a.testcases, b.testcases) << context;
  EXPECT_EQ(a.total_ops, b.total_ops) << context;
  EXPECT_EQ(a.candidates, b.candidates) << context;
  EXPECT_EQ(a.final_coverage, b.final_coverage) << context;
  EXPECT_EQ(a.false_positives, b.false_positives) << context;
  EXPECT_EQ(a.distinct_failures, b.distinct_failures) << context;
  EXPECT_EQ(a.coverage_timeline, b.coverage_timeline) << context;
  EXPECT_EQ(a.trigger_stats, b.trigger_stats) << context;
  EXPECT_EQ(a.reports.size(), b.reports.size()) << context;
}

TEST(Runner, ExpandAssignsCanonicalIndicesAndDistinctSeeds) {
  CampaignMatrix matrix = SmallMatrix();
  std::vector<CampaignJob> jobs = CampaignRunner::Expand(matrix);
  ASSERT_EQ(jobs.size(), 2u * 2u * 2u);
  std::set<uint64_t> seeds;
  for (size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].index, i);
    EXPECT_EQ(jobs[i].config.seed, Rng::SplitSeed(matrix.matrix_seed, i));
    seeds.insert(jobs[i].config.seed);
  }
  EXPECT_EQ(seeds.size(), jobs.size()) << "per-job RNG streams must not collide";
}

TEST(Runner, ResultsIdenticalAcrossThreadCounts) {
  CampaignMatrix matrix = SmallMatrix();
  MatrixResult serial = CampaignRunner(WithJobs(1)).Run(matrix);
  MatrixResult parallel = CampaignRunner(WithJobs(8)).Run(matrix);
  EXPECT_EQ(parallel.threads, 8);
  ASSERT_EQ(serial.jobs.size(), parallel.jobs.size());
  for (size_t i = 0; i < serial.jobs.size(); ++i) {
    ASSERT_TRUE(serial.jobs[i].status.ok()) << serial.jobs[i].status.ToString();
    ASSERT_TRUE(parallel.jobs[i].status.ok()) << parallel.jobs[i].status.ToString();
    ExpectSameCampaignResult(serial.jobs[i].result, parallel.jobs[i].result,
                             "job " + std::to_string(i));
  }
  EXPECT_EQ(serial.overall.distinct_failures, parallel.overall.distinct_failures);
  EXPECT_EQ(serial.overall.false_positives, parallel.overall.false_positives);
  EXPECT_EQ(serial.overall.total_ops, parallel.overall.total_ops);
}

TEST(Runner, ResultsIdenticalUnderJobPermutation) {
  CampaignMatrix matrix = SmallMatrix();
  std::vector<CampaignJob> jobs = CampaignRunner::Expand(matrix);
  std::vector<CampaignJob> permuted = jobs;
  // A deterministic non-trivial permutation: reverse, then swap a middle pair.
  std::reverse(permuted.begin(), permuted.end());
  std::swap(permuted[1], permuted[permuted.size() - 2]);

  MatrixResult straight = CampaignRunner(WithJobs(2)).RunJobs(jobs);
  MatrixResult shuffled = CampaignRunner(WithJobs(2)).RunJobs(permuted);

  ASSERT_EQ(straight.jobs.size(), shuffled.jobs.size());
  for (const JobResult& expected : straight.jobs) {
    auto it = std::find_if(shuffled.jobs.begin(), shuffled.jobs.end(),
                           [&](const JobResult& candidate) {
                             return candidate.job.index == expected.job.index;
                           });
    ASSERT_NE(it, shuffled.jobs.end());
    ASSERT_TRUE(expected.status.ok());
    ASSERT_TRUE(it->status.ok());
    ExpectSameCampaignResult(expected.result, it->result,
                             "job " + std::to_string(expected.job.index));
  }
  EXPECT_EQ(straight.overall.distinct_failures, shuffled.overall.distinct_failures);
}

// Shared by every runner thread, so it records under a lock.
class CountingObserver : public CampaignLoopObserver {
 public:
  void OnTestcase(Strategy& strategy, const ExecOutcome& outcome,
                  const CampaignTick& tick) override {
    (void)strategy;
    (void)outcome;
    (void)tick;
    std::lock_guard<std::mutex> lock(mu_);
    ++calls_;
    threads_.insert(std::this_thread::get_id());
  }
  // Read only after the runner returns.
  uint64_t calls() const { return calls_; }
  size_t threads() const { return threads_.size(); }

 private:
  std::mutex mu_;
  uint64_t calls_ = 0;
  std::set<std::thread::id> threads_;
};

// Every job runs exactly once, with the digest it has unobserved, for any
// `jobs` value; values below 1 run on one thread, as 1 does.
TEST(Runner, LoopObserverSeesEveryTestcaseWithoutChangingDigests) {
  CampaignMatrix matrix;
  matrix.flavors = {Flavor::kGluster, Flavor::kHdfs};
  matrix.strategies = {"Themis"};
  matrix.seeds = 2;
  matrix.matrix_seed = 91;
  matrix.base.budget = Minutes(30);
  MatrixResult plain = CampaignRunner(WithJobs(1)).Run(matrix);
  ASSERT_EQ(plain.jobs.size(), 4u);

  for (int jobs : {-3, 0, 1, 4}) {
    CountingObserver observer;
    RunnerOptions options;
    options.jobs = jobs;
    options.loop_observer = &observer;
    MatrixResult observed = CampaignRunner(options).Run(matrix);
    EXPECT_EQ(observed.threads, std::max(jobs, 1)) << "jobs " << jobs;
    if (jobs <= 1) {
      EXPECT_EQ(observer.threads(), 1u) << "jobs " << jobs;
    }
    ASSERT_EQ(observed.jobs.size(), plain.jobs.size());
    uint64_t testcases = 0;
    for (size_t i = 0; i < plain.jobs.size(); ++i) {
      ASSERT_TRUE(observed.jobs[i].status.ok()) << observed.jobs[i].status.ToString();
      EXPECT_EQ(observed.jobs[i].result.Digest(), plain.jobs[i].result.Digest())
          << "jobs " << jobs << ", job " << i;
      testcases += static_cast<uint64_t>(observed.jobs[i].result.testcases);
    }
    // A job run twice would show up as extra observed test cases.
    EXPECT_GT(testcases, 0u);
    EXPECT_EQ(observer.calls(), testcases) << "jobs " << jobs;
  }
}

TEST(Runner, InvalidJobIsReportedWithoutAbortingTheMatrix) {
  CampaignMatrix matrix;
  matrix.flavors = {Flavor::kGluster};
  matrix.strategies = {"Themis"};
  matrix.seeds = 1;
  matrix.base.budget = Minutes(10);
  std::vector<CampaignJob> jobs = CampaignRunner::Expand(matrix);
  ASSERT_EQ(jobs.size(), 1u);

  CampaignJob bad = jobs[0];
  bad.index = 1;
  bad.config.threshold_t = -1.0;  // fails Validate()
  CampaignJob unknown = jobs[0];
  unknown.index = 2;
  unknown.strategy = "NoSuchStrategy";
  jobs.push_back(bad);
  jobs.push_back(unknown);

  MatrixResult result = CampaignRunner(WithJobs(4)).RunJobs(jobs);
  ASSERT_EQ(result.jobs.size(), 3u);
  EXPECT_TRUE(result.jobs[0].status.ok());
  EXPECT_GT(result.jobs[0].result.total_ops, 0u);
  EXPECT_EQ(result.jobs[1].status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.jobs[2].status.code(), StatusCode::kNotFound);
  EXPECT_EQ(result.FailedJobs(), 2);
  EXPECT_EQ(result.overall.jobs, 3);
  // The healthy job's findings still roll up.
  EXPECT_EQ(result.overall.total_ops, result.jobs[0].result.total_ops);
}

TEST(Runner, RollupUnionsFailuresAndSumsOps) {
  CampaignMatrix matrix;
  matrix.flavors = {Flavor::kGluster};
  matrix.strategies = {"Themis"};
  matrix.seeds = 2;
  matrix.matrix_seed = 5;
  matrix.base.budget = Hours(1);
  MatrixResult result = CampaignRunner(WithJobs(2)).Run(matrix);
  ASSERT_EQ(result.jobs.size(), 2u);
  const MatrixRollup& rollup = result.by_strategy.at("Themis");
  EXPECT_EQ(rollup.jobs, 2);
  EXPECT_EQ(rollup.failed_jobs, 0);
  EXPECT_EQ(rollup.total_ops,
            result.jobs[0].result.total_ops + result.jobs[1].result.total_ops);
  EXPECT_EQ(result.overall.jobs, 2);
  for (const auto& [id, at] : result.jobs[0].result.distinct_failures) {
    auto it = rollup.distinct_failures.find(id);
    ASSERT_NE(it, rollup.distinct_failures.end());
    EXPECT_LE(it->second, at);
  }
}

}  // namespace
}  // namespace themis
