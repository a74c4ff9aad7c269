// Integration tests: full campaigns and experiment drivers at reduced
// virtual budgets.

#include <gtest/gtest.h>

#include <limits>

#include "src/core/strategy_registry.h"
#include "src/harness/campaign.h"
#include "src/harness/experiments.h"
#include "src/harness/ground_truth.h"
#include "src/harness/report.h"

namespace themis {
namespace {

TEST(Campaign, RunsForTheVirtualBudget) {
  CampaignConfig config;
  config.flavor = Flavor::kGluster;
  config.seed = 3;
  config.budget = Hours(2);
  Result<CampaignResult> run = Campaign(config).Run("Themis");
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const CampaignResult& result = *run;
  EXPECT_GT(result.testcases, 50);
  EXPECT_GT(result.total_ops, 500u);
  EXPECT_GT(result.final_coverage, 100u);
  EXPECT_EQ(result.strategy_name, "Themis");
  EXPECT_EQ(result.flavor, Flavor::kGluster);
}

TEST(Campaign, Deterministic) {
  CampaignConfig config;
  config.flavor = Flavor::kLeo;
  config.seed = 9;
  config.budget = Hours(1);
  CampaignResult a = Campaign(config).Run("Themis").take();
  CampaignResult b = Campaign(config).Run("Themis").take();
  EXPECT_EQ(a.total_ops, b.total_ops);
  EXPECT_EQ(a.final_coverage, b.final_coverage);
  EXPECT_EQ(a.testcases, b.testcases);
  EXPECT_EQ(a.false_positives, b.false_positives);
  EXPECT_EQ(a.distinct_failures.size(), b.distinct_failures.size());
}

TEST(Campaign, CoverageTimelineIsMonotone) {
  CampaignConfig config;
  config.flavor = Flavor::kHdfs;
  config.seed = 4;
  config.budget = Hours(1);
  CampaignResult result = Campaign(config).Run("Concurrent").take();
  ASSERT_GT(result.coverage_timeline.size(), 10u);
  for (size_t i = 1; i < result.coverage_timeline.size(); ++i) {
    EXPECT_GE(result.coverage_timeline[i].second,
              result.coverage_timeline[i - 1].second);
    EXPECT_GT(result.coverage_timeline[i].first, result.coverage_timeline[i - 1].first);
  }
}

TEST(Campaign, HealthySystemYieldsNoFailures) {
  CampaignConfig config;
  config.flavor = Flavor::kCeph;
  config.seed = 5;
  config.budget = Hours(3);
  config.fault_set = FaultSet::kNone;
  CampaignResult result = Campaign(config).Run("Themis").take();
  EXPECT_EQ(result.DistinctTruePositives(), 0);
  EXPECT_EQ(result.false_positives, 0) << "healthy system must not be flagged";
}

TEST(Campaign, EveryRegisteredStrategyRuns) {
  std::vector<std::string> names = StrategyRegistry::Instance().Names();
  // Exactly the 6 strategies of the paper's evaluation, in sorted order.
  EXPECT_EQ(names, (std::vector<std::string>{"Alternate", "Concurrent", "Fix_conf", "Fix_req",
                                              "Themis", "Themis-"}));
  for (const std::string& name : names) {
    Result<CampaignResult> result =
        RunCampaign(name, Flavor::kGluster, 6, Minutes(30), FaultSet::kNewBugs);
    ASSERT_TRUE(result.ok()) << name << ": " << result.status().ToString();
    EXPECT_GT(result->total_ops, 50u) << name;
  }
}

TEST(Campaign, ValidateRejectsBadConfigs) {
  CampaignConfig ok;
  EXPECT_TRUE(ok.Validate().ok());

  CampaignConfig bad_budget = ok;
  bad_budget.budget = 0;
  EXPECT_EQ(bad_budget.Validate().code(), StatusCode::kInvalidArgument);

  CampaignConfig bad_nodes = ok;
  bad_nodes.storage_nodes = 0;
  EXPECT_EQ(bad_nodes.Validate().code(), StatusCode::kInvalidArgument);

  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (double threshold : {0.0, kNaN, -kNaN, kInf}) {
    CampaignConfig bad_threshold = ok;
    bad_threshold.threshold_t = threshold;
    EXPECT_EQ(bad_threshold.Validate().code(), StatusCode::kInvalidArgument)
        << threshold;
  }

  CampaignConfig bad_weights = ok;
  bad_weights.weights.computation = 0.0;
  bad_weights.weights.network = 0.0;
  bad_weights.weights.storage = 0.0;
  EXPECT_EQ(bad_weights.Validate().code(), StatusCode::kInvalidArgument);
  for (double weight : {kNaN, kInf}) {
    CampaignConfig non_finite = ok;
    non_finite.weights.network = weight;
    EXPECT_EQ(non_finite.Validate().code(), StatusCode::kInvalidArgument) << weight;
  }

  CampaignConfig healthy = ok;
  healthy.fault_set = FaultSet::kNone;
  EXPECT_TRUE(healthy.Validate().ok()) << "FP-study mode must validate";
}

TEST(Campaign, RunReportsErrorsInsteadOfCrashing) {
  CampaignConfig config;
  config.budget = -Hours(1);
  Result<CampaignResult> run = Campaign(config).Run("Themis");
  EXPECT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);

  CampaignConfig valid;
  valid.budget = Minutes(5);
  Result<CampaignResult> unknown = Campaign(valid).Run("NoSuchStrategy");
  EXPECT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
}

TEST(GroundTruth, TallyClassifiesAndDedups) {
  GroundTruthTally tally;
  FailureReport tp1;
  tp1.active_faults = {"bug-a"};
  tp1.confirmed_at = Minutes(10);
  FailureReport tp1_again;
  tp1_again.active_faults = {"bug-a"};
  tp1_again.confirmed_at = Minutes(5);  // earlier: must win
  FailureReport tp2;
  tp2.active_faults = {"bug-b", "bug-c"};
  tp2.confirmed_at = Minutes(20);
  FailureReport fp;  // no active faults
  TallyReports({tp1, tp1_again, tp2, fp}, tally);
  EXPECT_EQ(tally.true_positive_reports, 3);
  EXPECT_EQ(tally.false_positive_reports, 1);
  EXPECT_EQ(tally.distinct_failures.size(), 3u);
  EXPECT_EQ(tally.distinct_failures.at("bug-a"), Minutes(5));
}

TEST(Experiments, NewBugDriverSmoke) {
  ExperimentBudget budget;
  budget.campaign = Hours(1);
  budget.seeds = 1;
  NewBugFindings findings = RunNewBugExperiment({"Fix_conf"}, budget);
  EXPECT_EQ(findings.found.count("Fix_conf"), 1u);
}

TEST(Experiments, ThresholdSweepShape) {
  ExperimentBudget budget;
  budget.campaign = Hours(2);
  budget.seeds = 1;
  std::vector<ThresholdSweepRow> rows = RunThresholdSweep({0.05, 0.30}, budget);
  ASSERT_EQ(rows.size(), 2u);
  // Low thresholds must produce at least as many FPs as high ones.
  EXPECT_GE(rows[0].false_positives, rows[1].false_positives);
}

TEST(Experiments, AccumulationTraceProducesSeries) {
  AccumulationTrace trace = RunAccumulationTrace(31, Hours(2));
  EXPECT_FALSE(trace.max_variance_series.empty());
  if (trace.failure_confirmed) {
    EXPECT_GT(trace.confirmed_at, 0);
    EXPECT_FALSE(trace.node_series.empty());
  }
}

TEST(Report, TextTableRendersAligned) {
  TextTable table({"A", "Long header"});
  table.AddRow({"x", "1"});
  table.AddRow({"long cell", "2"});
  std::string out = table.Render();
  EXPECT_NE(out.find("| A         | Long header |"), std::string::npos);
  EXPECT_NE(out.find("| long cell | 2           |"), std::string::npos);
  // Separator row present.
  EXPECT_NE(out.find("|-"), std::string::npos);
}

TEST(Report, PercentHelper) {
  EXPECT_EQ(Percent(43, 53), "81%");
  EXPECT_EQ(Percent(0, 53), "0%");
  EXPECT_EQ(Percent(1, 0), "0%");
}

}  // namespace
}  // namespace themis
