#include "src/harness/experiments.h"

#include <algorithm>

#include "src/faults/fault_registry.h"

namespace themis {

namespace {

// Per-driver salts: each experiment family owns its own stream of the base
// seed, so drivers never share campaign RNG streams no matter how the grids
// overlap (the order-dependence bug the old ad-hoc SeedFor scheme had).
enum class DriverSalt : uint64_t {
  kNewBugs = 1,
  kHistorical = 2,
  kCoverage = 3,
  kAblation = 4,
  kThreshold = 5,
  kWeights = 6,
};

uint64_t DriverSeed(const ExperimentBudget& budget, DriverSalt salt) {
  return Rng::SplitSeed(budget.base_seed, static_cast<uint64_t>(salt));
}

CampaignMatrix BaseMatrix(const ExperimentBudget& budget, DriverSalt salt,
                          const std::vector<std::string>& strategies) {
  CampaignMatrix matrix;
  matrix.flavors.assign(kAllFlavors.begin(), kAllFlavors.end());
  matrix.strategies = strategies;
  matrix.seeds = budget.seeds;
  matrix.matrix_seed = DriverSeed(budget, salt);
  matrix.base.budget = budget.campaign;
  matrix.base.fault_set = FaultSet::kNewBugs;
  return matrix;
}

MatrixResult RunMatrix(const CampaignMatrix& matrix, const ExperimentBudget& budget) {
  RunnerOptions options;
  options.jobs = budget.jobs;
  options.telemetry_out = budget.telemetry_out;
  return CampaignRunner(options).Run(matrix);
}

}  // namespace

NewBugFindings RunNewBugExperiment(const std::vector<std::string>& strategies,
                                   const ExperimentBudget& budget) {
  CampaignMatrix matrix = BaseMatrix(budget, DriverSalt::kNewBugs, strategies);
  MatrixResult result = RunMatrix(matrix, budget);

  NewBugFindings findings;
  for (const std::string& strategy : strategies) {
    const MatrixRollup& rollup = result.by_strategy[strategy];
    findings.found[strategy] = rollup.distinct_failures;
    findings.false_positives[strategy] = rollup.false_positives;
  }
  return findings;
}

HistoricalFindings RunHistoricalExperiment(const std::vector<std::string>& strategies,
                                           const ExperimentBudget& budget) {
  CampaignMatrix matrix = BaseMatrix(budget, DriverSalt::kHistorical, strategies);
  matrix.base.fault_set = FaultSet::kHistorical;
  MatrixResult result = RunMatrix(matrix, budget);

  HistoricalFindings findings;
  // Union per (strategy, flavor); the ids come out sorted because they are
  // accumulated through an ordered map.
  std::map<std::string, std::map<Flavor, std::map<std::string, bool>>> found;
  for (const JobResult& job : result.jobs) {
    if (!job.status.ok()) {
      continue;
    }
    const std::string& strategy = job.job.strategy;
    for (const auto& [id, at] : job.result.distinct_failures) {
      (void)at;
      found[strategy][job.job.config.flavor][id] = true;
    }
  }
  for (const std::string& strategy : strategies) {
    for (Flavor flavor : kAllFlavors) {
      std::vector<std::string>& ids = findings.found[strategy][flavor];
      for (const auto& [id, seen] : found[strategy][flavor]) {
        (void)seen;
        ids.push_back(id);
      }
    }
  }
  return findings;
}

CoverageResults RunCoverageExperiment(const std::vector<std::string>& strategies,
                                      const ExperimentBudget& budget) {
  CampaignMatrix matrix = BaseMatrix(budget, DriverSalt::kCoverage, strategies);
  MatrixResult result = RunMatrix(matrix, budget);

  CoverageResults results;
  std::map<std::string, std::map<Flavor, size_t>> totals;
  for (const JobResult& job : result.jobs) {
    if (!job.status.ok()) {
      continue;
    }
    const std::string& strategy = job.job.strategy;
    Flavor flavor = job.job.config.flavor;
    totals[strategy][flavor] += job.result.final_coverage;
    if (job.job.repetition == 0) {
      results.timelines[strategy][flavor] = job.result.coverage_timeline;
    }
  }
  for (const std::string& strategy : strategies) {
    for (Flavor flavor : kAllFlavors) {
      size_t seeds = static_cast<size_t>(std::max(budget.seeds, 1));
      results.final_coverage[strategy][flavor] = totals[strategy][flavor] / seeds;
    }
  }
  return results;
}

AblationResults RunAblationExperiment(const ExperimentBudget& budget) {
  CampaignMatrix matrix = BaseMatrix(budget, DriverSalt::kAblation, {"Themis-", "Themis"});
  MatrixResult result = RunMatrix(matrix, budget);

  AblationResults results;
  std::map<std::string, std::map<Flavor, std::map<std::string, bool>>> found;
  std::map<std::string, std::map<Flavor, size_t>> coverage_totals;
  for (const JobResult& job : result.jobs) {
    if (!job.status.ok()) {
      continue;
    }
    const std::string& strategy = job.job.strategy;
    Flavor flavor = job.job.config.flavor;
    coverage_totals[strategy][flavor] += job.result.final_coverage;
    for (const auto& [id, at] : job.result.distinct_failures) {
      (void)at;
      found[strategy][flavor][id] = true;
    }
  }
  for (Flavor flavor : kAllFlavors) {
    size_t denom = static_cast<size_t>(std::max(budget.seeds, 1));
    results.failures_minus[flavor] = static_cast<int>(found["Themis-"][flavor].size());
    results.failures_full[flavor] = static_cast<int>(found["Themis"][flavor].size());
    results.coverage_minus[flavor] = coverage_totals["Themis-"][flavor] / denom;
    results.coverage_full[flavor] = coverage_totals["Themis"][flavor] / denom;
  }
  return results;
}

std::vector<ThresholdSweepRow> RunThresholdSweep(const std::vector<double>& thresholds,
                                                 const ExperimentBudget& budget) {
  CampaignMatrix matrix = BaseMatrix(budget, DriverSalt::kThreshold, {"Themis"});
  matrix.thresholds = thresholds;
  MatrixResult result = RunMatrix(matrix, budget);

  std::vector<ThresholdSweepRow> rows;
  for (double t : thresholds) {
    ThresholdSweepRow row;
    row.threshold = t;
    std::map<std::string, bool> found;
    for (const JobResult& job : result.jobs) {
      if (!job.status.ok() || job.job.config.threshold_t != t) {
        continue;
      }
      row.false_positives += job.result.false_positives;
      for (const auto& [id, at] : job.result.distinct_failures) {
        (void)at;
        found[id] = true;
      }
    }
    row.true_positives = static_cast<int>(found.size());
    rows.push_back(row);
  }
  return rows;
}

std::vector<WeightSweepRow> RunWeightSweep(const std::vector<double>& storage_weights,
                                           const ExperimentBudget& budget) {
  // The storage-type new bugs of Table 2 (#1, #2, #5, #6, #8, #9).
  std::vector<std::string> storage_bug_ids;
  for (const FaultSpec& spec : NewBugRegistry()) {
    if (spec.type == FailureType::kImbalancedStorage) {
      storage_bug_ids.push_back(spec.id);
    }
  }

  CampaignMatrix matrix = BaseMatrix(budget, DriverSalt::kWeights, {"Themis"});
  for (double w : storage_weights) {
    // Remaining weight splits evenly between computation and network.
    LoadVarianceWeights weights;
    weights.storage = w;
    weights.computation = (1.0 - w) / 2.0;
    weights.network = (1.0 - w) / 2.0;
    matrix.weight_sets.push_back(weights);
  }
  MatrixResult result = RunMatrix(matrix, budget);

  std::vector<WeightSweepRow> rows;
  for (double w : storage_weights) {
    WeightSweepRow row;
    row.storage_weight = w;
    double total_minutes = 0.0;
    int found = 0;
    for (const JobResult& job : result.jobs) {
      if (!job.status.ok() || job.job.config.weights.storage != w) {
        continue;
      }
      for (const std::string& id : storage_bug_ids) {
        auto it = job.result.distinct_failures.find(id);
        if (it != job.result.distinct_failures.end()) {
          total_minutes += ToMinutes(it->second);
          ++found;
        }
      }
    }
    row.storage_bugs_found = found;
    row.mean_trigger_minutes = found > 0 ? total_minutes / found : -1.0;
    rows.push_back(row);
  }
  return rows;
}

AccumulationTrace RunAccumulationTrace(uint64_t seed, SimDuration budget) {
  // Reproduces GlusterFS-3356-style accumulation: a gluster-like cluster with
  // the historical corpus active, driven by Themis, sampling every node's
  // utilization once per virtual minute until the first storage failure is
  // confirmed (Fig. 2's bug is part of the historical study corpus).
  AccumulationTrace trace;
  CampaignConfig config;
  config.flavor = Flavor::kGluster;
  config.seed = seed;
  config.budget = budget;
  config.fault_set = FaultSet::kHistorical;
  Result<std::unique_ptr<CampaignSession>> session =
      CampaignSession::Open(config, "Themis");
  if (!session.ok()) {
    return trace;  // a non-positive budget: nothing to trace
  }
  const DfsCluster& cluster = (*session)->cluster();

  SimTime next_sample = 0;
  while (!(*session)->Done()) {
    ExecOutcome outcome = (*session)->Step();
    for (; cluster.Now() >= next_sample; next_sample += Minutes(1)) {
      double minute = ToMinutes(cluster.Now());
      trace.max_variance_series.emplace_back(minute, cluster.StorageImbalance());
      for (const LoadSample& s : cluster.SampleLoad()) {
        if (s.is_storage && s.online && !s.crashed && s.capacity_bytes > 0) {
          trace.node_series[s.node].emplace_back(
              minute, static_cast<double>(s.used_bytes) /
                          static_cast<double>(s.capacity_bytes));
        }
      }
    }
    for (const FailureReport& report : outcome.failures) {
      if (report.IsTruePositive() &&
          report.dimension == ImbalanceDimension::kStorage) {
        trace.failure_confirmed = true;
        trace.confirmed_at = report.confirmed_at;
        return trace;
      }
      // Any other confirmed failure reset the cluster: restart the trace so
      // the figure shows one contiguous reproduction.
      trace.node_series.clear();
      trace.max_variance_series.clear();
    }
  }
  return trace;
}

}  // namespace themis
