#include "src/harness/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ctime>
#include <thread>

#include "src/common/log.h"
#include "src/harness/telemetry_export.h"

namespace themis {

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

// CPU time consumed by the calling thread; 0 where the clock is unsupported.
double ThreadCpuSeconds() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  }
#endif
  return 0.0;
}

// Runs `job` on the calling thread and fills in `slot`.
void RunJob(const CampaignJob& job, const RunnerOptions& options, JobResult& slot) {
  auto job_start = std::chrono::steady_clock::now();
  double cpu_start = ThreadCpuSeconds();
  slot.job = job;
  if (!options.telemetry_out.empty()) {
    // Event recording never draws from the RNG, so flipping this on
    // cannot change the campaign result.
    slot.job.config.collect_telemetry = true;
  }
  // Names the job's snapshot files, so concurrent jobs never share one.
  slot.job.config.job_index = job.index;
  Campaign campaign(slot.job.config);
  campaign.set_loop_observer(options.loop_observer);
  Result<CampaignResult> run = campaign.Run(slot.job.strategy);
  if (run.ok()) {
    slot.result = run.take();
  } else {
    slot.status = run.status();
    THEMIS_LOG(kWarn, "matrix job %zu (%s) failed: %s", job.index, job.strategy.c_str(),
               slot.status.ToString().c_str());
  }
  slot.cpu_seconds = ThreadCpuSeconds() - cpu_start;
  slot.wall_seconds = SecondsSince(job_start);
}

void FoldInto(MatrixRollup& rollup, const JobResult& job_result) {
  ++rollup.jobs;
  if (!job_result.status.ok()) {
    ++rollup.failed_jobs;
    return;
  }
  const CampaignResult& r = job_result.result;
  for (const auto& [id, at] : r.distinct_failures) {
    auto [it, inserted] = rollup.distinct_failures.emplace(id, at);
    if (!inserted && at < it->second) {
      it->second = at;
    }
  }
  rollup.false_positives += r.false_positives;
  rollup.total_ops += r.total_ops;
}

}  // namespace

CampaignRunner::CampaignRunner(RunnerOptions options) : options_(options) {}

std::vector<CampaignJob> CampaignRunner::Expand(const CampaignMatrix& matrix) {
  std::vector<double> thresholds = matrix.thresholds;
  if (thresholds.empty()) {
    thresholds.push_back(matrix.base.threshold_t);
  }
  std::vector<LoadVarianceWeights> weight_sets = matrix.weight_sets;
  if (weight_sets.empty()) {
    weight_sets.push_back(matrix.base.weights);
  }

  std::vector<CampaignJob> jobs;
  jobs.reserve(matrix.strategies.size() * matrix.flavors.size() * thresholds.size() *
               weight_sets.size() * static_cast<size_t>(std::max(matrix.seeds, 0)));
  size_t index = 0;
  for (const std::string& strategy : matrix.strategies) {
    for (Flavor flavor : matrix.flavors) {
      for (double threshold : thresholds) {
        for (const LoadVarianceWeights& weights : weight_sets) {
          for (int rep = 0; rep < matrix.seeds; ++rep) {
            CampaignJob job;
            job.index = index;
            job.strategy = strategy;
            job.repetition = rep;
            job.config = matrix.base;
            job.config.flavor = flavor;
            job.config.threshold_t = threshold;
            job.config.weights = weights;
            job.config.seed = Rng::SplitSeed(matrix.matrix_seed, job.index);
            jobs.push_back(std::move(job));
            ++index;
          }
        }
      }
    }
  }
  return jobs;
}

MatrixResult CampaignRunner::Run(const CampaignMatrix& matrix) {
  return RunJobs(Expand(matrix));
}

MatrixResult CampaignRunner::RunJobs(const std::vector<CampaignJob>& jobs) {
  auto matrix_start = std::chrono::steady_clock::now();

  MatrixResult matrix_result;
  matrix_result.jobs.resize(jobs.size());
  // A thread beyond the job count could never claim a job.
  matrix_result.threads = static_cast<int>(
      std::min(static_cast<size_t>(std::max(options_.jobs, 1)), std::max<size_t>(jobs.size(), 1)));

  // Each thread claims the next unclaimed job index and writes only that
  // job's pre-sized slot, so the results vector needs no lock. The threads
  // join when `threads` leaves its scope, before anything reads the slots.
  std::atomic<size_t> next_job{0};
  {
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<size_t>(matrix_result.threads));
    for (int t = 0; t < matrix_result.threads; ++t) {
      threads.emplace_back([&] {
        for (size_t i = next_job++; i < jobs.size(); i = next_job++) {
          RunJob(jobs[i], options_, matrix_result.jobs[i]);
        }
      });
    }
  }

  // Single-threaded aggregation pass in job order.
  for (const JobResult& job_result : matrix_result.jobs) {
    FoldInto(matrix_result.by_strategy[job_result.job.strategy], job_result);
    FoldInto(matrix_result.overall, job_result);
  }
  matrix_result.wall_seconds = SecondsSince(matrix_start);
  if (!options_.telemetry_out.empty()) {
    Status write = WriteTelemetryJsonl(matrix_result, options_.telemetry_out);
    if (!write.ok()) {
      THEMIS_LOG(kWarn, "telemetry export failed: %s", write.ToString().c_str());
    } else {
      THEMIS_LOG(kInfo, "telemetry: wrote %s", options_.telemetry_out.c_str());
    }
  }
  if (!options_.summary_json.empty()) {
    Status write = WriteCampaignSummaryJson(matrix_result, options_.summary_json);
    if (!write.ok()) {
      THEMIS_LOG(kWarn, "summary export failed: %s", write.ToString().c_str());
    } else {
      THEMIS_LOG(kInfo, "summary: wrote %s", options_.summary_json.c_str());
    }
  }
  THEMIS_LOG(kInfo, "matrix: %zu jobs on %d threads in %.2fs (%d failed)", jobs.size(),
             matrix_result.threads, matrix_result.wall_seconds, matrix_result.FailedJobs());
  return matrix_result;
}

}  // namespace themis
