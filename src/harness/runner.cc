#include "src/harness/runner.h"

#include <chrono>
#include <ctime>

#include "src/common/log.h"
#include "src/harness/telemetry_export.h"
#include "src/harness/thread_pool.h"

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

void FoldInto(MatrixRollup& rollup, const JobResult& job_result, size_t job_index,
              size_t& timeline_index) {
  ++rollup.jobs;
  rollup.job_seconds.Add(job_result.wall_seconds);
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
  rollup.final_coverage.Add(static_cast<double>(r.final_coverage));
  if (rollup.coverage_timeline.empty() || job_index < timeline_index) {
    rollup.coverage_timeline = r.coverage_timeline;
    timeline_index = job_index;
  }
}

}  // namespace

double MatrixRollup::MeanTriggerMinutes() const {
  if (distinct_failures.empty()) {
    return -1.0;
  }
  double total = 0.0;
  for (const auto& [id, at] : distinct_failures) {
    (void)id;
    total += ToMinutes(at);
  }
  return total / static_cast<double>(distinct_failures.size());
}

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

  const bool want_telemetry = !options_.telemetry_out.empty();
  {
    ThreadPool pool(options_.jobs);
    matrix_result.threads = pool.thread_count();
    for (size_t i = 0; i < jobs.size(); ++i) {
      // Each worker writes only its own pre-sized slot, so the results
      // vector needs no lock; the pool join is the synchronization point.
      JobResult* slot = &matrix_result.jobs[i];
      const CampaignJob* job = &jobs[i];
      pool.Submit([this, slot, job, want_telemetry] {
        auto job_start = std::chrono::steady_clock::now();
        double cpu_start = ThreadCpuSeconds();
        slot->job = *job;
        if (want_telemetry) {
          // Event recording never draws from the RNG, so flipping this on
          // cannot change the campaign result.
          slot->job.config.collect_telemetry = true;
        }
        slot->job.config.job_index = job->index;
        if (!options_.checkpoint_dir.empty() &&
            slot->job.config.checkpoint_dir.empty()) {
          // Snapshot writing never draws from the RNG either; per-job names
          // keep concurrent jobs from clobbering each other's files.
          slot->job.config.checkpoint_dir = options_.checkpoint_dir;
          slot->job.config.checkpoint_every_ops = options_.checkpoint_every_ops;
          slot->job.config.resume = options_.resume;
        }
        Campaign campaign(slot->job.config);
        campaign.set_loop_observer(options_.loop_observer);
        Result<CampaignResult> run = campaign.Run(slot->job.strategy);
        if (run.ok()) {
          slot->result = run.take();
        } else {
          slot->status = run.status();
          THEMIS_LOG(kWarn, "matrix job %zu (%s) failed: %s", job->index,
                     job->strategy.c_str(), slot->status.ToString().c_str());
        }
        slot->cpu_seconds = ThreadCpuSeconds() - cpu_start;
        slot->wall_seconds = SecondsSince(job_start);
      });
    }
    pool.Shutdown();  // drains every queued job
    matrix_result.stolen_jobs = pool.tasks_stolen();
  }

  // Single-threaded aggregation pass in canonical job order.
  size_t overall_timeline_index = jobs.size();
  std::map<std::string, size_t> strategy_timeline_index;
  for (const JobResult& job_result : matrix_result.jobs) {
    MatrixRollup& per_strategy = matrix_result.by_strategy[job_result.job.strategy];
    auto [it, inserted] =
        strategy_timeline_index.emplace(job_result.job.strategy, jobs.size());
    (void)inserted;
    FoldInto(per_strategy, job_result, job_result.job.index, it->second);
    FoldInto(matrix_result.overall, job_result, job_result.job.index,
             overall_timeline_index);
  }
  matrix_result.wall_seconds = SecondsSince(matrix_start);
  if (want_telemetry) {
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
  THEMIS_LOG(kInfo,
             "matrix: %zu jobs on %d threads in %.2fs (%llu stolen, %d failed)",
             jobs.size(), matrix_result.threads, matrix_result.wall_seconds,
             static_cast<unsigned long long>(matrix_result.stolen_jobs),
             matrix_result.FailedJobs());
  return matrix_result;
}

}  // namespace themis
