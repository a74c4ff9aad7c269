#include "src/harness/telemetry_export.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "src/common/strings.h"
#include "src/dfs/types.h"
#include "src/telemetry/event_log.h"

namespace themis {

namespace {

std::string JobSummaryJson(const JobResult& job_result) {
  const CampaignJob& job = job_result.job;
  std::string status =
      job_result.status.ok() ? "ok" : JsonEscape(job_result.status.ToString());
  std::string out = Sprintf(
      "{\"job\":%llu,\"event\":\"job_summary\",\"strategy\":\"%s\","
      "\"flavor\":\"%s\",\"repetition\":%d,\"status\":\"%s\"",
      static_cast<unsigned long long>(job.index), JsonEscape(job.strategy).c_str(),
      std::string(FlavorName(job.config.flavor)).c_str(), job.repetition,
      status.c_str());
  if (job_result.status.ok()) {
    const CampaignResult& r = job_result.result;
    out += Sprintf(
        ",\"testcases\":%d,\"total_ops\":%llu,\"candidates\":%d,"
        "\"distinct_failures\":%d,\"false_positives\":%d,"
        "\"final_coverage\":%zu,\"events\":%zu",
        r.testcases, static_cast<unsigned long long>(r.total_ops), r.candidates,
        r.DistinctTruePositives(), r.false_positives, r.final_coverage,
        r.telemetry.size());
  }
  out += Sprintf(",\"wall_seconds\":%.6f,\"cpu_seconds\":%.6f}",
                 job_result.wall_seconds, job_result.cpu_seconds);
  return out;
}

// Canonical order: ascending job index, independent of the order the job
// vector was handed to RunJobs in.
std::vector<const JobResult*> SortedJobs(const MatrixResult& result) {
  std::vector<const JobResult*> jobs;
  jobs.reserve(result.jobs.size());
  for (const JobResult& job_result : result.jobs) {
    jobs.push_back(&job_result);
  }
  std::sort(jobs.begin(), jobs.end(), [](const JobResult* a, const JobResult* b) {
    return a->job.index < b->job.index;
  });
  return jobs;
}

Status WriteWholeFile(const std::string& path, const std::string& content) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return Status::Unavailable(Sprintf("cannot open %s for writing", path.c_str()));
  }
  size_t written = std::fwrite(content.data(), 1, content.size(), file);
  int close_rc = std::fclose(file);
  if (written != content.size() || close_rc != 0) {
    return Status::Unavailable(Sprintf("short write to %s", path.c_str()));
  }
  return Status::Ok();
}

}  // namespace

std::string RenderTelemetryJsonl(const MatrixResult& result) {
  std::vector<const JobResult*> jobs = SortedJobs(result);
  std::string out;
  // Deterministic event lines first, then the wall-clock job_summary block,
  // so a determinism comparison can just drop the file's tail.
  for (const JobResult* job_result : jobs) {
    for (const CampaignEvent& event : job_result->result.telemetry) {
      out += event.ToJson(static_cast<int64_t>(job_result->job.index));
      out += '\n';
    }
  }
  for (const JobResult* job_result : jobs) {
    out += JobSummaryJson(*job_result);
    out += '\n';
  }
  return out;
}

Status WriteTelemetryJsonl(const MatrixResult& result, const std::string& path) {
  return WriteWholeFile(path, RenderTelemetryJsonl(result));
}

std::string RenderCampaignSummaryJson(const MatrixResult& result) {
  std::vector<const JobResult*> jobs = SortedJobs(result);
  std::string out = "{\n  \"jobs\": [";
  bool first_job = true;
  for (const JobResult* job_result : jobs) {
    const CampaignJob& job = job_result->job;
    out += Sprintf("%s\n    {\"job\":%llu,\"strategy\":\"%s\",\"flavor\":\"%s\","
                   "\"repetition\":%d,\"seed\":%llu",
                   first_job ? "" : ",", static_cast<unsigned long long>(job.index),
                   JsonEscape(job.strategy).c_str(),
                   std::string(FlavorName(job.config.flavor)).c_str(),
                   job.repetition, static_cast<unsigned long long>(job.config.seed));
    first_job = false;
    if (!job_result->status.ok()) {
      out += Sprintf(",\"status\":\"%s\"}",
                     JsonEscape(job_result->status.ToString()).c_str());
      continue;
    }
    const CampaignResult& r = job_result->result;
    out += Sprintf(
        ",\"status\":\"ok\",\"digest\":\"%016llx\",\"testcases\":%d,"
        "\"total_ops\":%llu,\"candidates\":%d,\"false_positives\":%d,"
        "\"final_coverage\":%zu,\"transition_coverage\":%zu,"
        "\"telemetry_events\":%zu,\"distinct_failures\":{",
        static_cast<unsigned long long>(r.Digest()), r.testcases,
        static_cast<unsigned long long>(r.total_ops), r.candidates,
        r.false_positives, r.final_coverage, r.transition_coverage,
        r.telemetry.size());
    bool first_failure = true;
    for (const auto& [id, at] : r.distinct_failures) {
      out += Sprintf("%s\"%s\":%lld", first_failure ? "" : ",",
                     JsonEscape(id).c_str(), static_cast<long long>(at));
      first_failure = false;
    }
    out += "}}";
  }
  int failed = 0;
  uint64_t total_ops = 0;
  for (const JobResult* job_result : jobs) {
    if (!job_result->status.ok()) {
      ++failed;
    } else {
      total_ops += job_result->result.total_ops;
    }
  }
  out += Sprintf("\n  ],\n  \"job_count\": %zu,\n  \"failed_jobs\": %d,\n"
                 "  \"total_ops\": %llu\n}\n",
                 jobs.size(), failed, static_cast<unsigned long long>(total_ops));
  return out;
}

Status WriteCampaignSummaryJson(const MatrixResult& result, const std::string& path) {
  return WriteWholeFile(path, RenderCampaignSummaryJson(result));
}

}  // namespace themis
