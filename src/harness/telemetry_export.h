// Serialization of campaign telemetry to files.
//
// Two formats:
//   * JSONL event streams (WriteTelemetryJsonl): every campaign event of
//     every job, one JSON object per line, in canonical job order — followed
//     by one `job_summary` line per job carrying its result counters and the
//     wall/cpu timings. The event lines are a pure function of the matrix
//     config and seed, so the file is byte-identical for any --jobs value
//     once the job_summary lines (the only wall-clock-dependent records) are
//     filtered out.
//   * The deterministic campaign summary (WriteCampaignSummaryJson), below.

#ifndef SRC_HARNESS_TELEMETRY_EXPORT_H_
#define SRC_HARNESS_TELEMETRY_EXPORT_H_

#include <string>

#include "src/common/status.h"
#include "src/harness/runner.h"

namespace themis {

// Renders the full event stream (see file comment) without touching disk.
std::string RenderTelemetryJsonl(const MatrixResult& result);

// Writes RenderTelemetryJsonl(result) to `path`. Jobs must have been run
// with CampaignConfig::collect_telemetry=true for event lines to appear;
// job_summary lines are always written.
Status WriteTelemetryJsonl(const MatrixResult& result, const std::string& path);

// Deterministic campaign summary: one JSON document with a per-job record
// (strategy, flavor, seed, result counters and the CampaignResult digest)
// in ascending job-index order, plus matrix totals. It contains NO
// wall-clock fields, so the rendered bytes are identical for any --jobs
// count and across kill/resume cycles — the resume-determinism tests diff it
// byte-for-byte.
std::string RenderCampaignSummaryJson(const MatrixResult& result);
Status WriteCampaignSummaryJson(const MatrixResult& result, const std::string& path);

}  // namespace themis

#endif  // SRC_HARNESS_TELEMETRY_EXPORT_H_
