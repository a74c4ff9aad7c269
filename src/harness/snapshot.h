// Campaign snapshot format & file management (DESIGN.md §11).
//
// A snapshot file is:
//
//   offset  size  field
//   0       8     magic "THMSNP01"
//   8       4     format version (u32 LE, kSnapshotFormatVersion; readers
//                 reject any other)
//   12      1     kind (0 = mid-campaign, 1 = final)
//   13      8     payload size in bytes (u64 LE)
//   21      8     FNV-1a 64 checksum of the payload (u64 LE)
//   29      ...   payload (SnapshotWriter encoding)
//
// Files are written atomically (temp file + rename), so a crash mid-write
// can only leave a stray ".tmp" file, never a half-written ".ckpt". Readers
// validate magic, version, size and checksum before any field is parsed;
// every corruption mode maps to a descriptive kDataLoss Status.
//
// Mid-campaign payloads begin with an identity fingerprint (strategy +
// the behavior-affecting campaign config fields) so resuming under a
// different configuration is rejected with a field-level error instead of
// silently producing a diverging run.

#ifndef SRC_HARNESS_SNAPSHOT_H_
#define SRC_HARNESS_SNAPSHOT_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/common/snapshot_io.h"
#include "src/common/status.h"
#include "src/harness/campaign.h"
#include "src/harness/ground_truth.h"

namespace themis {

inline constexpr uint32_t kSnapshotFormatVersion = 9;

enum class SnapshotKind : uint8_t {
  kMidCampaign = 0,  // loop state; resuming continues the campaign
  kFinal = 1,        // a complete CampaignResult; resuming returns it as-is
};

struct LoadedSnapshot {
  SnapshotKind kind = SnapshotKind::kMidCampaign;
  std::string payload;
};

// Encodes header + payload and writes it atomically (tmp + rename).
Status WriteSnapshotFile(const std::string& path, SnapshotKind kind,
                         const std::string& payload);

// Reads and validates one snapshot file (magic/version/size/checksum).
Result<LoadedSnapshot> ReadSnapshotFile(const std::string& path);

// Snapshot file names for one campaign job. Mid-campaign snapshots carry a
// monotonically increasing ordinal (continued across resumes); the final
// snapshot has a fixed name.
std::string MidSnapshotFileName(size_t job_index, uint64_t ordinal);
std::string FinalSnapshotFileName(size_t job_index);

// All snapshot paths for `job_index` in `dir`, most-preferred first: the
// final snapshot (if present), then mid-campaign snapshots by descending
// ordinal. Missing or unreadable directories yield an empty list.
std::vector<std::string> ListJobSnapshotPaths(const std::string& dir,
                                              size_t job_index);

// Mid-campaign snapshots retained per job; older ones are pruned.
inline constexpr size_t kMidSnapshotsKept = 3;

// Removes mid-campaign snapshots of `job_index` beyond the newest
// kMidSnapshotsKept.
void PruneMidSnapshots(const std::string& dir, size_t job_index);

// Identity fingerprint at the head of every payload: the strategy name and
// each behavior-affecting CampaignConfig field. Check fails with a
// field-level message when the resuming campaign's configuration differs.
void WriteSnapshotIdentity(SnapshotWriter& writer, std::string_view strategy,
                           const CampaignConfig& config);
Status CheckSnapshotIdentity(SnapshotReader& reader, std::string_view strategy,
                             const CampaignConfig& config);

// Value-type serializers shared by both snapshot kinds.
void SaveFailureReports(SnapshotWriter& writer, const std::vector<FailureReport>& reports);
void RestoreFailureReports(SnapshotReader& reader, std::vector<FailureReport>* reports);
void SaveCoverageTimeline(SnapshotWriter& writer,
                          const std::vector<std::pair<SimTime, size_t>>& timeline);
void RestoreCoverageTimeline(SnapshotReader& reader,
                             std::vector<std::pair<SimTime, size_t>>* timeline);
void SaveGroundTruthTally(SnapshotWriter& writer, const GroundTruthTally& tally);
void RestoreGroundTruthTally(SnapshotReader& reader, GroundTruthTally* tally);
void SaveCampaignResult(SnapshotWriter& writer, const CampaignResult& result);
Status RestoreCampaignResult(SnapshotReader& reader, CampaignResult* result);

}  // namespace themis

#endif  // SRC_HARNESS_SNAPSHOT_H_
