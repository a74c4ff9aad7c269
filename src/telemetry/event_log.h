// Per-campaign event telemetry: a structured record of what the fuzzing loop
// actually did — seeds kept or dropped, mutation kinds, the variance
// trajectory, detector verdicts, double-check outcomes, rebalance
// convergence — exported as JSONL for offline analysis.
//
// Determinism contract: every event is stamped with *virtual* time from the
// campaign's own clock and carries only deterministic payloads, so the event
// stream of a job is a pure function of its config and seed. The runner
// writes job streams in canonical job order, which makes the JSONL file
// byte-identical for any --jobs value (only the per-job `job_summary`
// records carry wall/cpu time and are excluded from determinism
// comparisons). Recording never draws from any Rng.
//
// An EventLog belongs to exactly one campaign (one runner job) and is only
// touched from that job's thread, so recording is a plain vector push. A
// campaign records into it only when CampaignConfig::collect_telemetry is on.

#ifndef SRC_TELEMETRY_EVENT_LOG_H_
#define SRC_TELEMETRY_EVENT_LOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/clock.h"
#include "src/common/snapshot_io.h"

namespace themis {

enum class CampaignEventKind : uint8_t {
  kSeedAccepted = 0,   // label=reason(s), value=score, value2=variance gain
  kSeedRejected,       // value2=variance gain (non-positive)
  kMutation,           // label=replace|delete|insert, count=times applied
  kVariance,           // value=score before, value2=score after a test case
  kDetectorVerdict,    // label=dimension|none, value=worst ratio, count=streak
  kDoubleCheck,        // label=confirmed|refuted|rebalance_hung, value=ratio
  kRebalanceRound,     // label=planned|drained|empty, count=moves in the round
  kRebalanceWait,      // label=done|timeout, count=poll iterations
  kClusterReset,       // after a confirmed failure
};

const char* CampaignEventKindName(CampaignEventKind kind);

struct CampaignEvent {
  CampaignEventKind kind = CampaignEventKind::kVariance;
  SimTime at = 0;        // virtual time
  std::string label;     // kind-specific discriminator (see enum comments)
  double value = 0.0;
  double value2 = 0.0;
  uint64_t count = 0;

  // One canonical JSON object (no trailing newline); `job` tags the owning
  // campaign job in matrix output, -1 for standalone campaigns.
  std::string ToJson(int64_t job = -1) const;

  bool operator==(const CampaignEvent& other) const = default;
};

class EventLog {
 public:
  // Binds the virtual clock used to stamp events; unstamped logs record at 0.
  void BindClock(const VirtualClock* clock) { clock_ = clock; }

  void Record(CampaignEventKind kind, std::string label = {}, double value = 0.0,
              double value2 = 0.0, uint64_t count = 0);

  const std::vector<CampaignEvent>& events() const { return events_; }

  std::vector<CampaignEvent> TakeEvents() {
    std::vector<CampaignEvent> out = std::move(events_);
    events_.clear();
    return out;
  }

  // Checkpointing (DESIGN.md §11): the recorded events. The clock binding is
  // re-established by the campaign on restore.
  void SaveState(SnapshotWriter& writer) const;
  Status RestoreState(SnapshotReader& reader);

 private:
  const VirtualClock* clock_ = nullptr;
  std::vector<CampaignEvent> events_;
};

// Checkpoint serializers for the event value type (CampaignResult::telemetry
// uses them too).
void SaveCampaignEvent(SnapshotWriter& writer, const CampaignEvent& event);
void RestoreCampaignEvent(SnapshotReader& reader, CampaignEvent* event);

// Minimal JSON string escaping (quotes, backslashes, control characters).
std::string JsonEscape(const std::string& text);

}  // namespace themis

#endif  // SRC_TELEMETRY_EVENT_LOG_H_
