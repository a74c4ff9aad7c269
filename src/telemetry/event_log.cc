#include "src/telemetry/event_log.h"

#include "src/common/strings.h"

namespace themis {

const char* CampaignEventKindName(CampaignEventKind kind) {
  switch (kind) {
    case CampaignEventKind::kSeedAccepted:
      return "seed_accepted";
    case CampaignEventKind::kSeedRejected:
      return "seed_rejected";
    case CampaignEventKind::kMutation:
      return "mutation";
    case CampaignEventKind::kVariance:
      return "variance";
    case CampaignEventKind::kDetectorVerdict:
      return "detector_verdict";
    case CampaignEventKind::kDoubleCheck:
      return "double_check";
    case CampaignEventKind::kRebalanceRound:
      return "rebalance_round";
    case CampaignEventKind::kRebalanceWait:
      return "rebalance_wait";
    case CampaignEventKind::kClusterReset:
      return "cluster_reset";
  }
  return "?";
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += Sprintf("\\u%04x", static_cast<unsigned>(c));
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string CampaignEvent::ToJson(int64_t job) const {
  // %.17g round-trips doubles, so the textual form is as deterministic as
  // the value itself.
  std::string out = "{";
  if (job >= 0) {
    out += Sprintf("\"job\":%lld,", static_cast<long long>(job));
  }
  out += Sprintf("\"at_us\":%lld,\"event\":\"%s\"", static_cast<long long>(at),
                 CampaignEventKindName(kind));
  if (!label.empty()) {
    out += Sprintf(",\"label\":\"%s\"", JsonEscape(label).c_str());
  }
  if (value != 0.0) {
    out += Sprintf(",\"value\":%.17g", value);
  }
  if (value2 != 0.0) {
    out += Sprintf(",\"value2\":%.17g", value2);
  }
  if (count != 0) {
    out += Sprintf(",\"count\":%llu", static_cast<unsigned long long>(count));
  }
  out += "}";
  return out;
}

void EventLog::Record(CampaignEventKind kind, std::string label, double value,
                      double value2, uint64_t count) {
  CampaignEvent event;
  event.kind = kind;
  event.at = clock_ != nullptr ? clock_->now() : 0;
  event.label = std::move(label);
  event.value = value;
  event.value2 = value2;
  event.count = count;
  events_.push_back(std::move(event));
}

void SaveCampaignEvent(SnapshotWriter& writer, const CampaignEvent& event) {
  writer.U8(static_cast<uint8_t>(event.kind));
  writer.I64(event.at);
  writer.Str(event.label);
  writer.F64(event.value);
  writer.F64(event.value2);
  writer.U64(event.count);
}

void RestoreCampaignEvent(SnapshotReader& reader, CampaignEvent* event) {
  uint8_t kind = reader.U8();
  if (reader.ok() && kind > static_cast<uint8_t>(CampaignEventKind::kClusterReset)) {
    reader.Fail(Sprintf("campaign event kind %u out of range", kind));
    return;
  }
  event->kind = static_cast<CampaignEventKind>(kind);
  event->at = reader.I64();
  event->label = reader.Str();
  event->value = reader.F64();
  event->value2 = reader.F64();
  event->count = reader.U64();
}

void EventLog::SaveState(SnapshotWriter& writer) const {
  writer.U64(events_.size());
  for (const CampaignEvent& event : events_) {
    SaveCampaignEvent(writer, event);
  }
}

Status EventLog::RestoreState(SnapshotReader& reader) {
  uint64_t count = reader.Count(1 + 8 + 8 + 8 + 8 + 8);
  events_.clear();
  events_.resize(static_cast<size_t>(count));
  for (CampaignEvent& event : events_) {
    RestoreCampaignEvent(reader, &event);
    if (!reader.ok()) break;
  }
  return reader.status();
}

}  // namespace themis
