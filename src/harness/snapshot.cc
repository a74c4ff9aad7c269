#include "src/harness/snapshot.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

#include "src/common/strings.h"
#include "src/core/opseq.h"
#include "src/dfs/types.h"
#include "src/telemetry/event_log.h"

namespace themis {

namespace {

constexpr char kSnapshotMagic[8] = {'T', 'H', 'M', 'S', 'N', 'P', '0', '1'};
constexpr size_t kHeaderBytes = 8 + 4 + 1 + 8 + 8;

std::string JobPrefix(size_t job_index) {
  return Sprintf("job-%zu-", job_index);
}

// Parses the ordinal out of "job-<i>-<ordinal>.ckpt"; false for the final
// snapshot and anything else.
bool ParseMidOrdinal(const std::string& filename, size_t job_index,
                     uint64_t* ordinal) {
  const std::string prefix = JobPrefix(job_index);
  const std::string suffix = ".ckpt";
  if (filename.size() <= prefix.size() + suffix.size()) return false;
  if (filename.compare(0, prefix.size(), prefix) != 0) return false;
  if (filename.compare(filename.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  std::string middle =
      filename.substr(prefix.size(), filename.size() - prefix.size() - suffix.size());
  if (middle.empty() || middle == "final") return false;
  uint64_t value = 0;
  for (char c : middle) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *ordinal = value;
  return true;
}

}  // namespace

std::string MidSnapshotFileName(size_t job_index, uint64_t ordinal) {
  return Sprintf("job-%zu-%llu.ckpt", job_index,
                 static_cast<unsigned long long>(ordinal));
}

std::string FinalSnapshotFileName(size_t job_index) {
  return Sprintf("job-%zu-final.ckpt", job_index);
}

Status WriteSnapshotFile(const std::string& path, SnapshotKind kind,
                         const std::string& payload) {
  SnapshotWriter header;
  for (char c : kSnapshotMagic) header.U8(static_cast<uint8_t>(c));
  header.U32(kSnapshotFormatVersion);
  header.U8(static_cast<uint8_t>(kind));
  header.U64(payload.size());
  header.U64(Fnv1a64(payload));

  std::error_code ec;
  std::filesystem::path target(path);
  if (target.has_parent_path()) {
    std::filesystem::create_directories(target.parent_path(), ec);
    // An existing directory is fine; only a genuine failure matters, and
    // that surfaces below when the temp file cannot be opened.
  }
  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Internal(
          Sprintf("cannot open snapshot temp file %s", tmp_path.c_str()));
    }
    out.write(header.buffer().data(),
              static_cast<std::streamsize>(header.buffer().size()));
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    out.flush();
    if (!out) {
      return Status::Internal(
          Sprintf("short write to snapshot temp file %s", tmp_path.c_str()));
    }
  }
  std::filesystem::rename(tmp_path, path, ec);
  if (ec) {
    return Status::Internal(Sprintf("cannot rename %s to %s: %s", tmp_path.c_str(),
                                    path.c_str(), ec.message().c_str()));
  }
  return Status::Ok();
}

Result<LoadedSnapshot> ReadSnapshotFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::NotFound(Sprintf("snapshot %s cannot be opened", path.c_str()));
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (bytes.size() < kHeaderBytes) {
    return Status::DataLoss(
        Sprintf("snapshot %s truncated: %zu bytes, header needs %zu", path.c_str(),
                bytes.size(), kHeaderBytes));
  }
  SnapshotReader header(std::string_view(bytes).substr(0, kHeaderBytes));
  char magic[8];
  for (char& c : magic) c = static_cast<char>(header.U8());
  if (!std::equal(std::begin(magic), std::end(magic), std::begin(kSnapshotMagic))) {
    return Status::DataLoss(
        Sprintf("snapshot %s has bad magic (not a Themis snapshot)", path.c_str()));
  }
  uint32_t version = header.U32();
  if (version != kSnapshotFormatVersion) {
    return Status::DataLoss(
        Sprintf("snapshot %s has unsupported format version %u (this build reads %u)",
                path.c_str(), version, kSnapshotFormatVersion));
  }
  uint8_t kind_raw = header.U8();
  if (kind_raw > static_cast<uint8_t>(SnapshotKind::kFinal)) {
    return Status::DataLoss(
        Sprintf("snapshot %s has unknown kind %u", path.c_str(), kind_raw));
  }
  uint64_t payload_size = header.U64();
  uint64_t checksum = header.U64();
  if (bytes.size() - kHeaderBytes != payload_size) {
    return Status::DataLoss(Sprintf(
        "snapshot %s payload size mismatch: header says %llu bytes, file has %zu",
        path.c_str(), static_cast<unsigned long long>(payload_size),
        bytes.size() - kHeaderBytes));
  }
  std::string_view payload = std::string_view(bytes).substr(kHeaderBytes);
  uint64_t actual = Fnv1a64(payload);
  if (actual != checksum) {
    return Status::DataLoss(Sprintf(
        "snapshot %s checksum mismatch: header %016llx, payload %016llx (corrupt)",
        path.c_str(), static_cast<unsigned long long>(checksum),
        static_cast<unsigned long long>(actual)));
  }
  LoadedSnapshot loaded;
  loaded.kind = static_cast<SnapshotKind>(kind_raw);
  loaded.payload = std::string(payload);
  return loaded;
}

std::vector<std::string> ListJobSnapshotPaths(const std::string& dir,
                                              size_t job_index) {
  std::vector<std::string> paths;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return paths;

  std::string final_path;
  std::vector<std::pair<uint64_t, std::string>> mids;
  const std::string final_name = FinalSnapshotFileName(job_index);
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name == final_name) {
      final_path = entry.path().string();
      continue;
    }
    uint64_t ordinal = 0;
    if (ParseMidOrdinal(name, job_index, &ordinal)) {
      mids.emplace_back(ordinal, entry.path().string());
    }
  }
  std::sort(mids.begin(), mids.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  if (!final_path.empty()) paths.push_back(final_path);
  for (auto& [ordinal, path] : mids) paths.push_back(std::move(path));
  return paths;
}

void PruneMidSnapshots(const std::string& dir, size_t job_index) {
  const std::string final_name = FinalSnapshotFileName(job_index);
  size_t mids = 0;
  std::error_code ec;
  for (const std::string& path : ListJobSnapshotPaths(dir, job_index)) {
    if (std::filesystem::path(path).filename() != final_name &&
        ++mids > kMidSnapshotsKept) {
      std::filesystem::remove(path, ec);
    }
  }
}

void WriteSnapshotIdentity(SnapshotWriter& writer, std::string_view strategy,
                           const CampaignConfig& config) {
  writer.Str(strategy);
  writer.U8(static_cast<uint8_t>(config.flavor));
  writer.U64(config.seed);
  writer.I64(config.budget);
  writer.F64(config.threshold_t);
  writer.F64(config.weights.computation);
  writer.F64(config.weights.network);
  writer.F64(config.weights.storage);
  writer.U8(static_cast<uint8_t>(config.fault_set));
  writer.I64(config.initial_files);
  writer.I64(config.coverage_sample_period);
  writer.I64(config.storage_nodes);
  writer.I64(config.meta_nodes);
  writer.Bool(config.env_faults);
  writer.Bool(config.collect_telemetry);
  writer.F64(config.transition_weight);
}

namespace {

// Per-field identity checks with messages naming the field and both values.
Status IdentityMismatch(const char* field, const std::string& saved,
                        const std::string& current) {
  return Status::FailedPrecondition(
      Sprintf("snapshot was taken by a different campaign: %s was %s, resuming "
              "campaign has %s",
              field, saved.c_str(), current.c_str()));
}

}  // namespace

Status CheckSnapshotIdentity(SnapshotReader& reader, std::string_view strategy,
                             const CampaignConfig& config) {
  std::string saved_strategy = reader.Str();
  uint8_t saved_flavor = reader.U8();
  uint64_t saved_seed = reader.U64();
  int64_t saved_budget = reader.I64();
  double saved_threshold = reader.F64();
  double saved_w_comp = reader.F64();
  double saved_w_net = reader.F64();
  double saved_w_sto = reader.F64();
  uint8_t saved_fault_set = reader.U8();
  int64_t saved_initial_files = reader.I64();
  int64_t saved_sample_period = reader.I64();
  int64_t saved_storage_nodes = reader.I64();
  int64_t saved_meta_nodes = reader.I64();
  bool saved_env_faults = reader.Bool();
  bool saved_telemetry = reader.Bool();
  double saved_transition_weight = reader.F64();
  if (Status status = reader.status(); !status.ok()) return status;

  if (saved_strategy != strategy) {
    return IdentityMismatch("strategy", saved_strategy, std::string(strategy));
  }
  if (saved_flavor != static_cast<uint8_t>(config.flavor)) {
    return IdentityMismatch(
        "flavor", Sprintf("%u", saved_flavor),
        std::string(FlavorName(config.flavor)));
  }
  if (saved_seed != config.seed) {
    return IdentityMismatch("seed",
                            Sprintf("%llu", static_cast<unsigned long long>(saved_seed)),
                            Sprintf("%llu", static_cast<unsigned long long>(config.seed)));
  }
  if (saved_budget != config.budget) {
    return IdentityMismatch(
        "budget", Sprintf("%lld", static_cast<long long>(saved_budget)),
        Sprintf("%lld", static_cast<long long>(config.budget)));
  }
  if (saved_threshold != config.threshold_t) {
    return IdentityMismatch("threshold_t", Sprintf("%g", saved_threshold),
                            Sprintf("%g", config.threshold_t));
  }
  if (saved_w_comp != config.weights.computation ||
      saved_w_net != config.weights.network ||
      saved_w_sto != config.weights.storage) {
    return IdentityMismatch(
        "variance weights",
        Sprintf("(%g, %g, %g)", saved_w_comp, saved_w_net, saved_w_sto),
        Sprintf("(%g, %g, %g)", config.weights.computation, config.weights.network,
                config.weights.storage));
  }
  if (saved_fault_set != static_cast<uint8_t>(config.fault_set)) {
    return IdentityMismatch("fault_set", Sprintf("%u", saved_fault_set),
                            Sprintf("%u", static_cast<unsigned>(config.fault_set)));
  }
  if (saved_initial_files != config.initial_files) {
    return IdentityMismatch(
        "initial_files", Sprintf("%lld", static_cast<long long>(saved_initial_files)),
        Sprintf("%d", config.initial_files));
  }
  if (saved_sample_period != config.coverage_sample_period) {
    return IdentityMismatch(
        "coverage_sample_period",
        Sprintf("%lld", static_cast<long long>(saved_sample_period)),
        Sprintf("%lld", static_cast<long long>(config.coverage_sample_period)));
  }
  if (saved_storage_nodes != config.storage_nodes) {
    return IdentityMismatch(
        "storage_nodes", Sprintf("%lld", static_cast<long long>(saved_storage_nodes)),
        Sprintf("%d", config.storage_nodes));
  }
  if (saved_meta_nodes != config.meta_nodes) {
    return IdentityMismatch(
        "meta_nodes", Sprintf("%lld", static_cast<long long>(saved_meta_nodes)),
        Sprintf("%d", config.meta_nodes));
  }
  if (saved_env_faults != config.env_faults) {
    return IdentityMismatch("env_faults", saved_env_faults ? "true" : "false",
                            config.env_faults ? "true" : "false");
  }
  if (saved_telemetry != config.collect_telemetry) {
    return IdentityMismatch("collect_telemetry", saved_telemetry ? "true" : "false",
                            config.collect_telemetry ? "true" : "false");
  }
  if (saved_transition_weight != config.transition_weight) {
    return IdentityMismatch("transition_weight",
                            Sprintf("%g", saved_transition_weight),
                            Sprintf("%g", config.transition_weight));
  }
  return Status::Ok();
}

namespace {

void SaveFailureReport(SnapshotWriter& writer, const FailureReport& report) {
  writer.U8(static_cast<uint8_t>(report.dimension));
  writer.F64(report.ratio);
  writer.I64(report.confirmed_at);
  SaveOpSeq(writer, report.testcase);
  writer.U64(report.active_faults.size());
  for (const std::string& fault : report.active_faults) writer.Str(fault);
  writer.Bool(report.rebalance_hung);
  writer.Str(report.detail);
}

void RestoreFailureReport(SnapshotReader& reader, FailureReport* report) {
  uint8_t dimension = reader.U8();
  if (dimension > static_cast<uint8_t>(ImbalanceDimension::kCrashRecovery)) {
    reader.Fail(Sprintf("failure report has unknown imbalance dimension %u",
                        dimension));
    return;
  }
  report->dimension = static_cast<ImbalanceDimension>(dimension);
  report->ratio = reader.F64();
  report->confirmed_at = reader.I64();
  RestoreOpSeq(reader, &report->testcase);
  uint64_t fault_count = reader.Count(8);
  report->active_faults.clear();
  report->active_faults.reserve(fault_count);
  for (uint64_t i = 0; i < fault_count && reader.ok(); ++i) {
    report->active_faults.push_back(reader.Str());
  }
  report->rebalance_hung = reader.Bool();
  report->detail = reader.Str();
}

}  // namespace

void SaveFailureReports(SnapshotWriter& writer, const std::vector<FailureReport>& reports) {
  writer.U64(reports.size());
  for (const FailureReport& report : reports) {
    SaveFailureReport(writer, report);
  }
}

void RestoreFailureReports(SnapshotReader& reader, std::vector<FailureReport>* reports) {
  reports->clear();
  reports->resize(reader.Count(32));
  for (size_t i = 0; i < reports->size() && reader.ok(); ++i) {
    RestoreFailureReport(reader, &(*reports)[i]);
  }
}

void SaveCoverageTimeline(SnapshotWriter& writer,
                          const std::vector<std::pair<SimTime, size_t>>& timeline) {
  writer.U64(timeline.size());
  for (const auto& [at, hits] : timeline) {
    writer.I64(at);
    writer.U64(hits);
  }
}

void RestoreCoverageTimeline(SnapshotReader& reader,
                             std::vector<std::pair<SimTime, size_t>>* timeline) {
  uint64_t count = reader.Count(16);
  timeline->clear();
  timeline->reserve(count);
  for (uint64_t i = 0; i < count && reader.ok(); ++i) {
    SimTime at = reader.I64();
    size_t hits = reader.U64();
    timeline->emplace_back(at, hits);
  }
}

void SaveGroundTruthTally(SnapshotWriter& writer, const GroundTruthTally& tally) {
  writer.U64(tally.distinct_failures.size());
  for (const auto& [id, at] : tally.distinct_failures) {
    writer.Str(id);
    writer.I64(at);
  }
  writer.I64(tally.false_positive_reports);
}

void RestoreGroundTruthTally(SnapshotReader& reader, GroundTruthTally* tally) {
  uint64_t count = reader.Count(16);
  tally->distinct_failures.clear();
  for (uint64_t i = 0; i < count && reader.ok(); ++i) {
    std::string id = reader.Str();
    SimTime at = reader.I64();
    tally->distinct_failures[std::move(id)] = at;
  }
  tally->false_positive_reports = static_cast<int>(reader.I64());
}

void SaveCampaignResult(SnapshotWriter& writer, const CampaignResult& result) {
  writer.Str(result.strategy_name);
  writer.U8(static_cast<uint8_t>(result.flavor));
  SaveFailureReports(writer, result.reports);
  writer.U64(result.distinct_failures.size());
  for (const auto& [id, at] : result.distinct_failures) {
    writer.Str(id);
    writer.I64(at);
  }
  writer.I64(result.false_positives);
  writer.U64(result.final_coverage);
  writer.U64(result.transition_pairs.size());
  for (const auto& [from, to] : result.transition_pairs) {
    writer.U8(from);
    writer.U8(to);
  }
  SaveCoverageTimeline(writer, result.coverage_timeline);
  writer.U64(result.total_ops);
  writer.I64(result.testcases);
  writer.I64(result.candidates);
  writer.U64(result.trigger_stats.size());
  for (const auto& [id, stats] : result.trigger_stats) {
    writer.Str(id);
    writer.U64(stats.first);
    writer.I64(stats.second);
  }
  writer.U64(result.telemetry.size());
  for (const CampaignEvent& event : result.telemetry) {
    SaveCampaignEvent(writer, event);
  }
}

Status RestoreCampaignResult(SnapshotReader& reader, CampaignResult* result) {
  result->strategy_name = reader.Str();
  uint8_t flavor = reader.U8();
  if (flavor > static_cast<uint8_t>(Flavor::kGeo)) {
    reader.Fail(Sprintf("campaign result has unknown flavor %u", flavor));
    return reader.status();
  }
  result->flavor = static_cast<Flavor>(flavor);
  RestoreFailureReports(reader, &result->reports);
  uint64_t distinct_count = reader.Count(16);
  result->distinct_failures.clear();
  for (uint64_t i = 0; i < distinct_count && reader.ok(); ++i) {
    std::string id = reader.Str();
    SimTime at = reader.I64();
    result->distinct_failures[std::move(id)] = at;
  }
  result->false_positives = static_cast<int>(reader.I64());
  result->final_coverage = reader.U64();
  // The coverage is the pair list's length.
  uint64_t pair_count = reader.Count(2);
  result->transition_coverage = static_cast<size_t>(pair_count);
  result->transition_pairs.clear();
  result->transition_pairs.reserve(pair_count);
  for (uint64_t i = 0; i < pair_count && reader.ok(); ++i) {
    uint8_t from = reader.U8();
    uint8_t to = reader.U8();
    result->transition_pairs.emplace_back(from, to);
  }
  RestoreCoverageTimeline(reader, &result->coverage_timeline);
  result->total_ops = reader.U64();
  result->testcases = static_cast<int>(reader.I64());
  result->candidates = static_cast<int>(reader.I64());
  uint64_t trigger_count = reader.Count(24);
  result->trigger_stats.clear();
  for (uint64_t i = 0; i < trigger_count && reader.ok(); ++i) {
    std::string id = reader.Str();
    uint64_t satisfied = reader.U64();
    int triggers = static_cast<int>(reader.I64());
    result->trigger_stats[std::move(id)] = {satisfied, triggers};
  }
  uint64_t event_count = reader.Count(32);
  result->telemetry.clear();
  result->telemetry.resize(event_count);
  for (uint64_t i = 0; i < event_count && reader.ok(); ++i) {
    RestoreCampaignEvent(reader, &result->telemetry[i]);
  }
  return reader.status();
}

}  // namespace themis
