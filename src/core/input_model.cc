#include "src/core/input_model.h"

#include <algorithm>
#include <charconv>
#include <cmath>

#include "src/common/bytes.h"
#include "src/common/strings.h"

namespace themis {

void InputModel::SyncFromDfs(const DfsInterface& dfs) {
  // Free space moves with every write, and GenerateSize consumes it — always
  // refresh it so the generated operand stream is independent of how often
  // membership changes.
  free_space_ = dfs.FreeSpaceBytes();
  uint64_t epoch = dfs.MembershipEpoch();
  if (epoch != DfsInterface::kMembershipEpochUnknown &&
      epoch == synced_membership_epoch_) {
    return;  // membership unchanged since the last pull
  }
  list_mn_ = dfs.ListMetaNodes();
  list_s_ = dfs.ListStorageNodes();
  bricks_ = dfs.ListBricks();
  synced_membership_epoch_ = epoch;
}

void InputModel::Reset() {
  files_.clear();
  file_set_.clear();
  dirs_ = {"/"};
  list_mn_.clear();
  list_s_.clear();
  bricks_.clear();
  free_space_ = 0;
  synced_membership_epoch_ = DfsInterface::kMembershipEpochUnknown;
  // name_counter_ keeps growing so names stay unique across resets.
}

void InputModel::Observe(const Operation& op, const OpResult& result) {
  switch (op.kind) {
    case OpKind::kCreate:
      if (result.status.ok()) {
        if (file_set_.insert(op.path).second) {
          files_.push_back(op.path);
        }
      }
      break;
    case OpKind::kDelete:
      if (result.status.ok() || result.status.code() == StatusCode::kNotFound) {
        if (file_set_.erase(op.path) > 0) {
          files_.erase(std::remove(files_.begin(), files_.end(), op.path), files_.end());
        }
      }
      break;
    case OpKind::kRename:
      if (result.status.ok() && file_set_.erase(op.path) > 0) {
        files_.erase(std::remove(files_.begin(), files_.end(), op.path), files_.end());
        if (file_set_.insert(op.path2).second) {
          files_.push_back(op.path2);
        }
      }
      break;
    case OpKind::kMkdir:
      if (result.status.ok()) {
        dirs_.push_back(op.path);
      }
      break;
    case OpKind::kRmdir:
      if (result.status.ok()) {
        dirs_.erase(std::remove(dirs_.begin(), dirs_.end(), op.path), dirs_.end());
        if (dirs_.empty()) {
          dirs_.push_back("/");
        }
      }
      break;
    case OpKind::kAppend:
    case OpKind::kOverwrite:
    case OpKind::kTruncateOverwrite:
      if (result.status.code() == StatusCode::kNotFound && file_set_.erase(op.path) > 0) {
        files_.erase(std::remove(files_.begin(), files_.end(), op.path), files_.end());
      }
      break;
    default:
      break;
  }
}

bool InputModel::HasDir(const std::string& path) const {
  return std::find(dirs_.begin(), dirs_.end(), path) != dirs_.end();
}

bool InputModel::HasMetaNode(NodeId node) const {
  return std::find(list_mn_.begin(), list_mn_.end(), node) != list_mn_.end();
}

bool InputModel::HasStorageNode(NodeId node) const {
  return std::find(list_s_.begin(), list_s_.end(), node) != list_s_.end();
}

bool InputModel::HasBrick(BrickId brick) const {
  return std::find(bricks_.begin(), bricks_.end(), brick) != bricks_.end();
}

std::string InputModel::ExistingFile(Rng& rng) const {
  if (files_.empty()) {
    return Sprintf("/f_missing_%llu", static_cast<unsigned long long>(rng.NextBelow(1000)));
  }
  return files_[rng.PickIndex(files_.size())];
}

std::string InputModel::NameUnderRandomDir(Rng& rng, char prefix, uint64_t number) const {
  const std::string& dir = dirs_[rng.PickIndex(dirs_.size())];
  char digits[20];  // 2^64 has 20 decimal digits
  const size_t digit_count = static_cast<size_t>(
      std::to_chars(digits, digits + sizeof(digits), number).ptr - digits);
  std::string path;
  path.reserve(dir.size() + 2 + digit_count);
  if (dir != "/") {
    path = dir;
  }
  path.push_back('/');
  path.push_back(prefix);
  path.append(digits, digit_count);
  return path;
}

std::string InputModel::NewFileName(Rng& rng) {
  return NameUnderRandomDir(rng, 'f', name_counter_++);
}

std::string InputModel::ExistingDir(Rng& rng) const {
  return dirs_[rng.PickIndex(dirs_.size())];
}

std::string InputModel::NewDirName(Rng& rng) {
  return NameUnderRandomDir(rng, 'd', name_counter_++);
}

std::string InputModel::ProbeDirName(Rng& rng, uint64_t slot) {
  ++name_counter_;
  return NameUnderRandomDir(rng, 'p', slot);
}

NodeId InputModel::RandomMetaNode(Rng& rng) const {
  if (list_mn_.empty()) {
    return kInvalidNode;
  }
  return list_mn_[rng.PickIndex(list_mn_.size())];
}

NodeId InputModel::RandomStorageNode(Rng& rng) const {
  if (list_s_.empty()) {
    return kInvalidNode;
  }
  return list_s_[rng.PickIndex(list_s_.size())];
}

BrickId InputModel::RandomBrick(Rng& rng) const {
  if (bricks_.empty()) {
    return kInvalidBrick;
  }
  return bricks_[rng.PickIndex(bricks_.size())];
}

uint64_t InputModel::GenerateSize(Rng& rng) const {
  // 8% boundary scenarios, per "Themis creates boundary scenarios of the
  // data size": empty files, single bytes, and free-space-sized writes that
  // exercise out-of-space handling.
  if (rng.Chance(0.08)) {
    switch (rng.NextBelow(4)) {
      case 0:
        return 0;
      case 1:
        return 1;
      case 2:
        return free_space_ / 2;
      default:
        return free_space_;
    }
  }
  // Log-uniform between 1 MiB and 16 GiB: the mix of many small files with
  // occasional multi-GiB ones that makes storage load lumpy.
  double lo = std::log(static_cast<double>(kMiB));
  double hi = std::log(static_cast<double>(16 * kGiB));
  return static_cast<uint64_t>(std::exp(lo + rng.NextDouble() * (hi - lo)));
}

namespace {

void SaveStringVec(SnapshotWriter& writer, const std::vector<std::string>& v) {
  writer.U64(v.size());
  for (const std::string& s : v) writer.Str(s);
}

void RestoreStringVec(SnapshotReader& reader, std::vector<std::string>* v) {
  uint64_t count = reader.Count(8);
  v->clear();
  v->reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count && reader.ok(); ++i) {
    v->push_back(reader.Str());
  }
}

void SaveIdVec(SnapshotWriter& writer, const std::vector<uint32_t>& v) {
  writer.U64(v.size());
  for (uint32_t id : v) writer.U32(id);
}

void RestoreIdVec(SnapshotReader& reader, std::vector<uint32_t>* v) {
  uint64_t count = reader.Count(4);
  v->clear();
  v->reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count && reader.ok(); ++i) {
    v->push_back(reader.U32());
  }
}

}  // namespace

void InputModel::SaveState(SnapshotWriter& writer) const {
  SaveStringVec(writer, files_);
  SaveStringVec(writer, dirs_);
  SaveIdVec(writer, list_mn_);
  SaveIdVec(writer, list_s_);
  SaveIdVec(writer, bricks_);
  writer.U64(free_space_);
  writer.U64(name_counter_);
}

Status InputModel::RestoreState(SnapshotReader& reader) {
  RestoreStringVec(reader, &files_);
  RestoreStringVec(reader, &dirs_);
  RestoreIdVec(reader, &list_mn_);
  RestoreIdVec(reader, &list_s_);
  RestoreIdVec(reader, &bricks_);
  free_space_ = reader.U64();
  name_counter_ = reader.U64();
  file_set_.clear();
  file_set_.insert(files_.begin(), files_.end());
  synced_membership_epoch_ = DfsInterface::kMembershipEpochUnknown;
  return reader.status();
}

uint64_t InputModel::GenerateCapacityDelta(Rng& rng) const {
  // Volume expansion/reduction sizes: 10 GiB .. 240 GiB, log-uniform.
  double lo = std::log(static_cast<double>(10 * kGiB));
  double hi = std::log(static_cast<double>(240 * kGiB));
  return static_cast<uint64_t>(std::exp(lo + rng.NextDouble() * (hi - lo)));
}

}  // namespace themis
