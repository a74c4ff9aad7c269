#include "src/dfs/namespace_tree.h"

#include <algorithm>
#include <utility>

#include "src/common/strings.h"

namespace themis {

NamespaceTree::NamespaceTree() { Clear(); }

void NamespaceTree::Clear() {
  // Resetting the table starts a new generation, which invalidates every
  // PathId cached in Operations — and lets the interner's memory be
  // reclaimed instead of accreting names across cluster resets.
  table_.Reset();
  states_.clear();
  id_to_path_.clear();
  next_file_id_ = 1;
  EnsureStates();
  states_[kRootPathId].present = true;
  states_[kRootPathId].entry = NamespaceEntry{.is_dir = true};
}

void NamespaceTree::LinkChild(PathId id) {
  PathId parent = table_.Parent(id);
  NodeState& s = states_[id];
  NodeState& p = states_[parent];
  s.prev_sibling = kInvalidPathId;
  s.next_sibling = p.first_child;
  if (p.first_child != kInvalidPathId) {
    states_[p.first_child].prev_sibling = id;
  }
  p.first_child = id;
  ++p.child_count;
}

void NamespaceTree::UnlinkChild(PathId id) {
  PathId parent = table_.Parent(id);
  NodeState& s = states_[id];
  if (s.prev_sibling != kInvalidPathId) {
    states_[s.prev_sibling].next_sibling = s.next_sibling;
  } else {
    states_[parent].first_child = s.next_sibling;
  }
  if (s.next_sibling != kInvalidPathId) {
    states_[s.next_sibling].prev_sibling = s.prev_sibling;
  }
  s.prev_sibling = kInvalidPathId;
  s.next_sibling = kInvalidPathId;
  --states_[parent].child_count;
}

PathId NamespaceTree::ResolveOpPath(const Operation& op) {
  Operation::PathCache& cache = op.path_cache;
  if (cache.generation != table_.generation()) {
    cache.generation = table_.generation();
    cache.id = kInvalidPathId;
    cache.id2 = kInvalidPathId;
  }
  if (cache.id == kInvalidPathId) {
    cache.id = table_.Intern(op.path);
    EnsureStates();
  }
  return cache.id;
}

PathId NamespaceTree::ResolveOpPath2(const Operation& op) {
  Operation::PathCache& cache = op.path_cache;
  if (cache.generation != table_.generation()) {
    cache.generation = table_.generation();
    cache.id = kInvalidPathId;
    cache.id2 = kInvalidPathId;
  }
  if (cache.id2 == kInvalidPathId) {
    cache.id2 = table_.Intern(op.path2);
    EnsureStates();
  }
  return cache.id2;
}

Status NamespaceTree::MakeDir(PathId id) {
  if (id == kRootPathId) {
    return Status::AlreadyExists("root always exists");
  }
  NodeState& s = states_[id];
  if (s.present) {
    return Status::AlreadyExists(table_.PathString(id));
  }
  PathId parent = table_.Parent(id);
  const NodeState& p = states_[parent];
  if (!p.present || !p.entry.is_dir) {
    return Status::NotFound("parent " + table_.PathString(parent));
  }
  s.present = true;
  s.entry = NamespaceEntry{.is_dir = true};
  LinkChild(id);
  return Status::Ok();
}

Status NamespaceTree::RemoveDir(PathId id) {
  if (id == kRootPathId) {
    return Status::InvalidArgument("cannot remove root");
  }
  NodeState& s = states_[id];
  if (!s.present || !s.entry.is_dir) {
    return Status::NotFound(table_.PathString(id));
  }
  if (s.child_count != 0) {
    return Status::FailedPrecondition("directory not empty: " +
                                      table_.PathString(id));
  }
  UnlinkChild(id);
  s.present = false;
  return Status::Ok();
}

Result<FileId> NamespaceTree::CreateFile(PathId id) {
  if (id == kRootPathId) {
    return Status::InvalidArgument("cannot create file at root path");
  }
  NodeState& s = states_[id];
  if (s.present) {
    return Status::AlreadyExists(table_.PathString(id));
  }
  PathId parent = table_.Parent(id);
  const NodeState& p = states_[parent];
  if (!p.present || !p.entry.is_dir) {
    return Status::NotFound("parent " + table_.PathString(parent));
  }
  FileId file_id = next_file_id_++;
  s.present = true;
  s.entry = NamespaceEntry{.is_dir = false, .file_id = file_id};
  LinkChild(id);
  id_to_path_[file_id] = id;
  return file_id;
}

Status NamespaceTree::RemoveFile(PathId id) {
  NodeState& s = states_[id];
  if (!s.present || s.entry.is_dir) {
    return Status::NotFound(table_.PathString(id));
  }
  id_to_path_.erase(s.entry.file_id);
  UnlinkChild(id);
  s.present = false;
  return Status::Ok();
}

void NamespaceTree::MoveSubtree(PathId src, PathId dst) {
  struct Move {
    PathId from;
    PathId to;
  };
  std::vector<Move> stack;
  stack.push_back(Move{src, dst});
  while (!stack.empty()) {
    Move m = stack.back();
    stack.pop_back();
    // Queue live children first: InternChild may grow the table (and the
    // states_ array), so all state access below goes through fresh indexing.
    if (states_[m.from].entry.is_dir) {
      for (PathId c = states_[m.from].first_child; c != kInvalidPathId;
           c = states_[c].next_sibling) {
        PathId nc = table_.InternChild(m.to, table_.Component(c));
        EnsureStates();
        stack.push_back(Move{c, nc});
      }
    }
    NamespaceEntry entry = states_[m.from].entry;
    UnlinkChild(m.from);
    states_[m.from].present = false;
    states_[m.to].entry = entry;
    states_[m.to].present = true;
    LinkChild(m.to);
    if (!entry.is_dir) {
      id_to_path_[entry.file_id] = m.to;
    }
  }
}

Status NamespaceTree::Rename(PathId src, PathId dst) {
  if (src == kRootPathId || dst == kRootPathId) {
    return Status::InvalidArgument("cannot rename root");
  }
  if (src == dst) {
    return Status::InvalidArgument("rename onto itself");
  }
  if (!states_[src].present) {
    return Status::NotFound(table_.PathString(src));
  }
  if (states_[dst].present) {
    return Status::AlreadyExists(table_.PathString(dst));
  }
  PathId dst_parent = table_.Parent(dst);
  const NodeState& dp = states_[dst_parent];
  if (!dp.present || !dp.entry.is_dir) {
    return Status::NotFound("destination parent " +
                            table_.PathString(dst_parent));
  }
  if (states_[src].entry.is_dir && table_.IsAncestor(src, dst)) {
    // Moving a directory under itself would orphan the subtree.
    return Status::InvalidArgument("cannot move a directory under itself");
  }
  MoveSubtree(src, dst);
  return Status::Ok();
}

const NamespaceEntry* NamespaceTree::Find(PathId id) const {
  const NodeState* s = StateOf(id);
  return (s != nullptr && s->present) ? &s->entry : nullptr;
}

Result<FileId> NamespaceTree::FileIdOf(PathId id) const {
  const NamespaceEntry* e = Find(id);
  if (e == nullptr || e->is_dir) {
    return Status::NotFound(table_.PathString(id));
  }
  return e->file_id;
}

// ---- string-keyed API: resolve through the interner, then delegate ----

Status NamespaceTree::MakeDir(std::string_view path) {
  PathId id = table_.Intern(path);
  EnsureStates();
  return MakeDir(id);
}

Status NamespaceTree::RemoveDir(std::string_view path) {
  PathId id = table_.Intern(path);
  EnsureStates();
  return RemoveDir(id);
}

Result<FileId> NamespaceTree::CreateFile(std::string_view path) {
  PathId id = table_.Intern(path);
  EnsureStates();
  return CreateFile(id);
}

Status NamespaceTree::RemoveFile(std::string_view path) {
  PathId id = table_.Intern(path);
  EnsureStates();
  return RemoveFile(id);
}

Status NamespaceTree::Rename(std::string_view from, std::string_view to) {
  PathId src = table_.Intern(from);
  PathId dst = table_.Intern(to);
  EnsureStates();
  return Rename(src, dst);
}

const NamespaceEntry* NamespaceTree::Find(std::string_view path) const {
  PathId id = table_.Lookup(path);
  return id == kInvalidPathId ? nullptr : Find(id);
}

bool NamespaceTree::IsFile(std::string_view path) const {
  const NamespaceEntry* e = Find(path);
  return e != nullptr && !e->is_dir;
}

bool NamespaceTree::IsDir(std::string_view path) const {
  const NamespaceEntry* e = Find(path);
  return e != nullptr && e->is_dir;
}

Result<FileId> NamespaceTree::FileIdOf(std::string_view path) const {
  const NamespaceEntry* e = Find(path);
  if (e == nullptr || e->is_dir) {
    return Status::NotFound(std::string(path));
  }
  return e->file_id;
}

std::vector<std::string> NamespaceTree::ListFiles() const {
  std::vector<std::string> out;
  out.reserve(file_count());
  for (PathId id = 0; id < states_.size(); ++id) {
    if (states_[id].present && !states_[id].entry.is_dir) {
      out.push_back(table_.PathString(id));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string NamespaceTree::PathOf(FileId id) const {
  auto it = id_to_path_.find(id);
  return it == id_to_path_.end() ? std::string() : table_.PathString(it->second);
}

void NamespaceTree::SaveState(SnapshotWriter& writer) const {
  std::vector<std::pair<std::string, const NamespaceEntry*>> rows;
  for (PathId id = 0; id < states_.size(); ++id) {
    if (states_[id].present) {
      rows.emplace_back(table_.PathString(id), &states_[id].entry);
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  writer.U64(rows.size());
  for (const auto& [path, entry] : rows) {
    writer.Str(path);
    writer.Bool(entry->is_dir);
    writer.U64(entry->file_id);
  }
  writer.U64(next_file_id_);
}

Status NamespaceTree::RestoreState(SnapshotReader& reader) {
  uint64_t count = reader.Count(8 + 1 + 8);
  table_.Reset();
  states_.clear();
  id_to_path_.clear();
  EnsureStates();
  for (uint64_t i = 0; i < count && reader.ok(); ++i) {
    std::string path = reader.Str();
    NamespaceEntry entry;
    entry.is_dir = reader.Bool();
    entry.file_id = reader.U64();
    if (!reader.ok()) break;
    PathId id = table_.Intern(path);
    EnsureStates();
    // The id map is the file count, so a repeated id would shrink it.
    if (!entry.is_dir && !id_to_path_.emplace(entry.file_id, id).second) {
      reader.Fail(Sprintf("namespace lists file id %llu twice",
                          static_cast<unsigned long long>(entry.file_id)));
      break;
    }
    NodeState& s = states_[id];
    bool was_present = s.present;
    s.entry = entry;
    s.present = true;
    if (!was_present && id != kRootPathId) {
      LinkChild(id);
    }
  }
  next_file_id_ = reader.U64();
  if (reader.ok() &&
      (states_.empty() || !states_[kRootPathId].present)) {
    reader.Fail("namespace snapshot has no root directory entry");
  }
  for (const auto& [file, id] : id_to_path_) {
    if (reader.ok() && file >= next_file_id_) {
      reader.Fail(Sprintf("file id %llu at or above the file id counter %llu",
                          static_cast<unsigned long long>(file),
                          static_cast<unsigned long long>(next_file_id_)));
    }
  }
  return reader.status();
}

}  // namespace themis
