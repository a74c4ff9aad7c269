// The cluster-side file namespace: a directory tree mapping normalized paths
// to files (by id) and directories. A file's size is its layout's
// (DfsCluster::file_layouts()), never stored here. This is the authoritative
// namespace; Themis keeps its own black-box model (core/input_model.h) that
// may drift, as it would against a real deployment.
//
// Paths are interned through a PathTable (DESIGN.md §12): entry state lives
// in a dense per-PathId array with intrusive live-children lists, so
// directory emptiness is an O(1) child-count check, subtree renames reparent
// edges instead of rewriting descendant keys, and the hot path (the id
// overloads below) never allocates or compares path strings. The string
// overloads resolve through the interner and remain the API for tests and
// cold paths.

#ifndef SRC_DFS_NAMESPACE_TREE_H_
#define SRC_DFS_NAMESPACE_TREE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/common/snapshot_io.h"
#include "src/common/status.h"
#include "src/dfs/operation.h"
#include "src/dfs/path_table.h"
#include "src/dfs/types.h"

namespace themis {

struct NamespaceEntry {
  bool is_dir = false;
  FileId file_id = 0;  // valid when !is_dir
};

class NamespaceTree {
 public:
  NamespaceTree();

  // Directory operations. Parents must exist; directories must be empty to be
  // removed; the root cannot be removed.
  Status MakeDir(std::string_view path);
  Status RemoveDir(std::string_view path);

  // File operations.
  Result<FileId> CreateFile(std::string_view path);
  Status RemoveFile(std::string_view path);
  // Renames a file or an entire directory subtree. Destination parent must
  // exist and destination must not exist.
  Status Rename(std::string_view from, std::string_view to);

  // Lookup.
  const NamespaceEntry* Find(std::string_view path) const;
  bool IsFile(std::string_view path) const;
  bool IsDir(std::string_view path) const;
  Result<FileId> FileIdOf(std::string_view path) const;

  // ---- id-keyed API (the per-op hot path: resolve once, then integer ops)
  Status MakeDir(PathId id);
  Status RemoveDir(PathId id);
  Result<FileId> CreateFile(PathId id);
  Status RemoveFile(PathId id);
  Status Rename(PathId src, PathId dst);
  const NamespaceEntry* Find(PathId id) const;
  Result<FileId> FileIdOf(PathId id) const;

  // Interns `path` into this tree's table (creating name nodes only — no
  // namespace entries).
  PathId Intern(std::string_view path) {
    PathId id = table_.Intern(path);
    EnsureStates();
    return id;
  }
  const PathTable& table() const { return table_; }

  // Memoized resolution of an operation's path operands: the first call
  // interns and stamps the op's PathCache; later calls (re-executions,
  // double-checks, mutated copies) are a generation compare. The cache
  // auto-invalidates when Clear()/RestoreState() reset the table.
  PathId ResolveOpPath(const Operation& op);
  PathId ResolveOpPath2(const Operation& op);

  size_t file_count() const { return id_to_path_.size(); }

  // Enumerates all file paths in lexicographic order (test / detector
  // helpers; O(n log n)).
  std::vector<std::string> ListFiles() const;

  // Returns the path for a live file id, or empty if unknown.
  std::string PathOf(FileId id) const;

  void Clear();

  // Checkpointing (DESIGN.md §11): live entries in lexicographic path order
  // (the same wire image the std::map representation produced) plus the id
  // allocator; the interner, children lists and id map are rebuilt on
  // restore, which refuses a file id listed twice or one the allocator could
  // not have issued.
  void SaveState(SnapshotWriter& writer) const;
  Status RestoreState(SnapshotReader& reader);

 private:
  // Per-PathId entry state. Children lists are intrusive (head + sibling
  // links) and track *live* entries only; by the parent-must-exist
  // invariant, child_count == 0 is exactly "directory empty".
  struct NodeState {
    NamespaceEntry entry;
    bool present = false;
    PathId first_child = kInvalidPathId;
    PathId next_sibling = kInvalidPathId;
    PathId prev_sibling = kInvalidPathId;
    uint32_t child_count = 0;
  };

  void EnsureStates() {
    if (states_.size() < table_.size()) states_.resize(table_.size());
  }
  const NodeState* StateOf(PathId id) const {
    return id < states_.size() ? &states_[id] : nullptr;
  }
  void LinkChild(PathId id);
  void UnlinkChild(PathId id);
  // Relocates the live entry at `src` (and, for directories, its whole live
  // subtree) onto the name nodes under `dst`.
  void MoveSubtree(PathId src, PathId dst);

  PathTable table_;
  std::vector<NodeState> states_;  // index == PathId; grows with the table
  std::unordered_map<FileId, PathId> id_to_path_;  // one entry per live file
  FileId next_file_id_ = 1;
};

}  // namespace themis

#endif  // SRC_DFS_NAMESPACE_TREE_H_
