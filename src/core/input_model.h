// Themis's black-box model of the system under test (§4.2 "Initial OpSeq
// Generation"): the file tree Tree_files, the node lists list_MN / list_S,
// the brick list, and the free-space estimate used for boundary-scenario
// size generation. The model is maintained from operation results and
// periodic admin-view syncs, like a real tester driving FUSE + admin CLIs;
// it can drift from the cluster's authoritative state, which is fine — stale
// references simply produce error-path test inputs.

#ifndef SRC_CORE_INPUT_MODEL_H_
#define SRC_CORE_INPUT_MODEL_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "src/common/rng.h"
#include "src/dfs/cluster.h"
#include "src/dfs/operation.h"

namespace themis {

class InputModel {
 public:
  InputModel() = default;

  // Pulls the admin views (node/brick lists, free space). Free space is
  // refreshed on every call; the list pulls are skipped while the cluster's
  // membership epoch is unchanged since the last sync (the lists are pure
  // functions of membership, so a stable epoch means stable lists).
  void SyncFromDfs(const DfsInterface& dfs);

  // Updates Tree_files / lists from an executed operation.
  void Observe(const Operation& op, const OpResult& result);

  // Drops all learned state (after a cluster reset).
  void Reset();

  // ---- operand instantiation (category FileName) ----
  // Picks an existing file uniformly, or mints a new name when none exist.
  std::string ExistingFile(Rng& rng) const;
  // A fresh file name under an existing directory.
  std::string NewFileName(Rng& rng);
  // Picks an existing directory (possibly the root).
  std::string ExistingDir(Rng& rng) const;
  std::string NewDirName(Rng& rng);
  // A double-check probe dir, "<dir>/p<slot>" under a random known directory.
  // It makes NewDirName's directory draw and name-counter step, so the names
  // that follow are the same, but reuses the slot's name: the generator
  // never emits the 'p' prefix, so a slot not in use cannot collide.
  std::string ProbeDirName(Rng& rng, uint64_t slot);

  // ---- operand instantiation (category NodeId) ----
  NodeId RandomMetaNode(Rng& rng) const;
  NodeId RandomStorageNode(Rng& rng) const;
  BrickId RandomBrick(Rng& rng) const;

  // ---- operand instantiation (category Size) ----
  // Boundary-scenario size generation: mostly log-uniform, with occasional
  // 0 / 1 / free-space edge cases (§4.2).
  uint64_t GenerateSize(Rng& rng) const;
  // Capacity deltas for volume expand/reduce.
  uint64_t GenerateCapacityDelta(Rng& rng) const;

  // Liveness checks used by the mutator's repair scan.
  bool HasFile(const std::string& path) const { return file_set_.count(path) != 0; }
  bool HasDir(const std::string& path) const;
  bool HasMetaNode(NodeId node) const;
  bool HasStorageNode(NodeId node) const;
  bool HasBrick(BrickId brick) const;

  size_t file_count() const { return files_.size(); }
  size_t dir_count() const { return dirs_.size(); }
  uint64_t free_space() const { return free_space_; }

  // Checkpointing (DESIGN.md §11): every learned list plus the name counter;
  // file_set_ is rebuilt from files_ on restore.
  void SaveState(SnapshotWriter& writer) const;
  Status RestoreState(SnapshotReader& reader);

 private:
  // "<dir>/<prefix><number>" under a random known directory.
  std::string NameUnderRandomDir(Rng& rng, char prefix, uint64_t number) const;

  std::vector<std::string> files_;
  std::unordered_set<std::string> file_set_;  // membership only; files_ keeps order
  std::vector<std::string> dirs_{"/"};
  std::vector<NodeId> list_mn_;
  std::vector<NodeId> list_s_;
  std::vector<BrickId> bricks_;
  uint64_t free_space_ = 0;
  uint64_t name_counter_ = 0;
  // Epoch the lists were last pulled under. Deliberately NOT serialized: a
  // restored campaign faces a fresh cluster whose epoch counter restarts, so
  // a stale value could collide and wrongly skip the first pull.
  uint64_t synced_membership_epoch_ = DfsInterface::kMembershipEpochUnknown;
};

}  // namespace themis

#endif  // SRC_CORE_INPUT_MODEL_H_
