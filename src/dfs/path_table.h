// Interned-path table: the namespace core's name store (DESIGN.md §12).
//
// Every normalized path the system ever touches is interned once into a
// trie of (parent PathId, component id) edges. Component names and edges
// live in two open-addressing flat hashes of the same slot layout.
// Resolving "/d3/f17" costs two name probes and two edge probes — no
// allocation, no O(log n) string compares — and yields a small dense
// integer that all hot-path namespace bookkeeping keys on. Interning a
// fresh name allocates only when a table or the name list grows.
// Ids are append-only within a generation: a path maps to the same PathId
// for the lifetime of the table, so callers may cache resolutions (see
// Operation::PathCache) and validate them with generation() alone. Reset()
// drops every name and starts a new generation, invalidating all caches.

#ifndef SRC_DFS_PATH_TABLE_H_
#define SRC_DFS_PATH_TABLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/dfs/types.h"

namespace themis {

class PathTable {
 public:
  PathTable();

  // Resolves `path` (normalizing exactly like NormalizePath: empty
  // components collapse, leading slash implied), creating any missing
  // nodes. Always succeeds; "" and "/" resolve to kRootPathId.
  PathId Intern(std::string_view path);
  // Resolution without creation: kInvalidPathId if any component of the
  // normalized path was never interned.
  PathId Lookup(std::string_view path) const;
  // Child edge under an already-interned parent (used by subtree moves).
  PathId InternChild(PathId parent, uint32_t component);

  PathId Parent(PathId id) const { return nodes_[id].parent; }
  // Component id of the node's own name (meaningless for the root).
  uint32_t Component(PathId id) const { return nodes_[id].component; }
  const std::string& ComponentName(uint32_t component) const {
    return component_names_[component];
  }
  // True when `ancestor` lies strictly on `id`'s parent chain.
  bool IsAncestor(PathId ancestor, PathId id) const;

  // Materializes the normalized path string ("/" for the root). Appends to
  // `out` without clearing it.
  void AppendPath(PathId id, std::string* out) const;
  std::string PathString(PathId id) const;

  // Number of interned nodes (including the root).
  size_t size() const { return nodes_.size(); }

  // Drops every interned name and starts a fresh generation. All PathIds
  // and cached resolutions minted against the old generation are invalid.
  void Reset();

  // Process-unique token naming the current id space; changes on Reset().
  uint64_t generation() const { return generation_; }

 private:
  struct Node {
    PathId parent;
    uint32_t component;
  };
  // One slot of either open-addressing table (power-of-two capacity, linear
  // probing from Mix64(key)).
  struct Slot {
    uint64_t key;    // edges: (parent << 32) | component; names: name hash
    uint32_t value;  // edges: child PathId; names: component id
  };
  // Marks an empty slot; equal to kInvalidPathId, so a probe that ends on
  // an empty slot returns "not found" in either table.
  static constexpr uint32_t kEmptySlot = kInvalidPathId;

  static uint64_t EdgeKey(PathId parent, uint32_t component) {
    return (static_cast<uint64_t>(parent) << 32) | component;
  }
  static uint64_t NameKey(std::string_view name) {
    return std::hash<std::string_view>{}(name);
  }

  uint32_t InternComponent(std::string_view name);
  // Component id of `name`, or kEmptySlot if it was never interned.
  uint32_t FindComponent(std::string_view name, uint64_t key) const;
  PathId FindChild(PathId parent, uint32_t component) const;
  // Inserts a key known to be absent into `table`, which holds `count`
  // keys, doubling the table first if the insertion would reach load
  // factor 0.7.
  static void InsertSlot(std::vector<Slot>& table, size_t count, Slot slot);

  std::vector<Node> nodes_;                    // index == PathId
  std::vector<std::string> component_names_;   // index == component id
  std::vector<Slot> names_;  // name hash -> component id
  std::vector<Slot> edges_;  // (parent, component) -> child PathId
  uint64_t generation_ = 0;
};

}  // namespace themis

#endif  // SRC_DFS_PATH_TABLE_H_
