#include "src/dfs/path_table.h"

#include <atomic>

#include "src/common/rng.h"

namespace themis {

namespace {

// Generations are only compared for equality, so a process-global counter
// is enough to make every table (and every Reset) distinct — including a
// new table constructed at a freed table's address.
std::atomic<uint64_t> g_next_generation{1};

constexpr size_t kInitialSlotCapacity = 64;

}  // namespace

PathTable::PathTable() { Reset(); }

void PathTable::Reset() {
  nodes_.clear();
  component_names_.clear();
  names_.assign(kInitialSlotCapacity, Slot{0, kEmptySlot});
  edges_.assign(kInitialSlotCapacity, Slot{0, kEmptySlot});
  nodes_.push_back(Node{kRootPathId, 0xffffffffu});  // the root "/"
  generation_ = g_next_generation.fetch_add(1, std::memory_order_relaxed);
}

void PathTable::InsertSlot(std::vector<Slot>& table, size_t count, Slot slot) {
  if ((count + 1) * 10 >= table.size() * 7) {  // load factor 0.7
    std::vector<Slot> old = std::move(table);
    table.assign(old.size() * 2, Slot{0, kEmptySlot});
    for (const Slot& moved : old) {
      if (moved.value != kEmptySlot) {
        InsertSlot(table, 0, moved);  // the doubled table never grows here
      }
    }
  }
  size_t mask = table.size() - 1;
  size_t i = Mix64(slot.key) & mask;
  while (table[i].value != kEmptySlot) {
    i = (i + 1) & mask;
  }
  table[i] = slot;
}

uint32_t PathTable::FindComponent(std::string_view name, uint64_t key) const {
  size_t mask = names_.size() - 1;
  for (size_t i = Mix64(key) & mask;; i = (i + 1) & mask) {
    const Slot& slot = names_[i];
    if (slot.value == kEmptySlot ||
        (slot.key == key && component_names_[slot.value] == name)) {
      return slot.value;
    }
  }
}

uint32_t PathTable::InternComponent(std::string_view name) {
  const uint64_t key = NameKey(name);
  uint32_t id = FindComponent(name, key);
  if (id != kEmptySlot) {
    return id;
  }
  id = static_cast<uint32_t>(component_names_.size());
  InsertSlot(names_, component_names_.size(), Slot{key, id});
  component_names_.emplace_back(name);
  return id;
}

PathId PathTable::FindChild(PathId parent, uint32_t component) const {
  uint64_t key = EdgeKey(parent, component);
  size_t mask = edges_.size() - 1;
  for (size_t i = Mix64(key) & mask;; i = (i + 1) & mask) {
    const Slot& slot = edges_[i];
    if (slot.value == kEmptySlot || slot.key == key) {
      return slot.value;
    }
  }
}

PathId PathTable::InternChild(PathId parent, uint32_t component) {
  PathId existing = FindChild(parent, component);
  if (existing != kInvalidPathId) {
    return existing;
  }
  // Every node but the root owns exactly one edge.
  PathId id = static_cast<PathId>(nodes_.size());
  InsertSlot(edges_, nodes_.size() - 1, Slot{EdgeKey(parent, component), id});
  nodes_.push_back(Node{parent, component});
  return id;
}

PathId PathTable::Intern(std::string_view path) {
  PathId cur = kRootPathId;
  size_t i = 0;
  const size_t n = path.size();
  while (i < n) {
    while (i < n && path[i] == '/') ++i;
    size_t start = i;
    while (i < n && path[i] != '/') ++i;
    if (i > start) {
      cur = InternChild(cur, InternComponent(path.substr(start, i - start)));
    }
  }
  return cur;
}

PathId PathTable::Lookup(std::string_view path) const {
  PathId cur = kRootPathId;
  size_t i = 0;
  const size_t n = path.size();
  while (i < n) {
    while (i < n && path[i] == '/') ++i;
    size_t start = i;
    while (i < n && path[i] != '/') ++i;
    if (i > start) {
      std::string_view name = path.substr(start, i - start);
      uint32_t component = FindComponent(name, NameKey(name));
      if (component == kEmptySlot) {
        return kInvalidPathId;
      }
      cur = FindChild(cur, component);
      if (cur == kInvalidPathId) {
        return kInvalidPathId;
      }
    }
  }
  return cur;
}

bool PathTable::IsAncestor(PathId ancestor, PathId id) const {
  while (id != kRootPathId) {
    id = nodes_[id].parent;
    if (id == ancestor) {
      return true;
    }
  }
  return false;
}

void PathTable::AppendPath(PathId id, std::string* out) const {
  if (id == kRootPathId) {
    out->push_back('/');
    return;
  }
  // Collect the component chain root-ward, then emit it in path order.
  uint32_t chain[64];
  std::vector<uint32_t> deep;
  size_t depth = 0;
  for (PathId cur = id; cur != kRootPathId; cur = nodes_[cur].parent) {
    if (depth < 64) {
      chain[depth++] = nodes_[cur].component;
    } else {
      deep.push_back(nodes_[cur].component);
    }
  }
  for (size_t i = deep.size(); i > 0; --i) {
    out->push_back('/');
    out->append(component_names_[deep[i - 1]]);
  }
  for (size_t i = depth; i > 0; --i) {
    out->push_back('/');
    out->append(component_names_[chain[i - 1]]);
  }
}

std::string PathTable::PathString(PathId id) const {
  std::string out;
  AppendPath(id, &out);
  return out;
}

}  // namespace themis
