// Differential-oracle property test for the interned-path namespace tree.
//
// The oracle is a deliberately naive reference implementation keyed by full
// path strings in a std::map — the representation NamespaceTree used before
// the PathTable refactor. Both implementations execute the same randomized
// operation sequences; after every operation the status codes (and returned
// file ids) must match exactly, and at checkpoints the full observable state
// (file listing, counters, per-path entry metadata) must be EXPECT_EQ-equal.
//
// This pins the tricky interned-tree behaviors the unit tests spot-check:
// deep-subtree renames (edge reparenting vs key rewriting), re-created paths
// reusing interner nodes, and emptiness tracked by live child counts.

#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/dfs/namespace_tree.h"

namespace themis {
namespace {

// Reference model: full-path string keys, semantics copied from the
// pre-refactor std::map implementation.
class RefTree {
 public:
  RefTree() { entries_["/"] = NamespaceEntry{.is_dir = true}; }

  Status MakeDir(const std::string& path) {
    if (path == "/") {
      return Status::AlreadyExists("root always exists");
    }
    if (entries_.count(path) != 0) {
      return Status::AlreadyExists(path);
    }
    if (!ParentIsDir(path)) {
      return Status::NotFound("parent");
    }
    entries_[path] = NamespaceEntry{.is_dir = true};
    return Status::Ok();
  }

  Status RemoveDir(const std::string& path) {
    if (path == "/") {
      return Status::InvalidArgument("cannot remove root");
    }
    auto it = entries_.find(path);
    if (it == entries_.end() || !it->second.is_dir) {
      return Status::NotFound(path);
    }
    if (HasChildren(path)) {
      return Status::FailedPrecondition("directory not empty");
    }
    entries_.erase(it);
    return Status::Ok();
  }

  Result<FileId> CreateFile(const std::string& path) {
    if (path == "/") {
      return Status::InvalidArgument("cannot create file at root path");
    }
    if (entries_.count(path) != 0) {
      return Status::AlreadyExists(path);
    }
    if (!ParentIsDir(path)) {
      return Status::NotFound("parent");
    }
    FileId id = next_file_id_++;
    entries_[path] = NamespaceEntry{.is_dir = false, .file_id = id};
    return id;
  }

  Status RemoveFile(const std::string& path) {
    auto it = entries_.find(path);
    if (it == entries_.end() || it->second.is_dir) {
      return Status::NotFound(path);
    }
    entries_.erase(it);
    return Status::Ok();
  }

  Status Rename(const std::string& from, const std::string& to) {
    if (from == "/" || to == "/") {
      return Status::InvalidArgument("cannot rename root");
    }
    if (from == to) {
      return Status::InvalidArgument("rename onto itself");
    }
    auto src = entries_.find(from);
    if (src == entries_.end()) {
      return Status::NotFound(from);
    }
    if (entries_.count(to) != 0) {
      return Status::AlreadyExists(to);
    }
    if (!ParentIsDir(to)) {
      return Status::NotFound("destination parent");
    }
    if (src->second.is_dir && IsPathPrefix(from, to)) {
      return Status::InvalidArgument("cannot move a directory under itself");
    }
    if (src->second.is_dir) {
      // Rewrite every key under `from` — the O(subtree) cost the interned
      // tree's edge reparenting avoids, but byte-for-byte the same result.
      std::map<std::string, NamespaceEntry> moved;
      for (auto it = entries_.lower_bound(from + "/");
           it != entries_.end() && IsPathPrefix(from, it->first);) {
        moved[to + it->first.substr(from.size())] = it->second;
        it = entries_.erase(it);
      }
      NamespaceEntry entry = src->second;
      entries_.erase(from);
      entries_[to] = entry;
      entries_.insert(moved.begin(), moved.end());
    } else {
      NamespaceEntry entry = src->second;
      entries_.erase(src);
      entries_[to] = entry;
    }
    return Status::Ok();
  }

  const NamespaceEntry* Find(const std::string& path) const {
    auto it = entries_.find(path);
    return it == entries_.end() ? nullptr : &it->second;
  }

  std::vector<std::string> ListFiles() const {
    std::vector<std::string> out;
    for (const auto& [path, entry] : entries_) {
      if (!entry.is_dir) {
        out.push_back(path);
      }
    }
    return out;  // std::map iterates lexicographically already
  }

  size_t file_count() const { return ListFiles().size(); }

  std::string PathOf(FileId id) const {
    for (const auto& [path, entry] : entries_) {
      if (!entry.is_dir && entry.file_id == id) {
        return path;
      }
    }
    return {};
  }

 private:
  static bool IsPathPrefix(const std::string& dir, const std::string& path) {
    return path.size() > dir.size() && path.compare(0, dir.size(), dir) == 0 &&
           path[dir.size()] == '/';
  }

  bool ParentIsDir(const std::string& path) const {
    size_t pos = path.rfind('/');
    std::string parent = pos == 0 ? "/" : path.substr(0, pos);
    auto it = entries_.find(parent);
    return it != entries_.end() && it->second.is_dir;
  }

  bool HasChildren(const std::string& path) const {
    auto it = entries_.upper_bound(path);
    return it != entries_.end() && IsPathPrefix(path, it->first);
  }

  std::map<std::string, NamespaceEntry> entries_;
  FileId next_file_id_ = 1;
};

// Compares every observable surface of the two trees.
void ExpectStateEqual(const NamespaceTree& tree, const RefTree& ref,
                      const std::vector<std::string>& universe) {
  EXPECT_EQ(tree.ListFiles(), ref.ListFiles());
  EXPECT_EQ(tree.file_count(), ref.file_count());
  for (const std::string& path : universe) {
    const NamespaceEntry* a = tree.Find(path);
    const NamespaceEntry* b = ref.Find(path);
    ASSERT_EQ(a != nullptr, b != nullptr) << path;
    if (a != nullptr) {
      EXPECT_EQ(a->is_dir, b->is_dir) << path;
      if (!a->is_dir) {
        EXPECT_EQ(a->file_id, b->file_id) << path;
        EXPECT_EQ(tree.PathOf(a->file_id), ref.PathOf(b->file_id)) << path;
      }
    }
    EXPECT_EQ(tree.IsFile(path), b != nullptr && !b->is_dir) << path;
    EXPECT_EQ(tree.IsDir(path), b != nullptr && b->is_dir) << path;
  }
}

// All paths over `width` component names per level, up to `depth` levels.
std::vector<std::string> BuildUniverse(int width, int depth) {
  std::vector<std::string> out;
  std::vector<std::string> frontier = {""};
  for (int level = 0; level < depth; ++level) {
    std::vector<std::string> next;
    for (const std::string& base : frontier) {
      for (int c = 0; c < width; ++c) {
        std::string path = base + "/" + std::string(1, static_cast<char>('a' + c));
        out.push_back(path);
        next.push_back(path);
      }
    }
    frontier = std::move(next);
  }
  return out;
}

TEST(NamespaceTreeProperty, RandomOpsMatchReferenceModel) {
  const std::vector<std::string> universe = BuildUniverse(3, 4);
  for (uint64_t seed = 0; seed < 8; ++seed) {
    std::mt19937_64 rng(0x7E15C0DE + seed);
    NamespaceTree tree;
    RefTree ref;
    auto pick = [&]() -> const std::string& {
      return universe[rng() % universe.size()];
    };
    for (int step = 0; step < 4000; ++step) {
      switch (rng() % 7) {
        case 0: {
          const std::string& p = pick();
          EXPECT_EQ(tree.MakeDir(p).code(), ref.MakeDir(p).code()) << p;
          break;
        }
        case 1: {
          const std::string& p = pick();
          EXPECT_EQ(tree.RemoveDir(p).code(), ref.RemoveDir(p).code()) << p;
          break;
        }
        case 2: {
          const std::string& p = pick();
          Result<FileId> a = tree.CreateFile(p);
          Result<FileId> b = ref.CreateFile(p);
          EXPECT_EQ(a.status().code(), b.status().code()) << p;
          if (a.ok() && b.ok()) {
            EXPECT_EQ(*a, *b) << p;  // same id allocation order
          }
          break;
        }
        case 3: {
          const std::string& p = pick();
          EXPECT_EQ(tree.RemoveFile(p).code(), ref.RemoveFile(p).code()) << p;
          break;
        }
        case 4: {
          // A lookup: only a file resolves to an id.
          const std::string& p = pick();
          const NamespaceEntry* entry = ref.Find(p);
          EXPECT_EQ(tree.FileIdOf(p).ok(), entry != nullptr && !entry->is_dir) << p;
          break;
        }
        default: {
          const std::string& from = pick();
          const std::string& to = pick();
          EXPECT_EQ(tree.Rename(from, to).code(), ref.Rename(from, to).code())
              << from << " -> " << to;
          break;
        }
      }
      if (step % 500 == 0) {
        ExpectStateEqual(tree, ref, universe);
      }
    }
    ExpectStateEqual(tree, ref, universe);
  }
}

// Deep-subtree rename: the interned tree reparents one edge; the oracle
// rewrites every descendant key. Both must agree byte-for-byte, including
// the file-id mapping, across repeated renames and a rename chain that
// reuses previously vacated names.
TEST(NamespaceTreeProperty, DeepSubtreeRenameMatchesReference) {
  NamespaceTree tree;
  RefTree ref;
  auto both_ok = [&](Status a, Status b) {
    ASSERT_TRUE(a.ok()) << a.message();
    ASSERT_TRUE(b.ok()) << b.message();
  };
  // /r/d0/d1/.../d7 with two files per level.
  std::string dir = "/r";
  both_ok(tree.MakeDir(dir), ref.MakeDir(dir));
  for (int i = 0; i < 8; ++i) {
    dir += "/d" + std::to_string(i);
    both_ok(tree.MakeDir(dir), ref.MakeDir(dir));
    for (int f = 0; f < 2; ++f) {
      std::string file = dir + "/f" + std::to_string(f);
      Result<FileId> a = tree.CreateFile(file);
      Result<FileId> b = ref.CreateFile(file);
      ASSERT_TRUE(a.ok() && b.ok());
      ASSERT_EQ(*a, *b);
    }
  }
  both_ok(tree.MakeDir("/other"), ref.MakeDir("/other"));
  // Move the whole tree under a new parent, twice, then back to a name that
  // was previously occupied.
  EXPECT_EQ(tree.Rename("/r", "/other/r").code(),
            ref.Rename("/r", "/other/r").code());
  EXPECT_EQ(tree.Rename("/other/r/d0", "/d0").code(),
            ref.Rename("/other/r/d0", "/d0").code());
  EXPECT_EQ(tree.Rename("/d0", "/r").code(), ref.Rename("/d0", "/r").code());
  // Illegal: directory under itself.
  EXPECT_EQ(tree.Rename("/r", "/r/d1/x").code(),
            ref.Rename("/r", "/r/d1/x").code());
  EXPECT_EQ(tree.ListFiles(), ref.ListFiles());
  EXPECT_EQ(tree.file_count(), ref.file_count());
  for (const std::string& path : tree.ListFiles()) {
    Result<FileId> id = tree.FileIdOf(path);
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(tree.PathOf(*id), ref.PathOf(*id));
  }
}

// Re-created paths: deleting and re-creating the same names must not leak
// state from the previous incarnation (ids, directory-ness), even
// when a name flips between file and directory.
TEST(NamespaceTreeProperty, RecreatedPathsMatchReference) {
  NamespaceTree tree;
  RefTree ref;
  for (int round = 0; round < 50; ++round) {
    bool as_dir = (round % 2) == 0;
    if (as_dir) {
      EXPECT_EQ(tree.MakeDir("/x").code(), ref.MakeDir("/x").code());
      Result<FileId> a = tree.CreateFile("/x/f");
      Result<FileId> b = ref.CreateFile("/x/f");
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(*a, *b);
      EXPECT_EQ(tree.RemoveDir("/x").code(), ref.RemoveDir("/x").code());
      EXPECT_EQ(tree.RemoveFile("/x/f").code(), ref.RemoveFile("/x/f").code());
      EXPECT_EQ(tree.RemoveDir("/x").code(), ref.RemoveDir("/x").code());
    } else {
      Result<FileId> a = tree.CreateFile("/x");
      Result<FileId> b = ref.CreateFile("/x");
      ASSERT_TRUE(a.ok() && b.ok());
      EXPECT_EQ(*a, *b);
      EXPECT_EQ(tree.RemoveFile("/x").code(), ref.RemoveFile("/x").code());
    }
    EXPECT_EQ(tree.file_count(), ref.file_count());
  }
  EXPECT_EQ(tree.ListFiles(), ref.ListFiles());
}

}  // namespace
}  // namespace themis
