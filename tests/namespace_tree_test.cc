// Unit tests for the cluster-side namespace tree and its path table.

#include <gtest/gtest.h>

#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/rng.h"
#include "src/common/snapshot_io.h"
#include "src/common/strings.h"
#include "src/dfs/namespace_tree.h"
#include "src/dfs/path_table.h"

namespace themis {
namespace {

TEST(NamespaceTree, RootExists) {
  NamespaceTree tree;
  EXPECT_TRUE(tree.IsDir("/"));
  EXPECT_EQ(tree.file_count(), 0u);
}

TEST(NamespaceTree, CreateAndFindFile) {
  NamespaceTree tree;
  Result<FileId> id = tree.CreateFile("/a");
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(tree.IsFile("/a"));
  EXPECT_FALSE(tree.IsDir("/a"));
  EXPECT_EQ(tree.PathOf(*id), "/a");
}

TEST(NamespaceTree, CreateRequiresParent) {
  NamespaceTree tree;
  EXPECT_EQ(tree.CreateFile("/no/such/dir/f").status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(tree.MakeDir("/d").ok());
  EXPECT_TRUE(tree.CreateFile("/d/f").ok());
}

TEST(NamespaceTree, CreateDuplicateFails) {
  NamespaceTree tree;
  ASSERT_TRUE(tree.CreateFile("/a").ok());
  EXPECT_EQ(tree.CreateFile("/a").status().code(), StatusCode::kAlreadyExists);
}

TEST(NamespaceTree, FileIdsAreUnique) {
  NamespaceTree tree;
  FileId a = *tree.CreateFile("/a");
  FileId b = *tree.CreateFile("/b");
  EXPECT_NE(a, b);
}

TEST(NamespaceTree, RemoveFileUpdatesAccounting) {
  NamespaceTree tree;
  FileId id = *tree.CreateFile("/a");
  ASSERT_TRUE(tree.RemoveFile("/a").ok());
  EXPECT_EQ(tree.file_count(), 0u);
  EXPECT_EQ(tree.PathOf(id), "");
  EXPECT_EQ(tree.RemoveFile("/a").code(), StatusCode::kNotFound);
}

TEST(NamespaceTree, MkdirAndRmdir) {
  NamespaceTree tree;
  ASSERT_TRUE(tree.MakeDir("/d").ok());
  EXPECT_TRUE(tree.IsDir("/d"));
  EXPECT_EQ(tree.MakeDir("/d").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(tree.MakeDir("/x/y").code(), StatusCode::kNotFound);
  ASSERT_TRUE(tree.RemoveDir("/d").ok());
  EXPECT_FALSE(tree.IsDir("/d"));
}

TEST(NamespaceTree, RmdirRefusesNonEmpty) {
  NamespaceTree tree;
  ASSERT_TRUE(tree.MakeDir("/d").ok());
  ASSERT_TRUE(tree.CreateFile("/d/f").ok());
  EXPECT_EQ(tree.RemoveDir("/d").code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(tree.RemoveFile("/d/f").ok());
  EXPECT_TRUE(tree.RemoveDir("/d").ok());
}

TEST(NamespaceTree, RootIsProtected) {
  NamespaceTree tree;
  EXPECT_FALSE(tree.RemoveDir("/").ok());
  EXPECT_FALSE(tree.CreateFile("/").ok());
  EXPECT_FALSE(tree.Rename("/", "/x").ok());
}

TEST(NamespaceTree, RenameFile) {
  NamespaceTree tree;
  FileId id = *tree.CreateFile("/a");
  ASSERT_TRUE(tree.Rename("/a", "/b").ok());
  EXPECT_FALSE(tree.IsFile("/a"));
  EXPECT_TRUE(tree.IsFile("/b"));
  EXPECT_EQ(tree.PathOf(id), "/b");
  EXPECT_EQ(*tree.FileIdOf("/b"), id);
}

TEST(NamespaceTree, RenameRejectsCollisionsAndMissing) {
  NamespaceTree tree;
  ASSERT_TRUE(tree.CreateFile("/a").ok());
  ASSERT_TRUE(tree.CreateFile("/b").ok());
  EXPECT_EQ(tree.Rename("/a", "/b").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(tree.Rename("/missing", "/c").code(), StatusCode::kNotFound);
  EXPECT_EQ(tree.Rename("/a", "/a").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(tree.Rename("/a", "/nodir/c").code(), StatusCode::kNotFound);
}

TEST(NamespaceTree, RenameDirectoryMovesSubtree) {
  NamespaceTree tree;
  ASSERT_TRUE(tree.MakeDir("/d").ok());
  ASSERT_TRUE(tree.MakeDir("/d/sub").ok());
  FileId f1 = *tree.CreateFile("/d/f1");
  FileId f2 = *tree.CreateFile("/d/sub/f2");
  ASSERT_TRUE(tree.Rename("/d", "/e").ok());
  EXPECT_TRUE(tree.IsDir("/e"));
  EXPECT_TRUE(tree.IsDir("/e/sub"));
  EXPECT_EQ(tree.PathOf(f1), "/e/f1");
  EXPECT_EQ(tree.PathOf(f2), "/e/sub/f2");
  EXPECT_FALSE(tree.IsDir("/d"));
}

TEST(NamespaceTree, RenameDirectoryUnderItselfRejected) {
  NamespaceTree tree;
  ASSERT_TRUE(tree.MakeDir("/d").ok());
  EXPECT_EQ(tree.Rename("/d", "/d/inner").code(), StatusCode::kInvalidArgument);
}

TEST(NamespaceTree, ListFiles) {
  NamespaceTree tree;
  ASSERT_TRUE(tree.CreateFile("/b").ok());
  ASSERT_TRUE(tree.CreateFile("/a").ok());
  ASSERT_TRUE(tree.MakeDir("/d").ok());
  std::vector<std::string> files = tree.ListFiles();
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0], "/a");  // sorted map order
  EXPECT_EQ(files[1], "/b");
}

TEST(NamespaceTree, ClearResets) {
  NamespaceTree tree;
  ASSERT_TRUE(tree.CreateFile("/a").ok());
  tree.Clear();
  EXPECT_EQ(tree.file_count(), 0u);
  EXPECT_TRUE(tree.IsDir("/"));
}

// The record holds names and file ids only: a restored tree saves the same
// bytes, and keeps issuing ids where the saved one left off.
TEST(NamespaceTree, SaveRestoreSaveIsByteStable) {
  NamespaceTree tree;
  ASSERT_TRUE(tree.MakeDir("/d").ok());
  ASSERT_TRUE(tree.MakeDir("/d/sub").ok());
  ASSERT_TRUE(tree.CreateFile("/d/f1").ok());
  ASSERT_TRUE(tree.CreateFile("/d/sub/f2").ok());
  ASSERT_TRUE(tree.CreateFile("/g").ok());
  ASSERT_TRUE(tree.RemoveFile("/g").ok());
  ASSERT_TRUE(tree.Rename("/d", "/e").ok());
  SnapshotWriter first;
  tree.SaveState(first);

  NamespaceTree restored;
  SnapshotReader reader(first.buffer());
  ASSERT_TRUE(restored.RestoreState(reader).ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(restored.file_count(), 2u);
  EXPECT_EQ(restored.ListFiles(), tree.ListFiles());
  EXPECT_EQ(restored.PathOf(*tree.FileIdOf("/e/sub/f2")), "/e/sub/f2");
  SnapshotWriter second;
  restored.SaveState(second);
  EXPECT_EQ(first.buffer(), second.buffer());
  EXPECT_EQ(*restored.CreateFile("/h"), *tree.CreateFile("/h"));
}

TEST(NamespaceTree, PathsAreNormalized) {
  NamespaceTree tree;
  ASSERT_TRUE(tree.CreateFile("//a//").ok());
  EXPECT_TRUE(tree.IsFile("/a"));
  EXPECT_TRUE(tree.IsFile("a"));
}

TEST(NamespaceTree, SimilarPrefixIsNotAChild) {
  // "/dir2" must not count as a child of "/dir" during rmdir.
  NamespaceTree tree;
  ASSERT_TRUE(tree.MakeDir("/dir").ok());
  ASSERT_TRUE(tree.MakeDir("/dir2").ok());
  EXPECT_TRUE(tree.RemoveDir("/dir").ok());
  EXPECT_TRUE(tree.IsDir("/dir2"));
}

// The open-addressing name and edge tables against std::unordered_map
// references: a few thousand random paths, repeated and fresh names mixed,
// grow both tables through several doublings, then a Reset() starts over.
// Component ids and PathIds must come out in first-intern order, and Lookup
// must find exactly the interned paths.
TEST(PathTable, IdsMatchAnUnorderedMapReferenceAcrossGrowthAndReset) {
  PathTable table;
  Rng rng(2024);
  std::vector<std::string> previous;
  for (int generation = 0; generation < 2; ++generation) {
    for (const std::string& path : previous) {
      ASSERT_EQ(table.Lookup(path), kInvalidPathId) << path << " survived Reset()";
    }
    std::unordered_map<std::string, uint32_t> components;
    std::unordered_map<std::string, PathId> paths = {{"/", kRootPathId}};
    for (int i = 0; i < 3000; ++i) {
      std::string path;
      const int depth = 1 + static_cast<int>(rng.NextBelow(3));
      for (int d = 0; d < depth; ++d) {
        // Half the names repeat from a small pool, half are fresh.
        const std::string name =
            rng.Chance(0.5) ? Sprintf("n%llu", static_cast<unsigned long long>(rng.NextBelow(50)))
                            : Sprintf("g%d_%d_%d", generation, i, d);
        path += '/';
        path += name;
        components.try_emplace(name, static_cast<uint32_t>(components.size()));
        paths.try_emplace(path, static_cast<PathId>(paths.size()));
        const PathId id = table.Intern(path);
        ASSERT_EQ(id, paths.at(path)) << path;
        ASSERT_EQ(table.Component(id), components.at(name)) << path;
        ASSERT_EQ(table.ComponentName(table.Component(id)), name);
      }
    }
    ASSERT_EQ(table.size(), paths.size());
    for (const auto& [path, id] : paths) {
      ASSERT_EQ(table.Lookup(path), id) << path;
      ASSERT_EQ(table.PathString(id), path);
    }
    // Known names in combinations never interned, and names never seen.
    for (int i = 0; i < 3000; ++i) {
      const unsigned long long parent = rng.NextBelow(50);
      const unsigned long long child = rng.NextBelow(50);
      const std::string path = Sprintf("/n%llu/n%llu", parent, child);
      ASSERT_EQ(table.Lookup(path), paths.count(path) != 0 ? paths.at(path) : kInvalidPathId)
          << path;
    }
    EXPECT_EQ(table.Lookup("/never-interned"), kInvalidPathId);
    previous.clear();
    for (const auto& [path, id] : paths) {
      if (id != kRootPathId) previous.push_back(path);
    }
    table.Reset();
    ASSERT_EQ(table.size(), 1u);
  }
}

}  // namespace
}  // namespace themis
