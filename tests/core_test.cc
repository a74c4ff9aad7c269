// Unit tests for the Themis core: operation grammar, input model, generator,
// mutator, seed pool, op sequences.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "src/common/bytes.h"
#include "src/core/generator.h"
#include "src/core/input_model.h"
#include "src/core/mutator.h"
#include "src/core/opseq.h"
#include "src/core/seed_pool.h"
#include "src/dfs/flavors/factory.h"

namespace themis {
namespace {

// ---- operation grammar ----

TEST(Operation, SeventeenOperators) {
  // The paper's specification has t = 17 distinct load-related operators.
  std::set<OpKind> kinds;
  for (int i = 0; i < kOpKindCount; ++i) {
    kinds.insert(OpKindFromIndex(i));
  }
  EXPECT_EQ(kinds.size(), 17u);
}

TEST(Operation, ClassPartition) {
  int file_ops = 0;
  int node_ops = 0;
  int volume_ops = 0;
  int env_ops = 0;
  for (int i = 0; i < kTotalOpKindCount; ++i) {
    switch (ClassOf(OpKindFromTotalIndex(i))) {
      case OpClass::kFile:
        ++file_ops;
        break;
      case OpClass::kNode:
        ++node_ops;
        break;
      case OpClass::kVolume:
        ++volume_ops;
        break;
      case OpClass::kEnvFault:
        ++env_ops;
        break;
    }
  }
  EXPECT_EQ(file_ops, 9);
  EXPECT_EQ(node_ops, 4);
  EXPECT_EQ(volume_ops, 4);
  EXPECT_EQ(env_ops, kEnvFaultKindCount);
}

TEST(Operation, ConfigClassification) {
  EXPECT_FALSE(IsConfigOp(OpKind::kCreate));
  EXPECT_TRUE(IsConfigOp(OpKind::kAddStorageNode));
  EXPECT_TRUE(IsConfigOp(OpKind::kExpandVolume));
}

TEST(Operation, NamesAreUnique) {
  std::set<std::string_view> names;
  for (int i = 0; i < kOpKindCount; ++i) {
    names.insert(OpKindName(OpKindFromIndex(i)));
  }
  EXPECT_EQ(names.size(), 17u);
}

TEST(Operation, ToStringIncludesOperands) {
  Operation op;
  op.kind = OpKind::kCreate;
  op.path = "/f";
  op.size = kGiB;
  std::string text = op.ToString();
  EXPECT_NE(text.find("create"), std::string::npos);
  EXPECT_NE(text.find("/f"), std::string::npos);
  EXPECT_NE(text.find("GiB"), std::string::npos);
}

TEST(OpSeq, ClassQueries) {
  OpSeq seq;
  EXPECT_FALSE(seq.HasRequestOps());
  EXPECT_FALSE(seq.HasConfigOps());
  Operation file;
  file.kind = OpKind::kOpen;
  seq.ops.push_back(file);
  EXPECT_TRUE(seq.HasRequestOps());
  EXPECT_FALSE(seq.HasConfigOps());
  Operation node;
  node.kind = OpKind::kAddStorageNode;
  seq.ops.push_back(node);
  EXPECT_TRUE(seq.HasConfigOps());
}

// ---- input model ----

class InputModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dfs_ = MakeCluster(Flavor::kGluster, 5);
    model_.SyncFromDfs(*dfs_);
  }
  std::unique_ptr<DfsCluster> dfs_;
  InputModel model_;
  Rng rng_{77};
};

TEST_F(InputModelTest, SyncPullsAdminViews) {
  EXPECT_EQ(model_.free_space(), dfs_->FreeSpaceBytes());
  EXPECT_NE(model_.RandomMetaNode(rng_), kInvalidNode);
  EXPECT_NE(model_.RandomStorageNode(rng_), kInvalidNode);
  EXPECT_NE(model_.RandomBrick(rng_), kInvalidBrick);
}

TEST_F(InputModelTest, ObserveTracksFiles) {
  Operation create;
  create.kind = OpKind::kCreate;
  create.path = "/a";
  OpResult ok;
  model_.Observe(create, ok);
  EXPECT_TRUE(model_.HasFile("/a"));
  EXPECT_EQ(model_.file_count(), 1u);

  Operation del;
  del.kind = OpKind::kDelete;
  del.path = "/a";
  model_.Observe(del, ok);
  EXPECT_FALSE(model_.HasFile("/a"));
}

TEST_F(InputModelTest, ObserveTracksRenames) {
  OpResult ok;
  Operation create;
  create.kind = OpKind::kCreate;
  create.path = "/a";
  model_.Observe(create, ok);
  Operation rename;
  rename.kind = OpKind::kRename;
  rename.path = "/a";
  rename.path2 = "/b";
  model_.Observe(rename, ok);
  EXPECT_FALSE(model_.HasFile("/a"));
  EXPECT_TRUE(model_.HasFile("/b"));
}

TEST_F(InputModelTest, FailedCreateNotRecorded) {
  Operation create;
  create.kind = OpKind::kCreate;
  create.path = "/a";
  OpResult failed;
  failed.status = Status::OutOfSpace("full");
  model_.Observe(create, failed);
  EXPECT_FALSE(model_.HasFile("/a"));
}

TEST_F(InputModelTest, StaleReferencePrunedOnNotFound) {
  OpResult ok;
  Operation create;
  create.kind = OpKind::kCreate;
  create.path = "/a";
  model_.Observe(create, ok);
  Operation append;
  append.kind = OpKind::kAppend;
  append.path = "/a";
  OpResult missing;
  missing.status = Status::NotFound("/a");
  model_.Observe(append, missing);
  EXPECT_FALSE(model_.HasFile("/a"));
}

TEST_F(InputModelTest, NewNamesAreUnique) {
  std::set<std::string> names;
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(names.insert(model_.NewFileName(rng_)).second);
  }
}

TEST_F(InputModelTest, DirsTracked) {
  OpResult ok;
  Operation mkdir;
  mkdir.kind = OpKind::kMkdir;
  mkdir.path = "/d";
  model_.Observe(mkdir, ok);
  EXPECT_TRUE(model_.HasDir("/d"));
  Operation rmdir;
  rmdir.kind = OpKind::kRmdir;
  rmdir.path = "/d";
  model_.Observe(rmdir, ok);
  EXPECT_FALSE(model_.HasDir("/d"));
  EXPECT_TRUE(model_.HasDir("/"));  // root survives
}

TEST_F(InputModelTest, SizesWithinBounds) {
  for (int i = 0; i < 2000; ++i) {
    uint64_t size = model_.GenerateSize(rng_);
    EXPECT_LE(size, model_.free_space());
  }
}

TEST_F(InputModelTest, SizesIncludeBoundaries) {
  bool saw_zero = false;
  bool saw_large = false;
  for (int i = 0; i < 3000; ++i) {
    uint64_t size = model_.GenerateSize(rng_);
    saw_zero |= size == 0;
    saw_large |= size >= model_.free_space() / 2;
  }
  EXPECT_TRUE(saw_zero);
  EXPECT_TRUE(saw_large);
}

TEST_F(InputModelTest, ResetClears) {
  OpResult ok;
  Operation create;
  create.kind = OpKind::kCreate;
  create.path = "/a";
  model_.Observe(create, ok);
  model_.Reset();
  EXPECT_EQ(model_.file_count(), 0u);
  EXPECT_EQ(model_.RandomStorageNode(rng_), kInvalidNode);
}

// ---- generator ----

TEST(Generator, LengthWithinMax) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kHdfs, 6);
  InputModel model;
  model.SyncFromDfs(*dfs);
  OpSeqGenerator generator(model);
  Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    OpSeq seq = generator.Generate(rng);
    EXPECT_GE(seq.size(), 1u);
    EXPECT_LE(seq.size(), static_cast<size_t>(kMaxOpSeqLen));
  }
  EXPECT_EQ(generator.Generate(rng, 3).size(), 3u);
}

TEST(Generator, AllOperatorsReachable) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kHdfs, 6);
  InputModel model;
  model.SyncFromDfs(*dfs);
  OpSeqGenerator generator(model);
  Rng rng(6);
  std::set<OpKind> seen;
  for (int i = 0; i < 2000; ++i) {
    seen.insert(generator.GenerateOp(rng).kind);
  }
  EXPECT_EQ(seen.size(), 17u) << "uniform 1/t operator choice must reach all 17";
}

TEST(Generator, ClassConstrainedGeneration) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kHdfs, 6);
  InputModel model;
  model.SyncFromDfs(*dfs);
  OpSeqGenerator generator(model);
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(ClassOf(generator.GenerateOpOfClass(OpClass::kFile, rng).kind),
              OpClass::kFile);
    EXPECT_EQ(ClassOf(generator.GenerateOpOfClass(OpClass::kNode, rng).kind),
              OpClass::kNode);
    EXPECT_EQ(ClassOf(generator.GenerateOpOfClass(OpClass::kVolume, rng).kind),
              OpClass::kVolume);
  }
}

TEST(Generator, OperandsInstantiatedPerKind) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kHdfs, 6);
  InputModel model;
  model.SyncFromDfs(*dfs);
  OpSeqGenerator generator(model);
  Rng rng(8);
  Operation create = generator.GenerateOpOfKind(OpKind::kCreate, rng);
  EXPECT_FALSE(create.path.empty());
  Operation rename = generator.GenerateOpOfKind(OpKind::kRename, rng);
  EXPECT_FALSE(rename.path2.empty());
  Operation remove_node = generator.GenerateOpOfKind(OpKind::kRemoveStorageNode, rng);
  EXPECT_NE(remove_node.node, kInvalidNode);
  Operation expand = generator.GenerateOpOfKind(OpKind::kExpandVolume, rng);
  EXPECT_NE(expand.brick, kInvalidBrick);
  EXPECT_GT(expand.size, 0u);
}

// ---- mutator ----

class MutatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dfs_ = MakeCluster(Flavor::kGluster, 9);
    model_.SyncFromDfs(*dfs_);
    generator_ = std::make_unique<OpSeqGenerator>(model_);
    mutator_ = std::make_unique<OpSeqMutator>(model_, *generator_);
  }
  std::unique_ptr<DfsCluster> dfs_;
  InputModel model_;
  std::unique_ptr<OpSeqGenerator> generator_;
  std::unique_ptr<OpSeqMutator> mutator_;
  Rng rng_{10};
};

TEST_F(MutatorTest, StaysWithinLengthBounds) {
  OpSeq seed = generator_->Generate(rng_, kMaxOpSeqLen);
  for (int i = 0; i < 500; ++i) {
    OpSeq child = mutator_->Mutate(seed, rng_);
    EXPECT_GE(child.size(), 1u);
    EXPECT_LE(child.size(), static_cast<size_t>(kMaxOpSeqLen));
    seed = child;
  }
}

TEST_F(MutatorTest, EmptySeedRegenerates) {
  OpSeq child = mutator_->Mutate(OpSeq{}, rng_);
  EXPECT_GE(child.size(), 1u);
}

TEST_F(MutatorTest, LightMutationChangesLittle) {
  OpSeq seed = generator_->Generate(rng_, kMaxOpSeqLen);
  int identical_ops = 0;
  const int kTrials = 200;
  for (int i = 0; i < kTrials; ++i) {
    OpSeq child = mutator_->MutateLight(seed, rng_);
    // A light mutation touches exactly one position (insert/delete/replace),
    // so at least size-1 positions survive when lengths match.
    if (child.size() == seed.size()) {
      int same = 0;
      for (size_t j = 0; j < child.size(); ++j) {
        if (child.ops[j].kind == seed.ops[j].kind) {
          ++same;
        }
      }
      EXPECT_GE(same, static_cast<int>(seed.size()) - 1);
      identical_ops += same;
    }
  }
  EXPECT_GT(identical_ops, 0);
}

TEST_F(MutatorTest, RepairRebindsStaleFileReferences) {
  OpResult ok;
  Operation create;
  create.kind = OpKind::kCreate;
  create.path = "/live";
  model_.Observe(create, ok);

  OpSeq seq;
  Operation append;
  append.kind = OpKind::kAppend;
  append.path = "/ghost";  // not in the model
  seq.ops.push_back(append);
  int rebound = 0;
  for (int i = 0; i < 100; ++i) {
    OpSeq copy = seq;
    mutator_->Repair(copy, rng_);
    if (copy.ops[0].path != "/ghost") {
      ++rebound;
      EXPECT_EQ(copy.ops[0].path, "/live");
    }
  }
  EXPECT_GT(rebound, 70);  // rebinds with probability 0.9
}

TEST_F(MutatorTest, RepairKeepsLiveReferences) {
  OpResult ok;
  Operation create;
  create.kind = OpKind::kCreate;
  create.path = "/live";
  model_.Observe(create, ok);
  OpSeq seq;
  Operation append;
  append.kind = OpKind::kAppend;
  append.path = "/live";
  seq.ops.push_back(append);
  for (int i = 0; i < 50; ++i) {
    mutator_->Repair(seq, rng_);
    EXPECT_EQ(seq.ops[0].path, "/live") << "live operands must stay targeted";
  }
}

TEST_F(MutatorTest, RepairRebindsStaleNodeAndBrick) {
  OpSeq seq;
  Operation remove;
  remove.kind = OpKind::kRemoveStorageNode;
  remove.node = 9999;
  seq.ops.push_back(remove);
  Operation expand;
  expand.kind = OpKind::kExpandVolume;
  expand.brick = 9999;
  seq.ops.push_back(expand);
  mutator_->Repair(seq, rng_);
  EXPECT_NE(seq.ops[0].node, 9999u);
  EXPECT_NE(seq.ops[1].brick, 9999u);
}

// ---- seed pool ----

TEST(SeedPool, SelectFromEmptyReturnsEmptySeq) {
  SeedPool pool;
  Rng rng(1);
  EXPECT_TRUE(pool.Select(rng).empty());
}

TEST(SeedPool, PrefersHighScores) {
  SeedPool pool(16);
  Rng rng(2);
  OpSeq low;
  low.ops.resize(1);
  low.ops[0].kind = OpKind::kOpen;
  OpSeq high;
  high.ops.resize(2);
  high.ops[0].kind = OpKind::kCreate;
  high.ops[1].kind = OpKind::kAppend;
  pool.Add(low, 0.01);
  pool.Add(high, 2.0);
  int high_picks = 0;
  for (int i = 0; i < 500; ++i) {
    if (pool.Select(rng).size() == 2) {
      ++high_picks;
    }
  }
  EXPECT_GT(high_picks, 300);
}

TEST(SeedPool, EvictsLowestWhenFull) {
  SeedPool pool(4);
  Rng rng(3);
  for (int i = 0; i < 4; ++i) {
    OpSeq seq;
    seq.ops.resize(1);
    pool.Add(seq, 1.0 + i);
  }
  EXPECT_EQ(pool.size(), 4u);
  OpSeq better;
  better.ops.resize(2);
  pool.Add(better, 10.0);
  EXPECT_EQ(pool.size(), 4u);
  EXPECT_DOUBLE_EQ(pool.best_score(), 10.0);
  // A worse-than-everything seed is rejected outright.
  OpSeq worse;
  worse.ops.resize(3);
  pool.Add(worse, 0.5);
  EXPECT_EQ(pool.size(), 4u);
  bool found_worse = false;
  for (int i = 0; i < 200; ++i) {
    if (pool.Select(rng).size() == 3) {
      found_worse = true;
    }
  }
  EXPECT_FALSE(found_worse);
}

}  // namespace
}  // namespace themis
