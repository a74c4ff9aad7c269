// Tests for the fault registries and the runtime injector.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <set>

#include "src/common/bytes.h"
#include "src/common/snapshot_io.h"
#include "src/core/executor.h"
#include "src/core/generator.h"
#include "src/dfs/flavors/factory.h"
#include "src/faults/fault_registry.h"
#include "src/faults/historical_corpus.h"
#include "src/faults/injector.h"
#include "src/monitor/states_monitor.h"

namespace themis {
namespace {

// ---- registries ----

TEST(FaultRegistry, PaperBugsPlusGeoExtensions) {
  // The paper's ten Table 2 bugs, plus the two GeoFS registry bugs
  // (DESIGN.md §15) — additive, so the four paper platforms keep exactly
  // their Table 2 counts.
  std::vector<FaultSpec> bugs = NewBugRegistry();
  ASSERT_EQ(bugs.size(), 12u);
  std::map<Flavor, int> per_platform;
  for (const FaultSpec& spec : bugs) {
    ++per_platform[spec.platform];
    EXPECT_FALSE(spec.environment_gated);
    EXPECT_FALSE(spec.id.empty());
    EXPECT_FALSE(spec.description.empty());
  }
  EXPECT_EQ(per_platform[Flavor::kGluster], 4);
  EXPECT_EQ(per_platform[Flavor::kLeo], 3);
  EXPECT_EQ(per_platform[Flavor::kCeph], 1);
  EXPECT_EQ(per_platform[Flavor::kHdfs], 2);
  EXPECT_EQ(per_platform[Flavor::kGeo], 2);
}

TEST(FaultRegistry, IdsAreUnique) {
  std::set<std::string> ids;
  for (const FaultSpec& spec : NewBugRegistry()) {
    EXPECT_TRUE(ids.insert(spec.id).second);
  }
}

TEST(FaultRegistry, FindNewBug) {
  EXPECT_NE(FindNewBug("Bug#S24387"), nullptr);
  EXPECT_EQ(FindNewBug("Bug#S24387")->platform, Flavor::kGluster);
  EXPECT_EQ(FindNewBug("no-such-bug"), nullptr);
}

TEST(FaultRegistry, MostBugsNeedBothInputSpaces) {
  // Finding 4: the majority of failures need requests + configuration.
  int both = 0;
  for (const FaultSpec& spec : NewBugRegistry()) {
    if (spec.trigger.needs_requests &&
        (spec.trigger.needs_node_ops || spec.trigger.needs_volume_ops)) {
      ++both;
    }
  }
  EXPECT_GE(both, 7);
}

TEST(FaultRegistry, NewBugsForFiltersByPlatform) {
  for (const FaultSpec& spec : NewBugsFor(Flavor::kLeo)) {
    EXPECT_EQ(spec.platform, Flavor::kLeo);
  }
  EXPECT_EQ(NewBugsFor(Flavor::kLeo).size(), 3u);
}

TEST(HistoricalCorpus, FiftyThreeFaults) {
  std::vector<FaultSpec> corpus = HistoricalFaultCorpus();
  ASSERT_EQ(corpus.size(), 53u);
  int gated = 0;
  std::map<Flavor, int> per_platform;
  for (const FaultSpec& spec : corpus) {
    gated += spec.environment_gated ? 1 : 0;
    ++per_platform[spec.platform];
    // Finding 3: disparity of at least 30%.
    if (spec.effect != EffectKind::kCrashNode) {
      EXPECT_GE(spec.severity, 0.30);
    }
  }
  EXPECT_EQ(gated, 5);
  EXPECT_EQ(per_platform[Flavor::kHdfs], 18);
  EXPECT_EQ(per_platform[Flavor::kCeph], 16);
  EXPECT_EQ(per_platform[Flavor::kGluster], 12);
  EXPECT_EQ(per_platform[Flavor::kLeo], 7);
}

TEST(HistoricalCorpus, ConversionIsDeterministic) {
  const StudyRecord& record = StudyCorpus().front();
  FaultSpec a = FaultFromStudyRecord(record);
  FaultSpec b = FaultFromStudyRecord(record);
  EXPECT_EQ(a.severity, b.severity);
  EXPECT_EQ(a.trigger.required_kinds, b.trigger.required_kinds);
  EXPECT_EQ(a.effect, b.effect);
}

TEST(HistoricalCorpus, TriggerInputsRespectStudyAnnotations) {
  for (const StudyRecord& record : StudyCorpus()) {
    FaultSpec spec = FaultFromStudyRecord(record);
    switch (record.inputs) {
      case TriggerInputs::kRequestsOnly:
        EXPECT_TRUE(spec.trigger.needs_requests);
        EXPECT_FALSE(spec.trigger.needs_node_ops || spec.trigger.needs_volume_ops);
        break;
      case TriggerInputs::kConfigsOnly:
        EXPECT_FALSE(spec.trigger.needs_requests);
        EXPECT_TRUE(spec.trigger.needs_node_ops || spec.trigger.needs_volume_ops);
        break;
      case TriggerInputs::kBoth:
        EXPECT_TRUE(spec.trigger.needs_requests);
        EXPECT_TRUE(spec.trigger.needs_node_ops || spec.trigger.needs_volume_ops);
        break;
    }
  }
}

TEST(HistoricalCorpus, DeepFailuresHaveAccumulationRequirements) {
  for (const StudyRecord& record : StudyCorpus()) {
    FaultSpec spec = FaultFromStudyRecord(record);
    if (record.steps >= 6) {
      EXPECT_GE(spec.trigger.min_rebalance_rounds, 2) << record.id;
      EXPECT_GT(spec.trigger.min_variance, 0.0) << record.id;
      EXPECT_TRUE(spec.trigger.needs_accumulation) << record.id;
    }
  }
}

// ---- injector runtime ----

// A spec that fires as soon as any create lands (probability 1).
FaultSpec InstantSpec(Flavor flavor, EffectKind effect, double severity = 0.5) {
  FaultSpec spec;
  spec.id = "test-fault";
  spec.platform = flavor;
  spec.effect = effect;
  spec.severity = severity;
  spec.trigger.window = 8;
  spec.trigger.min_window_ops = 1;
  spec.trigger.probability = 1.0;
  return spec;
}

Operation Create(const std::string& path, uint64_t size) {
  Operation op;
  op.kind = OpKind::kCreate;
  op.path = path;
  op.size = size;
  return op;
}

TEST(Injector, TriggersAndRecordsGroundTruth) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kGluster, 21);
  FaultInjector injector({InstantSpec(Flavor::kGluster, EffectKind::kCpuSkew)}, 1);
  dfs->set_fault_hooks(&injector);
  EXPECT_FALSE(injector.AnyActive());
  ASSERT_TRUE(dfs->Execute(Create("/f", kGiB)).status.ok());
  EXPECT_TRUE(injector.AnyActive());
  ASSERT_EQ(injector.ActiveFaultIds().size(), 1u);
  EXPECT_EQ(injector.ActiveFaultIds().front(), "test-fault");
  EXPECT_EQ(injector.EverTriggeredIds().size(), 1u);
}

TEST(Injector, PlatformMismatchNeverTriggers) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kHdfs, 22);
  FaultInjector injector({InstantSpec(Flavor::kGluster, EffectKind::kCpuSkew)}, 1);
  dfs->set_fault_hooks(&injector);
  for (int i = 0; i < 20; ++i) {
    (void)dfs->Execute(Create("/f" + std::to_string(i), kGiB));
  }
  EXPECT_FALSE(injector.AnyActive());
}

TEST(Injector, EnvironmentGatedNeverTriggers) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kGluster, 23);
  FaultSpec spec = InstantSpec(Flavor::kGluster, EffectKind::kCpuSkew);
  spec.environment_gated = true;
  FaultInjector injector({spec}, 1);
  dfs->set_fault_hooks(&injector);
  for (int i = 0; i < 20; ++i) {
    (void)dfs->Execute(Create("/f" + std::to_string(i), kGiB));
  }
  EXPECT_FALSE(injector.AnyActive());
}

TEST(Injector, RequiredKindsGateTriggering) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kGluster, 24);
  FaultSpec spec = InstantSpec(Flavor::kGluster, EffectKind::kCpuSkew);
  spec.trigger.required_kinds = {OpKind::kRename};
  FaultInjector injector({spec}, 1);
  dfs->set_fault_hooks(&injector);
  ASSERT_TRUE(dfs->Execute(Create("/f", kGiB)).status.ok());
  EXPECT_FALSE(injector.AnyActive());
  Operation rename;
  rename.kind = OpKind::kRename;
  rename.path = "/f";
  rename.path2 = "/g";
  ASSERT_TRUE(dfs->Execute(rename).status.ok());
  EXPECT_TRUE(injector.AnyActive());
}

TEST(Injector, ClassRequirementsGateTriggering) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kGluster, 25);
  FaultSpec spec = InstantSpec(Flavor::kGluster, EffectKind::kCpuSkew);
  spec.trigger.needs_node_ops = true;
  FaultInjector injector({spec}, 1);
  dfs->set_fault_hooks(&injector);
  for (int i = 0; i < 5; ++i) {
    (void)dfs->Execute(Create("/f" + std::to_string(i), kGiB));
  }
  EXPECT_FALSE(injector.AnyActive());
  Operation add;
  add.kind = OpKind::kAddStorageNode;
  ASSERT_TRUE(dfs->Execute(add).status.ok());
  EXPECT_TRUE(injector.AnyActive());
}

TEST(Injector, CpuSkewEffectLoadsVictim) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kGluster, 26);
  FaultInjector injector({InstantSpec(Flavor::kGluster, EffectKind::kCpuSkew, 0.6)}, 1);
  dfs->set_fault_hooks(&injector);
  for (int i = 0; i < 30; ++i) {
    (void)dfs->Execute(Create("/f" + std::to_string(i), kMiB));
  }
  double max_cpu = 0;
  double total_cpu = 0;
  int nodes = 0;
  for (const LoadSample& sample : dfs->SampleLoad()) {
    if (sample.is_storage) {
      max_cpu = std::max(max_cpu, sample.cpu_seconds);
      total_cpu += sample.cpu_seconds;
      ++nodes;
    }
  }
  EXPECT_GT(max_cpu, (total_cpu / nodes) * 2.0) << "victim must dominate CPU usage";
}

TEST(Injector, CrashEffectKillsNode) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kGluster, 27);
  FaultInjector injector({InstantSpec(Flavor::kGluster, EffectKind::kCrashNode)}, 1);
  dfs->set_fault_hooks(&injector);
  (void)dfs->Execute(Create("/f", kGiB));
  bool any_crashed = false;
  for (const LoadSample& sample : dfs->SampleLoad()) {
    any_crashed |= sample.crashed;
  }
  EXPECT_TRUE(any_crashed);
}

TEST(Injector, StorageEffectAccumulatesTowardSeverity) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kGluster, 28);
  FaultInjector injector(
      {InstantSpec(Flavor::kGluster, EffectKind::kHotspotAccumulation, 0.30)}, 1);
  dfs->set_fault_hooks(&injector);
  ASSERT_TRUE(dfs->Execute(Create("/seed", 100 * kGiB)).status.ok());
  double max_spread = 0;
  for (int i = 0; i < 300; ++i) {
    (void)dfs->Execute(Create("/f" + std::to_string(i), kGiB));
    max_spread = std::max(max_spread, dfs->StorageImbalance());
  }
  EXPECT_GE(max_spread, 0.25) << "hotspot accumulation must approach severity";
}

TEST(Injector, HotspotSurvivesExplicitRebalance) {
  // The defining property of an imbalance failure (§2.2): the system cannot
  // recover to LBS on its own.
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kGluster, 29);
  FaultInjector injector(
      {InstantSpec(Flavor::kGluster, EffectKind::kPlanSkipsVictim, 0.35)}, 1);
  dfs->set_fault_hooks(&injector);
  ASSERT_TRUE(dfs->Execute(Create("/seed", 200 * kGiB)).status.ok());
  for (int i = 0; i < 250; ++i) {
    (void)dfs->Execute(Create("/f" + std::to_string(i), 2 * kGiB));
  }
  ASSERT_GE(dfs->StorageImbalance(), 0.28);
  (void)dfs->TriggerRebalance();
  for (int i = 0; i < 2000 && !dfs->RebalanceDone(); ++i) {
    dfs->AdvanceTime(Seconds(10));
  }
  // Re-apply load (the injector keeps steering) and check persistence.
  for (int i = 0; i < 20; ++i) {
    (void)dfs->Execute(Create("/g" + std::to_string(i), kGiB));
  }
  EXPECT_GE(dfs->StorageImbalance(), 0.22)
      << "an active plan-skipping fault must defeat the balancer";
}

TEST(Injector, RebalanceHangSuppressesCommand) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kGluster, 30);
  FaultInjector injector({InstantSpec(Flavor::kGluster, EffectKind::kRebalanceHang)},
                         1);
  dfs->set_fault_hooks(&injector);
  (void)dfs->Execute(Create("/f", kGiB));
  ASSERT_TRUE(injector.AnyActive());
  uint64_t rounds_before = static_cast<uint64_t>(dfs->completed_rebalance_rounds());
  (void)dfs->TriggerRebalance();
  dfs->AdvanceTime(Minutes(5));
  EXPECT_EQ(static_cast<uint64_t>(dfs->completed_rebalance_rounds()), rounds_before)
      << "a hang fault must swallow the rebalance command";
}

TEST(Injector, ResetDeactivatesFaults) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kGluster, 31);
  FaultInjector injector({InstantSpec(Flavor::kGluster, EffectKind::kCpuSkew)}, 1);
  dfs->set_fault_hooks(&injector);
  (void)dfs->Execute(Create("/f", kGiB));
  ASSERT_TRUE(injector.AnyActive());
  dfs->ResetToInitial();
  EXPECT_FALSE(injector.AnyActive());
  // Still counted as triggered-once for campaign statistics.
  EXPECT_EQ(injector.EverTriggeredIds().size(), 1u);
}

TEST(Injector, NetworkSkewTargetsMetaNode) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kLeo, 32);
  FaultInjector injector({InstantSpec(Flavor::kLeo, EffectKind::kNetworkSkew, 0.7)}, 1);
  dfs->set_fault_hooks(&injector);
  for (int i = 0; i < 40; ++i) {
    (void)dfs->Execute(Create("/f" + std::to_string(i), kMiB));
  }
  uint64_t max_requests = 0;
  uint64_t min_requests = UINT64_MAX;
  for (const LoadSample& sample : dfs->SampleLoad()) {
    if (!sample.is_storage) {
      max_requests = std::max(max_requests, sample.requests);
      min_requests = std::min(min_requests, sample.requests);
    }
  }
  EXPECT_GT(max_requests, 2 * min_requests);
}

// The injector's history is a 16-entry ring. Over 48 mixed ops it wraps
// three times, and a mid-run save and restore hands a wrapped ring to a
// fresh injector. Neither fault ever activates (probability 0), so each
// one's satisfied_evals counts the ops at which its whole predicate held:
// a required rename inside the last 12 ops, and an operator overlap of at
// least 6 of 8 between the two most recent 8-op windows.
TEST(Injector, TriggerWindowsFollowTheHistoryRingAcrossWraps) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kGluster, 33);
  FaultSpec rename = InstantSpec(Flavor::kGluster, EffectKind::kCpuSkew);
  rename.id = "rename-in-window";
  rename.trigger.window = 12;
  rename.trigger.required_kinds = {OpKind::kRename};
  rename.trigger.probability = 0.0;
  FaultSpec steady = InstantSpec(Flavor::kGluster, EffectKind::kCpuSkew);
  steady.id = "steady";
  steady.trigger.min_steadiness = 0.75;
  steady.trigger.probability = 0.0;
  auto injector = std::make_unique<FaultInjector>(std::vector<FaultSpec>{rename, steady}, 1);
  dfs->set_fault_hooks(injector.get());

  const OpKind kKinds[] = {OpKind::kCreate, OpKind::kMkdir, OpKind::kOpen, OpKind::kAppend,
                           OpKind::kRename};
  Rng rng(8);
  std::vector<OpKind> executed;
  uint64_t rename_evals = 0;
  uint64_t steady_evals = 0;
  for (int i = 0; i < 48; ++i) {
    Operation op;
    // Renames come in bursts with long gaps, so the window both holds one
    // and goes without one.
    op.kind = (i / 8) % 2 == 1 && rng.NextBelow(3) == 0
                  ? OpKind::kRename
                  : kKinds[rng.NextBelow(std::size(kKinds) - 1)];
    op.path = "/f" + std::to_string(rng.NextBelow(6));
    op.path2 = "/f" + std::to_string(rng.NextBelow(6));
    op.size = kMiB;
    if (op.kind == OpKind::kMkdir) {
      op.path = "/d" + std::to_string(i);
    }
    (void)dfs->Execute(op);
    executed.push_back(op.kind);

    const size_t n = executed.size();
    const size_t window = std::min<size_t>(n, 12);
    if (std::find(executed.end() - static_cast<std::ptrdiff_t>(window), executed.end(),
                  OpKind::kRename) != executed.end()) {
      ++rename_evals;
    }
    if (n >= 16) {
      std::multiset<OpKind> older(executed.end() - 16, executed.end() - 8);
      int overlap = 0;
      for (auto it = executed.end() - 8; it != executed.end(); ++it) {
        auto match = older.find(*it);
        if (match != older.end()) {
          older.erase(match);
          ++overlap;
        }
      }
      steady_evals += overlap >= 6 ? 1 : 0;
    }
    ASSERT_FALSE(injector->AnyActive());
    ASSERT_EQ(injector->faults()[0].satisfied_evals, rename_evals) << "op " << i;
    ASSERT_EQ(injector->faults()[1].satisfied_evals, steady_evals) << "op " << i;

    if (i == 36) {
      SnapshotWriter saved;
      injector->SaveState(saved);
      auto restored = std::make_unique<FaultInjector>(std::vector<FaultSpec>{rename, steady}, 1);
      SnapshotReader reader(saved.buffer());
      ASSERT_TRUE(restored->RestoreState(reader).ok());
      SnapshotWriter resaved;
      restored->SaveState(resaved);
      ASSERT_EQ(resaved.buffer(), saved.buffer());
      injector = std::move(restored);
      dfs->set_fault_hooks(injector.get());
    }
  }
  EXPECT_GT(rename_evals, 0u);
  EXPECT_LT(rename_evals, 48u);
  EXPECT_GT(steady_evals, 0u);
  EXPECT_LT(steady_evals, 33u);
}

// The injector's hotspot-touch predicate, evaluated after the op ran: a
// resize whose file's last chunk has a replica on the hottest brick.
bool TouchesHottest(const DfsCluster& dfs, const Operation& op) {
  if (op.kind != OpKind::kAppend && op.kind != OpKind::kOverwrite &&
      op.kind != OpKind::kTruncateOverwrite) {
    return false;
  }
  Result<FileId> file = dfs.tree().FileIdOf(op.path);
  BrickId hottest = dfs.HottestServingBrick();
  if (!file.ok() || hottest == kInvalidBrick) {
    return false;
  }
  const ChunkPlacement* last =
      dfs.file_layouts().count(*file) == 0 || dfs.file_layouts().at(*file).chunks.empty()
          ? nullptr
          : &dfs.file_layouts().at(*file).chunks.back();
  return last != nullptr && last->HasReplicaOn(hottest);
}

// Every op since the last reset, scanned window by window: the reference
// for the injector's op stamps and hotspot register.
struct WindowReference {
  std::vector<OpKind> kinds;
  std::vector<bool> hot;

  bool Satisfied(const TriggerRequirement& trigger) const {
    const size_t window = std::min({static_cast<size_t>(trigger.window), kinds.size(),
                                    size_t{16}});
    if (static_cast<int>(window) < trigger.min_window_ops) {
      return false;
    }
    const size_t start = kinds.size() - window;
    std::set<OpKind> seen(kinds.begin() + static_cast<std::ptrdiff_t>(start), kinds.end());
    auto saw_class = [&](OpClass cls) {
      return std::any_of(seen.begin(), seen.end(),
                         [&](OpKind kind) { return ClassOf(kind) == cls; });
    };
    if ((trigger.needs_requests && !saw_class(OpClass::kFile)) ||
        (trigger.needs_node_ops && !saw_class(OpClass::kNode))) {
      return false;
    }
    if (static_cast<int>(seen.size()) < trigger.min_distinct_kinds) {
      return false;
    }
    for (OpKind required : trigger.required_kinds) {
      if (seen.count(required) == 0) {
        return false;
      }
    }
    return std::count(hot.begin() + static_cast<std::ptrdiff_t>(start), hot.end(), true) >=
           trigger.min_hotspot_touches;
  }
};

// Windows shorter than the ops seen so far, longer than the 16-op history
// ring, and hotspot touches that sit exactly at a window's oldest edge; a
// cluster reset mid-run, and a save and restore of a wrapped ring before
// and after it. No fault ever activates (probability 0), so after every op
// each fault's satisfied_evals must match the reference's count.
TEST(Injector, TriggerStampsMatchAScanOfTheWindow) {
  std::unique_ptr<DfsCluster> dfs = MakeCluster(Flavor::kGluster, 34);
  auto spec = [](const char* id, int window) {
    FaultSpec fault = InstantSpec(Flavor::kGluster, EffectKind::kCpuSkew);
    fault.id = id;
    fault.trigger.window = window;
    fault.trigger.probability = 0.0;
    return fault;
  };
  FaultSpec short_window = spec("short-window", 6);
  short_window.trigger.min_window_ops = 4;
  short_window.trigger.required_kinds = {OpKind::kMkdir};
  FaultSpec long_window = spec("long-window", 40);
  long_window.trigger.needs_node_ops = true;
  long_window.trigger.min_distinct_kinds = 4;
  FaultSpec hot_edge = spec("hot-edge", 4);
  hot_edge.trigger.min_hotspot_touches = 1;
  FaultSpec hot_pair = spec("hot-pair", 24);
  hot_pair.trigger.needs_requests = true;
  hot_pair.trigger.min_hotspot_touches = 2;
  const std::vector<FaultSpec> specs = {short_window, long_window, hot_edge, hot_pair};
  auto injector = std::make_unique<FaultInjector>(specs, 1);
  dfs->set_fault_hooks(injector.get());

  WindowReference reference;
  std::vector<uint64_t> expected(specs.size(), 0);
  std::vector<std::string> files;
  int edge_touches = 0;
  Rng rng(34);
  for (int i = 0; i < 150; ++i) {
    if (i == 70) {
      dfs->ResetToInitial();
      reference = {};
      files.clear();
    }
    Operation op;
    op.size = kMiB;
    const uint64_t pick = files.empty() ? 0 : rng.NextBelow(10);
    if (pick == 0) {
      op.kind = OpKind::kCreate;
      op.path = "/f" + std::to_string(i);
      op.size = (1 + rng.NextBelow(8)) * kGiB;
      files.push_back(op.path);
    } else if (pick <= 4) {
      // Appends, half of them to a file whose tail is on the hottest brick.
      op.kind = OpKind::kAppend;
      op.path = files[rng.PickIndex(files.size())];
      if (rng.NextBelow(2) == 0) {
        for (const std::string& path : files) {
          Operation probe = op;
          probe.path = path;
          if (TouchesHottest(*dfs, probe)) {
            op.path = path;
            break;
          }
        }
      }
    } else if (pick <= 6) {
      op.kind = OpKind::kMkdir;
      op.path = "/d" + std::to_string(i);
    } else if (pick <= 8) {
      op.kind = OpKind::kOpen;
      op.path = files[rng.PickIndex(files.size())];
    } else {
      op.kind = rng.NextBelow(2) == 0 ? OpKind::kAddMetaNode : OpKind::kRemoveMetaNode;
      op.node = rng.NextBelow(2) == 0 ? 1 : 2;
    }
    (void)dfs->Execute(op);
    reference.kinds.push_back(op.kind);
    reference.hot.push_back(TouchesHottest(*dfs, op));
    const size_t n = reference.hot.size();
    if (n >= 4 && reference.hot[n - 4] &&
        std::count(reference.hot.end() - 3, reference.hot.end(), true) == 0) {
      ++edge_touches;
    }
    for (size_t f = 0; f < specs.size(); ++f) {
      expected[f] += reference.Satisfied(specs[f].trigger) ? 1 : 0;
      ASSERT_EQ(injector->faults()[f].satisfied_evals, expected[f])
          << specs[f].id << " at op " << i;
    }
    ASSERT_FALSE(injector->AnyActive());

    if (i == 40 || i == 110) {
      SnapshotWriter saved;
      injector->SaveState(saved);
      auto restored = std::make_unique<FaultInjector>(specs, 1);
      SnapshotReader reader(saved.buffer());
      ASSERT_TRUE(restored->RestoreState(reader).ok());
      SnapshotWriter resaved;
      restored->SaveState(resaved);
      ASSERT_EQ(resaved.buffer(), saved.buffer());
      injector = std::move(restored);
      dfs->set_fault_hooks(injector.get());
    }
  }
  EXPECT_GT(edge_touches, 0) << "no hotspot touch sat at the edge of a 4-op window";
  for (size_t f = 0; f < specs.size(); ++f) {
    EXPECT_GT(expected[f], 0u) << specs[f].id;
    EXPECT_LT(expected[f], 150u) << specs[f].id;
  }
}

}  // namespace
}  // namespace themis
