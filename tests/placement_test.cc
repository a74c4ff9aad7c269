// Unit + property tests for the five placement algorithms.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "src/common/rng.h"
#include "src/dfs/placement/crush_map.h"
#include "src/dfs/placement/dht_layout.h"
#include "src/dfs/placement/geo_tree.h"
#include "src/dfs/placement/hash_ring.h"
#include "src/dfs/placement/weighted_tree.h"

namespace themis {
namespace {

// ---- HashRing ----

TEST(HashRing, EmptyRingLocatesNothing) {
  HashRing ring;
  EXPECT_TRUE(ring.Locate(123, 2).empty());
  EXPECT_EQ(ring.Primary(123), kInvalidBrick);
}

TEST(HashRing, LocateReturnsDistinctTargets) {
  HashRing ring(32);
  for (BrickId b = 1; b <= 5; ++b) {
    ring.AddTarget(b);
  }
  for (uint64_t key = 0; key < 200; ++key) {
    std::vector<BrickId> located = ring.Locate(Mix64(key), 3);
    ASSERT_EQ(located.size(), 3u);
    std::set<BrickId> unique(located.begin(), located.end());
    EXPECT_EQ(unique.size(), 3u);
  }
}

TEST(HashRing, ReplicasCappedByTargetCount) {
  HashRing ring;
  ring.AddTarget(1);
  ring.AddTarget(2);
  EXPECT_EQ(ring.Locate(99, 5).size(), 2u);
}

TEST(HashRing, AddTargetIsIdempotent) {
  HashRing ring(16);
  ring.AddTarget(7);
  int vnodes = ring.VnodeCount(7);
  ring.AddTarget(7);
  EXPECT_EQ(ring.VnodeCount(7), vnodes);
}

TEST(HashRing, RemoveTargetMovesOnlyItsArcs) {
  // Consistent-hashing property: removing a target only remaps keys that
  // were on the removed target.
  HashRing ring(64);
  for (BrickId b = 1; b <= 8; ++b) {
    ring.AddTarget(b);
  }
  std::map<uint64_t, BrickId> before;
  for (uint64_t key = 0; key < 500; ++key) {
    before[key] = ring.Primary(Mix64(key));
  }
  ring.RemoveTarget(4);
  int moved = 0;
  for (const auto& [key, primary] : before) {
    BrickId now = ring.Primary(Mix64(key));
    if (primary == 4) {
      EXPECT_NE(now, 4u);
    } else {
      EXPECT_EQ(now, primary) << "key not on removed target was remapped";
    }
    if (now != primary) {
      ++moved;
    }
  }
  // Roughly 1/8 of the keys should have moved.
  EXPECT_GT(moved, 20);
  EXPECT_LT(moved, 140);
}

TEST(HashRing, WeightScalesShare) {
  HashRing ring(64);
  ring.AddTarget(1, 1.0);
  ring.AddTarget(2, 4.0);
  int heavy = 0;
  const int kKeys = 4000;
  for (uint64_t key = 0; key < kKeys; ++key) {
    if (ring.Primary(Mix64(key)) == 2) {
      ++heavy;
    }
  }
  double share = static_cast<double>(heavy) / kKeys;
  EXPECT_GT(share, 0.65);
  EXPECT_LT(share, 0.92);
}

TEST(HashRing, BalancedDistribution) {
  HashRing ring(64);
  for (BrickId b = 1; b <= 4; ++b) {
    ring.AddTarget(b);
  }
  std::map<BrickId, int> counts;
  const int kKeys = 8000;
  for (uint64_t key = 0; key < kKeys; ++key) {
    ++counts[ring.Primary(Mix64(key))];
  }
  for (const auto& [brick, count] : counts) {
    EXPECT_GT(count, kKeys / 8) << "target " << brick << " starved";
    EXPECT_LT(count, kKeys / 2) << "target " << brick << " dominates";
  }
}

// The std::map ring HashRing used to be, kept as the reference for the flat
// one: the same vnode positions, the same collision probing, the same walk.
class MapRing {
 public:
  explicit MapRing(int vnodes_per_target) : vnodes_(vnodes_per_target) {}

  void AddTarget(BrickId target, double weight) {
    if (positions_.count(target) != 0) {
      return;
    }
    int vnodes = static_cast<int>(static_cast<double>(vnodes_) * weight);
    vnodes = std::clamp(vnodes, 4, 4 * vnodes_);
    std::vector<uint64_t>& planted = positions_[target];
    for (int v = 0; v < vnodes; ++v) {
      uint64_t pos = HashCombine(Mix64(target + 0x9e37ULL), static_cast<uint64_t>(v));
      while (ring_.count(pos) != 0) {
        pos = Mix64(pos);
      }
      ring_[pos] = target;
      planted.push_back(pos);
    }
  }
  void RemoveTarget(BrickId target) {
    auto it = positions_.find(target);
    if (it == positions_.end()) {
      return;
    }
    for (uint64_t pos : it->second) {
      ring_.erase(pos);
    }
    positions_.erase(it);
  }
  int VnodeCount(BrickId target) const {
    auto it = positions_.find(target);
    return it == positions_.end() ? 0 : static_cast<int>(it->second.size());
  }
  std::vector<BrickId> Locate(uint64_t key_hash, int replicas) const {
    std::vector<BrickId> out;
    if (ring_.empty()) {
      return out;
    }
    size_t want = std::min(static_cast<size_t>(replicas), positions_.size());
    auto it = ring_.lower_bound(key_hash);
    for (size_t steps = 0; out.size() < want && steps < 2 * ring_.size(); ++steps, ++it) {
      if (it == ring_.end()) {
        it = ring_.begin();
      }
      if (std::find(out.begin(), out.end(), it->second) == out.end()) {
        out.push_back(it->second);
      }
    }
    return out;
  }
  std::vector<BrickId> Targets() const {
    std::vector<BrickId> out;
    for (const auto& [target, planted] : positions_) {
      out.push_back(target);
    }
    return out;
  }
  // Every vnode position: keys on, just before and just after them probe
  // the walk's boundaries.
  std::vector<uint64_t> Positions() const {
    std::vector<uint64_t> out;
    for (const auto& [pos, target] : ring_) {
      out.push_back(pos);
    }
    return out;
  }

 private:
  int vnodes_;
  std::map<uint64_t, BrickId> ring_;
  std::map<BrickId, std::vector<uint64_t>> positions_;
};

// Random adds (new and already planted), removes (planted and absent),
// re-weights (remove, then add at the new weight, as LeoFS re-plants) and
// locates, over weights below, inside and above the vnode clamp. After every
// step the flat ring must answer every query as the map ring does.
TEST(HashRing, FlatRingMatchesTheMapRing) {
  constexpr int kVnodes = 16;
  const double kWeights[] = {0.0, 0.1, 0.5, 1.0, 1.3, 2.5, 4.0, 9.0};
  Rng rng(2026);
  HashRing flat(kVnodes);
  MapRing reference(kVnodes);
  for (int step = 0; step < 400; ++step) {
    const BrickId target = static_cast<BrickId>(1 + rng.NextBelow(24));
    const double weight = kWeights[rng.NextBelow(std::size(kWeights))];
    switch (rng.NextBelow(4)) {
      case 0:
        flat.AddTarget(target, weight);
        reference.AddTarget(target, weight);
        break;
      case 1:
        flat.RemoveTarget(target);
        reference.RemoveTarget(target);
        break;
      case 2:
        flat.RemoveTarget(target);
        reference.RemoveTarget(target);
        flat.AddTarget(target, weight);
        reference.AddTarget(target, weight);
        break;
      default:
        break;  // locate only
    }
    ASSERT_EQ(flat.Targets(), reference.Targets()) << "step " << step;
    ASSERT_EQ(flat.target_count(), reference.Targets().size()) << "step " << step;
    for (BrickId id = 0; id <= 25; ++id) {
      ASSERT_EQ(flat.VnodeCount(id), reference.VnodeCount(id)) << "step " << step;
      ASSERT_EQ(flat.HasTarget(id), reference.VnodeCount(id) != 0) << "step " << step;
    }
    std::vector<uint64_t> keys = {0, 1, UINT64_MAX};
    for (int k = 0; k < 48; ++k) {
      keys.push_back(rng.NextU64());
    }
    const std::vector<uint64_t> positions = reference.Positions();
    for (int k = 0; k < 8 && !positions.empty(); ++k) {
      const uint64_t pos = positions[rng.NextBelow(positions.size())];
      keys.insert(keys.end(), {pos - 1, pos, pos + 1});
    }
    for (uint64_t key : keys) {
      for (int replicas = 1; replicas <= 4; ++replicas) {
        ASSERT_EQ(flat.Locate(key, replicas), reference.Locate(key, replicas))
            << "step " << step << ", key " << key << ", replicas " << replicas;
      }
      std::vector<BrickId> primary = reference.Locate(key, 1);
      ASSERT_EQ(flat.Primary(key), primary.empty() ? kInvalidBrick : primary.front())
          << "step " << step << ", key " << key;
    }
  }
}

// ---- CrushMap ----

// RawMap's view of the cached mapping, copied so it can be compared.
std::vector<BrickId> RawTargets(const CrushMap& crush, uint32_t pg, int replicas) {
  std::span<const BrickId> raw = crush.RawMap(pg, replicas);
  return {raw.begin(), raw.end()};
}

TEST(CrushMap, DeterministicMapping) {
  CrushMap crush(128);
  crush.SetTargetWeight(1, 1.0);
  crush.SetTargetWeight(2, 1.0);
  crush.SetTargetWeight(3, 1.0);
  for (uint32_t pg = 0; pg < 128; ++pg) {
    EXPECT_EQ(RawTargets(crush, pg, 2), RawTargets(crush, pg, 2));
  }
}

TEST(CrushMap, MapsDistinctReplicas) {
  CrushMap crush(64);
  for (BrickId b = 1; b <= 6; ++b) {
    crush.SetTargetWeight(b, 1.0);
  }
  for (uint32_t pg = 0; pg < 64; ++pg) {
    std::vector<BrickId> mapped = RawTargets(crush, pg, 3);
    ASSERT_EQ(mapped.size(), 3u);
    std::set<BrickId> unique(mapped.begin(), mapped.end());
    EXPECT_EQ(unique.size(), 3u);
  }
}

TEST(CrushMap, WeightProportionalPgShare) {
  CrushMap crush(2048);
  crush.SetTargetWeight(1, 1.0);
  crush.SetTargetWeight(2, 3.0);
  int heavy = 0;
  for (uint32_t pg = 0; pg < 2048; ++pg) {
    if (crush.RawMap(pg, 1).front() == 2) {
      ++heavy;
    }
  }
  EXPECT_NEAR(heavy / 2048.0, 0.75, 0.06);
}

TEST(CrushMap, WeightChangeMovesProportionalShare) {
  CrushMap crush(1024);
  for (BrickId b = 1; b <= 5; ++b) {
    crush.SetTargetWeight(b, 1.0);
  }
  std::map<uint32_t, BrickId> before;
  for (uint32_t pg = 0; pg < 1024; ++pg) {
    before[pg] = crush.RawMap(pg, 1).front();
  }
  crush.SetTargetWeight(5, 2.0);  // double one target's weight
  int moved = 0;
  for (const auto& [pg, primary] : before) {
    if (crush.RawMap(pg, 1).front() != primary) {
      ++moved;
    }
  }
  // Only pgs gained by the heavier target move (about 1/6 of the space);
  // nothing else reshuffles.
  EXPECT_GT(moved, 60);
  EXPECT_LT(moved, 350);
}

TEST(CrushMap, UpmapOverridesPrimary) {
  CrushMap crush(64);
  crush.SetTargetWeight(1, 1.0);
  crush.SetTargetWeight(2, 1.0);
  crush.SetTargetWeight(3, 1.0);
  crush.Upmap(10, 3);
  EXPECT_EQ(crush.Map(10, 2).front(), 3u);
  crush.ClearUpmap(10);
  EXPECT_EQ(crush.Map(10, 2), RawTargets(crush, 10, 2));
}

TEST(CrushMap, StaleUpmapIgnoredAfterTargetRemoval) {
  CrushMap crush(64);
  crush.SetTargetWeight(1, 1.0);
  crush.SetTargetWeight(2, 1.0);
  crush.Upmap(5, 2);
  crush.RemoveTarget(2);
  std::vector<BrickId> mapped = crush.Map(5, 1);
  ASSERT_EQ(mapped.size(), 1u);
  EXPECT_EQ(mapped.front(), 1u);
  EXPECT_EQ(crush.upmap_count(), 0u);
}

TEST(CrushMap, RemovingWeightRemovesTarget) {
  CrushMap crush(64);
  crush.SetTargetWeight(1, 1.0);
  crush.SetTargetWeight(1, 0.0);
  EXPECT_FALSE(crush.HasTarget(1));
  EXPECT_TRUE(crush.RawMap(3, 1).empty());
}

// The raw-mapping cache must never change an answer. After every step of a
// random walk over weights (re-sets to an unchanged weight included), target
// removals and upmap edits, the cached map answers exactly like one built
// fresh from the same weights and upmaps.
TEST(CrushMap, CachedMappingsMatchAFreshMap) {
  constexpr uint32_t kPgs = 64;
  constexpr double kWeights[] = {0.0, 0.5, 1.0, 2.0};
  CrushMap crush(kPgs);
  Rng rng(2024);
  for (int step = 0; step < 400; ++step) {
    BrickId target = static_cast<BrickId>(1 + rng.NextBelow(8));
    uint32_t pg = static_cast<uint32_t>(rng.NextBelow(kPgs));
    switch (rng.NextBelow(6)) {
      case 0:
      case 1:
      case 2:
        crush.SetTargetWeight(target, kWeights[rng.NextBelow(4)]);
        break;
      case 3:
        crush.RemoveTarget(target);
        break;
      case 4:
        crush.Upmap(pg, target);
        break;
      default:
        crush.ClearUpmap(pg);
        break;
    }
    CrushMap fresh(kPgs);
    for (BrickId b : crush.Targets()) {
      fresh.SetTargetWeight(b, crush.TargetWeight(b));
    }
    for (const auto& [pinned_pg, pinned] : crush.upmaps()) {
      fresh.Upmap(pinned_pg, pinned);
    }
    for (uint32_t p = 0; p < kPgs; ++p) {
      for (int i = 0; i < 3; ++i) {
        // Alternate the query order, so a mapping cached for fewer replicas
        // is later asked for more, and the other way round.
        int replicas = step % 2 == 0 ? 1 + i : 3 - i;
        ASSERT_EQ(RawTargets(crush, p, replicas), RawTargets(fresh, p, replicas))
            << "step " << step << " pg " << p << " replicas " << replicas;
        ASSERT_EQ(crush.Map(p, replicas), fresh.Map(p, replicas))
            << "step " << step << " pg " << p << " replicas " << replicas;
      }
    }
  }
}

// ---- DhtLayout ----

TEST(DhtLayout, CoversFullHashSpace) {
  DhtLayout layout;
  layout.Recompute({{1, 100.0}, {2, 100.0}, {3, 100.0}});
  ASSERT_EQ(layout.ranges().size(), 3u);
  EXPECT_EQ(layout.ranges().front().start, 0u);
  EXPECT_EQ(layout.ranges().back().end, 0xffffffffu);
  for (size_t i = 1; i < layout.ranges().size(); ++i) {
    EXPECT_EQ(layout.ranges()[i].start, layout.ranges()[i - 1].end + 1);
  }
}

TEST(DhtLayout, RangesProportionalToWeight) {
  DhtLayout layout;
  layout.Recompute({{1, 300.0}, {2, 100.0}});
  double share1 = static_cast<double>(layout.ranges()[0].end) / 4294967295.0;
  EXPECT_NEAR(share1, 0.75, 0.01);
}

TEST(DhtLayout, LocateIsStableAcrossIdenticalRecompute) {
  DhtLayout layout;
  layout.Recompute({{1, 100.0}, {2, 100.0}});
  BrickId before = layout.Locate(12345);
  uint64_t generation = layout.generation();
  layout.Recompute({{1, 100.0}, {2, 100.0}});
  EXPECT_EQ(layout.Locate(12345), before);
  EXPECT_EQ(layout.generation(), generation + 1);
}

TEST(DhtLayout, ZeroWeightBricksGetNoRange) {
  DhtLayout layout;
  layout.Recompute({{1, 100.0}, {2, 0.0}, {3, 100.0}});
  for (const DhtRange& range : layout.ranges()) {
    EXPECT_NE(range.brick, 2u);
  }
}

TEST(DhtLayout, EmptyLayout) {
  DhtLayout layout;
  EXPECT_TRUE(layout.empty());
  EXPECT_EQ(layout.Locate(1), kInvalidBrick);
  layout.Recompute({});
  EXPECT_TRUE(layout.empty());
}

TEST(DhtLayout, HashNameDeterministicAndSpread) {
  EXPECT_EQ(DhtLayout::HashName("/a/b"), DhtLayout::HashName("/a/b"));
  EXPECT_NE(DhtLayout::HashName("/a/b"), DhtLayout::HashName("/a/c"));
  // Names spread roughly evenly over two equal ranges.
  DhtLayout layout;
  layout.Recompute({{1, 1.0}, {2, 1.0}});
  int first = 0;
  for (int i = 0; i < 2000; ++i) {
    if (layout.Locate(DhtLayout::HashName("/f" + std::to_string(i))) == 1) {
      ++first;
    }
  }
  EXPECT_NEAR(first / 2000.0, 0.5, 0.06);
}

// ---- WeightedTree ----

TEST(WeightedTree, SortsLightToHeavy) {
  WeightedTree tree(10);
  tree.Insert({1, 0.95});
  tree.Insert({2, 0.05});
  tree.Insert({3, 0.55});
  Rng rng(1);
  std::vector<BrickId> sorted;
  tree.SortByLoad(rng, sorted);
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0], 2u);
  EXPECT_EQ(sorted[1], 3u);
  EXPECT_EQ(sorted[2], 1u);
}

TEST(WeightedTree, ShufflesWithinEqualBuckets) {
  // Nodes with the same weight must share placements (Collections.shuffle).
  WeightedTree tree(10);
  for (BrickId b = 1; b <= 6; ++b) {
    tree.Insert({b, 0.5});
  }
  Rng rng(2);
  std::map<BrickId, int> first_counts;
  std::vector<BrickId> sorted;
  for (int i = 0; i < 600; ++i) {
    tree.SortByLoad(rng, sorted);
    ++first_counts[sorted.front()];
  }
  for (BrickId b = 1; b <= 6; ++b) {
    EXPECT_GT(first_counts[b], 30) << "target " << b << " never chosen first";
  }
}

TEST(WeightedTree, SortByLoadReplacesItsOutput) {
  WeightedTree tree;
  tree.Insert({1, 0.2});
  tree.Insert({2, 0.8});
  Rng rng(3);
  std::vector<BrickId> sorted = {7, 8, 9};
  tree.SortByLoad(rng, sorted);
  EXPECT_EQ(sorted, (std::vector<BrickId>{1, 2}));
  tree.SortByLoad(rng, sorted);
  EXPECT_EQ(sorted, (std::vector<BrickId>{1, 2}));
}

TEST(WeightedTree, ClearEmptiesTree) {
  WeightedTree tree;
  tree.Insert({1, 0.5});
  tree.Clear();
  EXPECT_EQ(tree.size(), 0u);
  Rng rng(4);
  std::vector<BrickId> sorted = {7};
  tree.SortByLoad(rng, sorted);
  EXPECT_TRUE(sorted.empty());
}

TEST(WeightedTree, ClampsOutOfRangeFractions) {
  WeightedTree tree(10);
  tree.Insert({1, -0.5});
  tree.Insert({2, 1.5});
  Rng rng(5);
  std::vector<BrickId> sorted;
  tree.SortByLoad(rng, sorted);
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0], 1u);  // clamped to lightest bucket
  EXPECT_EQ(sorted[1], 2u);  // clamped to heaviest bucket
}

// PlaceChunk refills one tree for every chunk. A cleared and refilled tree
// must sort exactly like a fresh tree fed the same targets and leave the Rng
// in the same state, over random fills with empty buckets, ties (few
// distinct fractions) and fractions outside [0, 1].
TEST(WeightedTree, RefilledTreeSortsLikeAFreshOne) {
  Rng fill(11);
  WeightedTree refilled;
  std::vector<BrickId> refilled_sorted;
  for (int round = 0; round < 300; ++round) {
    std::vector<WeightedTarget> targets(fill.NextBelow(40));
    for (WeightedTarget& target : targets) {
      target.brick = static_cast<BrickId>(fill.NextBelow(64));
      target.used_fraction = static_cast<double>(fill.NextRange(-4, 24)) / 20.0;
    }
    WeightedTree fresh;
    refilled.Clear();
    for (const WeightedTarget& target : targets) {
      fresh.Insert(target);
      refilled.Insert(target);
    }
    ASSERT_EQ(refilled.size(), fresh.size());
    Rng fresh_rng(static_cast<uint64_t>(round));
    Rng refilled_rng(static_cast<uint64_t>(round));
    std::vector<BrickId> fresh_sorted;
    fresh.SortByLoad(fresh_rng, fresh_sorted);
    refilled.SortByLoad(refilled_rng, refilled_sorted);
    ASSERT_EQ(refilled_sorted, fresh_sorted) << "round " << round;
    ASSERT_EQ(refilled_rng.NextU64(), fresh_rng.NextU64()) << "round " << round;
  }
}

// ---- GeoTreeEngine ----

TEST(GeoTree, FewestFirstAdmissionBalancesSitesAndRacks) {
  GeoTreeEngine engine(3, 4, 16);
  for (NodeId id = 0; id < 48; ++id) {
    engine.AssignNode(id);
  }
  EXPECT_EQ(engine.node_count(), 48u);
  for (uint16_t site = 0; site < 3; ++site) {
    EXPECT_EQ(engine.SiteNodeCount(site), 16u) << "site " << site;
  }
  // Racks fill evenly within each site: 16 nodes over 4 racks.
  std::map<std::pair<uint16_t, uint16_t>, int> rack_counts;
  for (NodeId id = 0; id < 48; ++id) {
    ASSERT_TRUE(engine.Contains(id));
    GeoTag tag = engine.TagOf(id);
    ++rack_counts[{tag.site, tag.rack}];
  }
  for (const auto& [rack, count] : rack_counts) {
    EXPECT_EQ(count, 4) << "site " << rack.first << " rack " << rack.second;
  }
  // Groups span sites: every full group holds members from all three.
  for (uint32_t group = 0; group < engine.group_count(); ++group) {
    std::set<uint16_t> sites;
    for (NodeId id : engine.GroupMembers(group)) {
      sites.insert(engine.TagOf(id).site);
    }
    EXPECT_EQ(sites.size(), 3u) << "group " << group;
  }
}

TEST(GeoTree, RemovalFreesTheSlotForTheNextAdmission) {
  GeoTreeEngine engine(3, 4, 16);
  for (NodeId id = 0; id < 9; ++id) {
    engine.AssignNode(id);
  }
  GeoTag victim_tag = engine.TagOf(4);
  engine.RemoveNode(4);
  EXPECT_FALSE(engine.Contains(4));
  EXPECT_EQ(engine.node_count(), 8u);
  // The vacated site is now the fewest-populated, so the next admission
  // lands exactly where the victim sat.
  engine.AssignNode(100);
  EXPECT_EQ(engine.TagOf(100).site, victim_tag.site);
  EXPECT_EQ(engine.TagOf(100).rack, victim_tag.rack);
}

TEST(GeoTree, RestoreReproducesAssignmentAndFutureHistory) {
  GeoTreeEngine original(3, 4, 8);
  for (NodeId id = 0; id < 30; ++id) {
    original.AssignNode(id);
  }
  original.RemoveNode(7);
  original.RemoveNode(19);

  GeoTreeEngine restored(3, 4, 8);
  restored.RestoreGroups(original.group_count());
  for (NodeId id = 0; id < 30; ++id) {
    if (original.Contains(id)) {
      restored.RestoreNode(id, original.TagOf(id), original.GroupOf(id));
    }
  }
  EXPECT_EQ(restored.node_count(), original.node_count());
  EXPECT_EQ(restored.group_count(), original.group_count());
  for (NodeId id = 0; id < 30; ++id) {
    ASSERT_EQ(restored.Contains(id), original.Contains(id)) << id;
    if (!original.Contains(id)) continue;
    EXPECT_EQ(restored.TagOf(id).site, original.TagOf(id).site) << id;
    EXPECT_EQ(restored.TagOf(id).rack, original.TagOf(id).rack) << id;
    EXPECT_EQ(restored.GroupOf(id), original.GroupOf(id)) << id;
  }
  // History-dependence survives the round trip: both engines admit the next
  // node identically.
  uint32_t group_a = original.AssignNode(500);
  uint32_t group_b = restored.AssignNode(500);
  EXPECT_EQ(group_a, group_b);
  EXPECT_EQ(original.TagOf(500).site, restored.TagOf(500).site);
  EXPECT_EQ(original.TagOf(500).rack, restored.TagOf(500).rack);
}

TEST(GeoTree, ClearEmptiesEverything) {
  GeoTreeEngine engine(2, 2, 4);
  for (NodeId id = 0; id < 10; ++id) {
    engine.AssignNode(id);
  }
  engine.Clear();
  EXPECT_EQ(engine.node_count(), 0u);
  EXPECT_EQ(engine.group_count(), 0u);
  EXPECT_FALSE(engine.Contains(0));
  // Admission restarts from a blank history.
  engine.AssignNode(3);
  EXPECT_EQ(engine.TagOf(3).site, 0);
  EXPECT_EQ(engine.GroupOf(3), 0u);
}

}  // namespace
}  // namespace themis
