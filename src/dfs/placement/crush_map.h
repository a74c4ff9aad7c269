// CRUSH-style placement (CephFS flavor).
//
// Objects map to placement groups (PGs) by hash; each PG is mapped to an
// ordered set of targets with straw2 selection: every target draws
// ln(u) / weight for a deterministic pseudo-random u = hash(pg, round,
// target), and the largest draw wins. Weight changes move only a
// proportional share of PGs — CRUSH's signature property. An "upmap" overlay
// lets the balancer pin individual PGs elsewhere, mirroring Ceph's upmap
// balancer.
//
// Raw mappings depend only on the weights, so each PG's is computed once and
// kept until a weight really changes; upmaps stay an overlay applied in Map,
// which reads the cached mapping in place and writes into the caller's set.
// Real Ceph likewise recomputes its PG mappings once per OSDMap epoch.

#ifndef SRC_DFS_PLACEMENT_CRUSH_MAP_H_
#define SRC_DFS_PLACEMENT_CRUSH_MAP_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "src/dfs/types.h"

namespace themis {

class CrushMap {
 public:
  explicit CrushMap(uint32_t pg_count = 256);

  void SetTargetWeight(BrickId target, double weight);  // weight<=0 removes
  void RemoveTarget(BrickId target);
  bool HasTarget(BrickId target) const;
  double TargetWeight(BrickId target) const;
  size_t target_count() const { return weights_.size(); }
  uint32_t pg_count() const { return pg_count_; }

  uint32_t PgOf(uint64_t object_hash) const { return object_hash % pg_count_; }

  // PG ids are taken modulo pg_count() everywhere below.

  // CRUSH mapping of `pg` onto up to `replicas` distinct targets (before
  // upmap): a view of the PG's cached mapping, valid until the next weight
  // change or lookup.
  std::span<const BrickId> RawMap(uint32_t pg, int replicas) const;

  // Mapping after applying upmap overrides: writes up to `out.size()`
  // targets into `out` and returns how many.
  size_t Map(uint32_t pg, std::span<BrickId> out) const;
  // The same mapping as a vector of up to `replicas` targets.
  std::vector<BrickId> Map(uint32_t pg, int replicas) const;

  // Balancer interface: pin a PG's primary to `target` / clear a pin.
  void Upmap(uint32_t pg, BrickId target);
  void ClearUpmap(uint32_t pg);
  void ClearAllUpmaps();
  size_t upmap_count() const { return upmaps_.size(); }
  const std::map<uint32_t, BrickId>& upmaps() const { return upmaps_; }

  std::vector<BrickId> Targets() const;

 private:
  void ComputeRawMap(uint32_t pg, size_t want, std::vector<BrickId>& out) const;
  void InvalidateRawMaps();

  uint32_t pg_count_;
  std::map<BrickId, double> weights_;
  std::map<uint32_t, BrickId> upmaps_;  // pg -> pinned primary
  // Per PG: the raw mapping onto `want` targets (0 = not computed yet).
  struct CachedMapping {
    size_t want = 0;
    std::vector<BrickId> targets;
  };
  mutable std::vector<CachedMapping> raw_maps_;
};

}  // namespace themis

#endif  // SRC_DFS_PLACEMENT_CRUSH_MAP_H_
