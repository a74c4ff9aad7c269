// Deterministic pseudo-random number generation.
//
// Every campaign owns exactly one Rng seeded from the campaign configuration,
// so that all experiments reproduce bit-for-bit. The generator is
// xoshiro256**, seeded through splitmix64 (the construction recommended by
// the xoshiro authors).

#ifndef SRC_COMMON_RNG_H_
#define SRC_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "src/common/snapshot_io.h"

namespace themis {

// The hashes are inline: the placement hashes (the object hashes, Gluster's
// DHT name hash) and the coverage tuples call them per character or per
// branch.

// splitmix64 step; also useful as a cheap mixing/hash function.
inline uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Mixes a single value through the splitmix64 finalizer (stateless hash).
inline uint64_t Mix64(uint64_t value) {
  uint64_t state = value;
  return SplitMix64(state);
}

// Combines a hash with a new value (boost::hash_combine style, 64-bit).
inline uint64_t HashCombine(uint64_t seed, uint64_t value) {
  return seed ^ (Mix64(value) + 0x9e3779b97f4a7c15ULL + (seed << 12) + (seed >> 4));
}

// Folds every byte of `bytes` into `seed`, one HashCombine per byte (the
// path, name and id hashes).
inline uint64_t HashBytes(uint64_t seed, std::string_view bytes) {
  for (char c : bytes) {
    seed = HashCombine(seed, static_cast<uint64_t>(static_cast<unsigned char>(c)));
  }
  return seed;
}

class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Uniform in [0, 2^64).
  uint64_t NextU64();

  // Uniform in [0, bound). bound must be > 0.
  uint64_t NextBelow(uint64_t bound);

  // Uniform in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextRange(int64_t lo, int64_t hi);

  // Uniform double in [0, 1).
  double NextDouble();

  // True with probability p (clamped to [0, 1]).
  bool Chance(double p);

  // Picks an index according to `weights` (non-negative; at least one > 0).
  size_t PickWeighted(const std::vector<double>& weights);

  // Picks a uniformly random element index from a container size.
  size_t PickIndex(size_t size) { return static_cast<size_t>(NextBelow(size)); }

  // Derives the seed of stream `stream` in the generator family rooted at
  // `root_seed`. Streams are decorrelated from each other and from the root:
  // two distinct (root_seed, stream) pairs never alias in practice. This is
  // the basis of the campaign matrix's determinism guarantee — every job
  // draws from its own stream, so results are independent of thread count
  // and of the order jobs are executed in.
  static uint64_t SplitSeed(uint64_t root_seed, uint64_t stream);

  // Checkpointing (DESIGN.md §11): the full generator state, the xoshiro
  // word vector, so a restored stream continues exactly where the saved one
  // stopped.
  void SaveState(SnapshotWriter& writer) const;
  Status RestoreState(SnapshotReader& reader);

 private:
  uint64_t s_[4];
};

}  // namespace themis

#endif  // SRC_COMMON_RNG_H_
