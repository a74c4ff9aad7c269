#include "src/common/rng.h"

#include <cassert>

namespace themis {

namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : s_) {
    word = SplitMix64(sm);
  }
}

uint64_t Rng::NextU64() {
  // xoshiro256** step.
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBelow(uint64_t bound) {
  assert(bound > 0);
  // Lemire's nearly-divisionless bounded generation, simplified: the modulo
  // bias is negligible for bounds far below 2^64, which all our uses are.
  return NextU64() % bound;
}

int64_t Rng::NextRange(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(NextBelow(span));
}

double Rng::NextDouble() {
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

bool Rng::Chance(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return NextDouble() < p;
}

size_t Rng::PickWeighted(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    total += (w > 0.0 ? w : 0.0);
  }
  if (total <= 0.0) {
    return PickIndex(weights.size());
  }
  double target = NextDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += (weights[i] > 0.0 ? weights[i] : 0.0);
    if (target < acc) {
      return i;
    }
  }
  return weights.size() - 1;
}

void Rng::SaveState(SnapshotWriter& writer) const {
  for (uint64_t word : s_) writer.U64(word);
}

Status Rng::RestoreState(SnapshotReader& reader) {
  for (uint64_t& word : s_) word = reader.U64();
  return reader.status();
}

uint64_t Rng::SplitSeed(uint64_t root_seed, uint64_t stream) {
  // Double splitmix64 pass over the (root, stream) pair. A single xor of the
  // raw inputs would make streams of nearby roots collide; mixing the stream
  // index through the finalizer first keeps the family pairwise decorrelated.
  uint64_t state = root_seed;
  uint64_t mixed = SplitMix64(state);
  state = mixed ^ Mix64(stream + 0x632be59bd9b4e019ULL);
  return SplitMix64(state);
}

}  // namespace themis
