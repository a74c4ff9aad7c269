#include "src/core/seed_pool.h"

#include <algorithm>

namespace themis {

SeedPool::SeedPool(size_t capacity) : capacity_(capacity > 0 ? capacity : 1) {}

void SeedPool::Add(OpSeq seq, double score) {
  if (seeds_.size() >= capacity_) {
    // Evict the lowest-priority seed.
    auto worst = std::min_element(seeds_.begin(), seeds_.end(),
                                  [](const Seed& a, const Seed& b) {
                                    return a.score < b.score;
                                  });
    if (worst->score >= score) {
      return;  // the pool is full of better seeds
    }
    seeds_.erase(worst);
  }
  Seed seed;
  seed.seq = std::move(seq);
  seed.score = score;
  seeds_.push_back(std::move(seed));
}

const OpSeq& SeedPool::Select(Rng& rng) {
  static const OpSeq kEmpty;
  if (seeds_.empty()) {
    return kEmpty;
  }
  std::vector<double> weights;
  weights.reserve(seeds_.size());
  for (const Seed& seed : seeds_) {
    double freshness = 1.0 / (1.0 + seed.selections);
    weights.push_back(0.05 + seed.score + 0.2 * freshness);
  }
  size_t index = rng.PickWeighted(weights);
  ++seeds_[index].selections;
  return seeds_[index].seq;
}

void SeedPool::SaveState(SnapshotWriter& writer) const {
  writer.U64(seeds_.size());
  for (const Seed& seed : seeds_) {
    SaveOpSeq(writer, seed.seq);
    writer.F64(seed.score);
    writer.I64(seed.selections);
  }
}

Status SeedPool::RestoreState(SnapshotReader& reader) {
  uint64_t count = reader.Count(8 + 8 + 8);
  seeds_.clear();
  seeds_.resize(static_cast<size_t>(count));
  for (Seed& seed : seeds_) {
    RestoreOpSeq(reader, &seed.seq);
    seed.score = reader.F64();
    seed.selections = static_cast<int>(reader.I64());
    if (!reader.ok()) break;
  }
  return reader.status();
}

double SeedPool::best_score() const {
  double best = 0.0;
  for (const Seed& seed : seeds_) {
    best = std::max(best, seed.score);
  }
  return best;
}

}  // namespace themis
