#include "src/core/seed_pool.h"

#include <algorithm>

#include "src/telemetry/metrics.h"

namespace themis {

SeedPool::SeedPool(size_t capacity) : capacity_(capacity > 0 ? capacity : 1) {}

bool SeedPool::Insert(OpSeq seq, double score, uint64_t fingerprint,
                      bool imported) {
  if (seeds_.size() >= capacity_) {
    // Evict the lowest-priority seed.
    auto worst = std::min_element(seeds_.begin(), seeds_.end(),
                                  [](const Seed& a, const Seed& b) {
                                    return a.score < b.score;
                                  });
    if (worst != seeds_.end() && worst->score >= score) {
      THEMIS_COUNTER_INC("seed_pool.add_dropped", 1);
      return false;  // the pool is full of better seeds
    }
    if (worst != seeds_.end()) {
      seeds_.erase(worst);
      THEMIS_COUNTER_INC("seed_pool.evictions", 1);
    }
  }
  Seed seed;
  seed.seq = std::move(seq);
  seed.score = score;
  seed.id = next_id_++;
  seed.fingerprint = fingerprint;
  seed.imported = imported;
  seeds_.push_back(std::move(seed));
  return true;
}

void SeedPool::Add(OpSeq seq, double score) {
  uint64_t fingerprint = OpSeqFingerprint(seq);
  seen_.insert(fingerprint);
  // The fingerprint is remembered even when the insert is dropped;
  // adds counts only the inserts that passed the eviction gate.
  if (Insert(std::move(seq), score, fingerprint, /*imported=*/false)) {
    THEMIS_COUNTER_INC("seed_pool.adds", 1);
  }
}

bool SeedPool::ImportSeed(OpSeq seq, double score, uint64_t fingerprint) {
  if (seq.empty()) {
    THEMIS_COUNTER_INC("seed_pool.import_rejected", 1);
    return false;
  }
  if (!seen_.insert(fingerprint).second) {
    // Already added, imported, or evicted here. Merge energy into the
    // resident copy if one is still pooled: max() is commutative and
    // idempotent, so A,B and B,A import orders converge.
    for (Seed& seed : seeds_) {
      if (seed.fingerprint == fingerprint) {
        seed.score = std::max(seed.score, score);
        break;
      }
    }
    THEMIS_COUNTER_INC("seed_pool.import_dups", 1);
    return false;
  }
  if (!Insert(std::move(seq), score, fingerprint, /*imported=*/true)) {
    return false;
  }
  THEMIS_COUNTER_INC("seed_pool.imports", 1);
  return true;
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
  THEMIS_COUNTER_INC("seed_pool.selects", 1);
  return seeds_[index].seq;
}

void SeedPool::SaveState(SnapshotWriter& writer) const {
  writer.U64(seeds_.size());
  for (const Seed& seed : seeds_) {
    SaveOpSeq(writer, seed.seq);
    writer.F64(seed.score);
    writer.U64(seed.id);
    writer.I64(seed.selections);
    writer.U64(seed.fingerprint);
    writer.Bool(seed.imported);
  }
  writer.U64(next_id_);
  // Canonical encoding for the unordered set: sorted ascending.
  std::vector<uint64_t> seen(seen_.begin(), seen_.end());
  std::sort(seen.begin(), seen.end());
  writer.U64(seen.size());
  for (uint64_t fingerprint : seen) writer.U64(fingerprint);
}

Status SeedPool::RestoreState(SnapshotReader& reader) {
  uint64_t count = reader.Count(8 + 8 + 8 + 8 + 8 + 1);
  seeds_.clear();
  seeds_.resize(static_cast<size_t>(count));
  for (Seed& seed : seeds_) {
    RestoreOpSeq(reader, &seed.seq);
    seed.score = reader.F64();
    seed.id = reader.U64();
    seed.selections = static_cast<int>(reader.I64());
    seed.fingerprint = reader.U64();
    seed.imported = reader.Bool();
    if (!reader.ok()) break;
  }
  next_id_ = reader.U64();
  uint64_t seen_count = reader.Count(8);
  seen_.clear();
  uint64_t prev = 0;
  for (uint64_t i = 0; i < seen_count && reader.ok(); ++i) {
    uint64_t fingerprint = reader.U64();
    if (i > 0 && fingerprint <= prev) {
      reader.Fail("seed pool seen-fingerprint set not sorted/unique");
      break;
    }
    prev = fingerprint;
    seen_.insert(fingerprint);
  }
  if (reader.ok()) {
    for (const Seed& seed : seeds_) {
      if (seen_.count(seed.fingerprint) == 0) {
        reader.Fail("pooled seed fingerprint missing from seen set");
        break;
      }
    }
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
