#include "src/coverage/model_coverage.h"

#include <algorithm>

namespace themis {

namespace {

// One declared machine per flavor: the ordered planning phases, the state
// while planned moves drain, and the settle state. Generic edges (idle,
// crashed) are shared and added in IsLegalBalancerTransition.
struct BalancerMachine {
  BalancerState phases[2];  // planning phases, in order
  int phase_count;
  BalancerState move;
  BalancerState settle;
};

BalancerMachine MachineFor(Flavor flavor) {
  switch (flavor) {
    case Flavor::kGluster:
      return {{BalancerState::kGlusterFixLayout, BalancerState::kIdle},
              1,
              BalancerState::kGlusterMigrateData,
              BalancerState::kGlusterSettle};
    case Flavor::kCeph:
      return {{BalancerState::kCephUpmapCompute, BalancerState::kIdle},
              1,
              BalancerState::kCephApply,
              BalancerState::kCephSettle};
    case Flavor::kLeo:
      return {{BalancerState::kLeoRingPlan, BalancerState::kIdle},
              1,
              BalancerState::kLeoTakeover,
              BalancerState::kLeoSettle};
    case Flavor::kGeo:
      return {{BalancerState::kGeoSiteDrain, BalancerState::kIdle},
              1,
              BalancerState::kGeoGroupRebalance,
              BalancerState::kGeoSettle};
    case Flavor::kHdfs:
    case Flavor::kCustom:  // custom clusters are generic levelers
    default:
      return {{BalancerState::kHdfsIteration, BalancerState::kHdfsPairing},
              2,
              BalancerState::kHdfsBlockMove,
              BalancerState::kHdfsSettle};
  }
}

}  // namespace

std::string_view BalancerStateName(BalancerState state) {
  switch (state) {
    case BalancerState::kIdle: return "idle";
    case BalancerState::kCrashed: return "crashed";
    case BalancerState::kGlusterFixLayout: return "gluster.fix_layout";
    case BalancerState::kGlusterMigrateData: return "gluster.migrate_data";
    case BalancerState::kGlusterSettle: return "gluster.settle";
    case BalancerState::kHdfsIteration: return "hdfs.iteration";
    case BalancerState::kHdfsPairing: return "hdfs.pairing";
    case BalancerState::kHdfsBlockMove: return "hdfs.block_move";
    case BalancerState::kHdfsSettle: return "hdfs.settle";
    case BalancerState::kCephUpmapCompute: return "ceph.upmap_compute";
    case BalancerState::kCephApply: return "ceph.apply";
    case BalancerState::kCephSettle: return "ceph.settle";
    case BalancerState::kLeoRingPlan: return "leo.ring_plan";
    case BalancerState::kLeoTakeover: return "leo.takeover";
    case BalancerState::kLeoSettle: return "leo.settle";
    case BalancerState::kGeoSiteDrain: return "geo.site_drain";
    case BalancerState::kGeoGroupRebalance: return "geo.group_rebalance";
    case BalancerState::kGeoSettle: return "geo.settle";
    case BalancerState::kCount: break;
  }
  return "invalid";
}

bool BalancerStateBelongsTo(Flavor flavor, BalancerState state) {
  if (state == BalancerState::kIdle || state == BalancerState::kCrashed) {
    return true;
  }
  BalancerMachine m = MachineFor(flavor);
  for (int i = 0; i < m.phase_count; ++i) {
    if (state == m.phases[i]) {
      return true;
    }
  }
  return state == m.move || state == m.settle;
}

bool IsLegalBalancerTransition(Flavor flavor, BalancerState from,
                               BalancerState to) {
  BalancerMachine m = MachineFor(flavor);
  BalancerState last_phase = m.phases[m.phase_count - 1];
  // Planning chain: idle -> p1 -> ... -> p_last.
  if (from == BalancerState::kIdle && to == m.phases[0]) {
    return true;
  }
  for (int i = 0; i + 1 < m.phase_count; ++i) {
    if (from == m.phases[i] && to == m.phases[i + 1]) {
      return true;
    }
  }
  // Non-empty plan drains; an empty plan settles straight away.
  if (from == last_phase && (to == m.move || to == m.settle)) {
    return true;
  }
  if (from == m.move && to == m.settle) {
    return true;
  }
  if (from == m.settle && to == BalancerState::kIdle) {
    return true;
  }
  // Env-fault crash can only land on a steady state (idle or draining) —
  // planning and settling are synchronous; restart brings the daemon back
  // to idle (a pending round re-enters the planning chain from there).
  if (to == BalancerState::kCrashed &&
      (from == BalancerState::kIdle || from == m.move)) {
    return true;
  }
  if (from == BalancerState::kCrashed && to == BalancerState::kIdle) {
    return true;
  }
  return false;
}

BalancerState BalancerMoveState(Flavor flavor) { return MachineFor(flavor).move; }

BalancerState BalancerSettleState(Flavor flavor) {
  return MachineFor(flavor).settle;
}

ModelCoverage::ModelCoverage(Flavor flavor)
    : flavor_(flavor),
      pair_counts_(kBalancerStateCount * kBalancerStateCount, 0) {}

bool ModelCoverage::Transition(BalancerState to) {
  BalancerState from = current_;
  current_ = to;
  if (!IsLegalBalancerTransition(flavor_, from, to)) {
    ++illegal_;
  }
  uint64_t& count = pair_counts_[PairIndex(from, to)];
  ++count;
  ++total_;
  if (count == 1) {
    ++covered_;
    return true;
  }
  return false;
}

uint64_t ModelCoverage::PairCount(BalancerState from, BalancerState to) const {
  return pair_counts_[PairIndex(from, to)];
}

std::vector<std::pair<BalancerState, BalancerState>>
ModelCoverage::CoveredPairs() const {
  std::vector<std::pair<BalancerState, BalancerState>> pairs;
  pairs.reserve(covered_);
  for (size_t i = 0; i < pair_counts_.size(); ++i) {
    if (pair_counts_[i] == 0) {
      continue;
    }
    pairs.emplace_back(static_cast<BalancerState>(i / kBalancerStateCount),
                       static_cast<BalancerState>(i % kBalancerStateCount));
  }
  return pairs;
}

void ModelCoverage::Reset() {
  current_ = BalancerState::kIdle;
  std::fill(pair_counts_.begin(), pair_counts_.end(), 0);
  covered_ = 0;
  total_ = 0;
  illegal_ = 0;
}

void ModelCoverage::SaveState(SnapshotWriter& writer) const {
  writer.U8(static_cast<uint8_t>(flavor_));
  writer.U8(static_cast<uint8_t>(current_));
  writer.U64(total_);
  writer.U64(illegal_);
  writer.U64(covered_);
  for (size_t i = 0; i < pair_counts_.size(); ++i) {
    if (pair_counts_[i] == 0) {
      continue;
    }
    writer.U8(static_cast<uint8_t>(i / kBalancerStateCount));
    writer.U8(static_cast<uint8_t>(i % kBalancerStateCount));
    writer.U64(pair_counts_[i]);
  }
}

Status ModelCoverage::RestoreState(SnapshotReader& reader) {
  uint8_t flavor = reader.U8();
  uint8_t current = reader.U8();
  uint64_t total = reader.U64();
  uint64_t illegal = reader.U64();
  uint64_t covered = reader.U64();
  if (!reader.ok()) {
    return reader.status();
  }
  if (flavor != static_cast<uint8_t>(flavor_)) {
    reader.Fail("model coverage flavor mismatch");
    return reader.status();
  }
  if (current >= kBalancerStateCount ||
      !BalancerStateBelongsTo(flavor_, static_cast<BalancerState>(current))) {
    reader.Fail("model coverage: unknown balancer state id");
    return reader.status();
  }
  std::vector<uint64_t> counts(kBalancerStateCount * kBalancerStateCount, 0);
  if (covered > counts.size()) {
    reader.Fail("model coverage: transition count overflow");
    return reader.status();
  }
  uint64_t sum = 0;
  uint64_t distinct = 0;
  for (uint64_t i = 0; i < covered; ++i) {
    uint8_t from = reader.U8();
    uint8_t to = reader.U8();
    uint64_t count = reader.U64();
    if (!reader.ok()) {
      return reader.status();
    }
    if (from >= kBalancerStateCount || to >= kBalancerStateCount ||
        !BalancerStateBelongsTo(flavor_, static_cast<BalancerState>(from)) ||
        !BalancerStateBelongsTo(flavor_, static_cast<BalancerState>(to))) {
      reader.Fail("model coverage: unknown balancer state id");
      return reader.status();
    }
    if (count == 0) {
      reader.Fail("model coverage: empty transition pair");
      return reader.status();
    }
    size_t index = static_cast<size_t>(from) * kBalancerStateCount + to;
    if (counts[index] != 0) {
      reader.Fail("model coverage: duplicate transition pair");
      return reader.status();
    }
    counts[index] = count;
    ++distinct;
    if (sum + count < sum) {
      reader.Fail("model coverage: transition count overflow");
      return reader.status();
    }
    sum += count;
  }
  if (sum != total || distinct != covered) {
    reader.Fail("model coverage: transition count overflow");
    return reader.status();
  }
  current_ = static_cast<BalancerState>(current);
  total_ = total;
  illegal_ = illegal;
  covered_ = static_cast<size_t>(covered);
  pair_counts_ = std::move(counts);
  return Status::Ok();
}

}  // namespace themis
