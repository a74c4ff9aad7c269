#include "src/coverage/model_coverage.h"

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

ModelCoverage::ModelCoverage(Flavor flavor) : flavor_(flavor) {}

bool ModelCoverage::Transition(BalancerState to) {
  BalancerState from = current_;
  current_ = to;
  if (!IsLegalBalancerTransition(flavor_, from, to)) {
    ++illegal_;
  }
  size_t index = PairIndex(from, to);
  if (covered_.test(index)) {
    return false;
  }
  covered_.set(index);
  return true;
}

std::vector<std::pair<BalancerState, BalancerState>>
ModelCoverage::CoveredPairs() const {
  std::vector<std::pair<BalancerState, BalancerState>> pairs;
  pairs.reserve(covered_.count());
  for (size_t i = 0; i < covered_.size(); ++i) {
    if (covered_.test(i)) {
      pairs.emplace_back(static_cast<BalancerState>(i / kBalancerStateCount),
                         static_cast<BalancerState>(i % kBalancerStateCount));
    }
  }
  return pairs;
}

void ModelCoverage::Reset() {
  current_ = BalancerState::kIdle;
  covered_.reset();
  illegal_ = 0;
}

void ModelCoverage::SaveState(SnapshotWriter& writer) const {
  writer.U8(static_cast<uint8_t>(flavor_));
  writer.U8(static_cast<uint8_t>(current_));
  writer.U64(illegal_);
  std::vector<std::pair<BalancerState, BalancerState>> pairs = CoveredPairs();
  writer.U64(pairs.size());
  for (const auto& [from, to] : pairs) {
    writer.U8(static_cast<uint8_t>(from));
    writer.U8(static_cast<uint8_t>(to));
  }
}

Status ModelCoverage::RestoreState(SnapshotReader& reader) {
  uint8_t flavor = reader.U8();
  uint8_t current = reader.U8();
  uint64_t illegal = reader.U64();
  uint64_t pair_count = reader.Count(2);
  if (!reader.ok()) {
    return reader.status();
  }
  if (flavor != static_cast<uint8_t>(flavor_)) {
    reader.Fail("model coverage flavor mismatch");
    return reader.status();
  }
  auto in_machine = [&](uint8_t state) {
    return state < kBalancerStateCount &&
           BalancerStateBelongsTo(flavor_, static_cast<BalancerState>(state));
  };
  if (!in_machine(current)) {
    reader.Fail("model coverage: unknown balancer state id");
    return reader.status();
  }
  decltype(covered_) covered;
  for (uint64_t i = 0; i < pair_count; ++i) {
    uint8_t from = reader.U8();
    uint8_t to = reader.U8();
    if (!reader.ok()) {
      return reader.status();
    }
    if (!in_machine(from) || !in_machine(to)) {
      reader.Fail("model coverage: unknown balancer state id");
      return reader.status();
    }
    size_t index = PairIndex(static_cast<BalancerState>(from), static_cast<BalancerState>(to));
    if (covered.test(index)) {
      reader.Fail("model coverage: duplicate transition pair");
      return reader.status();
    }
    covered.set(index);
  }
  current_ = static_cast<BalancerState>(current);
  illegal_ = illegal;
  covered_ = covered;
  return Status::Ok();
}

}  // namespace themis
