#include "src/core/mutator.h"

#include <algorithm>

namespace themis {

namespace {

const char* MutationKindLabel(int kind) {
  switch (kind) {
    case 0:
      return "replace";
    case 1:
      return "delete";
    case 2:
      return "insert";
  }
  return "?";
}

}  // namespace

OpSeqMutator::OpSeqMutator(InputModel& model, OpSeqGenerator& generator)
    : model_(model), generator_(generator) {}

OpSeq OpSeqMutator::Mutate(const OpSeq& seed, Rng& rng) {
  // Pick k <= length(opSeq) mutation positions.
  int k = seed.ops.empty()
              ? 1
              : static_cast<int>(rng.NextRange(1, static_cast<int64_t>(seed.ops.size())));
  return MutateK(seed, k, rng);
}

OpSeq OpSeqMutator::MutateLight(const OpSeq& seed, Rng& rng) {
  return MutateK(seed, 1, rng);
}

OpSeq OpSeqMutator::MutateK(const OpSeq& seed, int k, Rng& rng) {
  OpSeq out = seed;
  if (out.ops.empty()) {
    out = generator_.Generate(rng);
    return out;
  }
  uint64_t applied[3] = {0, 0, 0};  // per-kind application counts
  for (int i = 0; i < k && !out.ops.empty(); ++i) {
    size_t pos = rng.PickIndex(out.ops.size());
    MutationKind kind = static_cast<MutationKind>(rng.NextBelow(3));
    ++applied[static_cast<int>(kind)];
    switch (kind) {
      case MutationKind::kReplace:
        out.ops[pos] = generator_.GenerateOp(rng);
        break;
      case MutationKind::kDelete:
        if (out.ops.size() > 1) {
          out.ops.erase(out.ops.begin() + static_cast<ptrdiff_t>(pos));
        } else {
          out.ops[pos] = generator_.GenerateOp(rng);
        }
        break;
      case MutationKind::kInsert:
        if (static_cast<int>(out.ops.size()) < kMaxOpSeqLen) {
          out.ops.insert(out.ops.begin() + static_cast<ptrdiff_t>(pos),
                         generator_.GenerateOp(rng));
        } else {
          out.ops[pos] = generator_.GenerateOp(rng);
        }
        break;
    }
  }
  Repair(out, rng);
  if (telemetry_ != nullptr) {
    for (int kind = 0; kind < 3; ++kind) {
      if (applied[kind] > 0) {
        telemetry_->Record(CampaignEventKind::kMutation, MutationKindLabel(kind),
                           0.0, 0.0, applied[kind]);
      }
    }
  }
  return out;
}

void OpSeqMutator::Repair(OpSeq& seq, Rng& rng) {
  // "Scan all its opts and check whether an opt references a file or node
  // that no longer exists; if such a reference is found, replace with a
  // random one." Live references are kept — a retained seed must keep its
  // targeted operands, or the feedback loop has nothing to exploit.
  for (Operation& op : seq.ops) {
    switch (op.kind) {
      case OpKind::kDelete:
      case OpKind::kOpen:
      case OpKind::kAppend:
      case OpKind::kOverwrite:
      case OpKind::kTruncateOverwrite:
      case OpKind::kRename:
        if (!model_.HasFile(op.path) && rng.Chance(0.9)) {
          op.path = model_.ExistingFile(rng);
          // The memoized PathId still names the old operand — drop it.
          op.path_cache = {};
        }
        break;
      case OpKind::kRemoveMetaNode:
        if (!model_.HasMetaNode(op.node)) {
          op.node = model_.RandomMetaNode(rng);
        }
        break;
      case OpKind::kRemoveStorageNode:
        if (!model_.HasStorageNode(op.node)) {
          op.node = model_.RandomStorageNode(rng);
        }
        break;
      case OpKind::kRemoveVolume:
      case OpKind::kExpandVolume:
      case OpKind::kReduceVolume:
        if (!model_.HasBrick(op.brick)) {
          op.brick = model_.RandomBrick(rng);
        }
        break;
      // Env-fault operands: clamp rates/factors/delays back into the grammar
      // bounds (a stale bound never survives a mutation round) and rebind
      // vanished nodes like the node/volume operators above.
      case OpKind::kEnvMsgLoss:
      case OpKind::kEnvMsgReorder:
      case OpKind::kEnvMsgDuplicate:
      case OpKind::kEnvMsgCorrupt:
        op.size = std::clamp(op.size, kEnvMinRatePermille, kEnvMaxRatePermille);
        break;
      case OpKind::kEnvSlowDisk:
        if (!model_.HasStorageNode(op.node)) {
          op.node = model_.RandomStorageNode(rng);
        }
        op.size = std::clamp(op.size, kEnvMinSlowFactorPercent,
                             kEnvMaxSlowFactorPercent);
        break;
      case OpKind::kEnvCrashNode:
        if (!model_.HasMetaNode(op.node) && !model_.HasStorageNode(op.node)) {
          op.node = model_.RandomStorageNode(rng);
        }
        op.size = std::clamp(op.size, kEnvMinCrashDelaySeconds,
                             kEnvMaxCrashDelaySeconds);
        break;
      default:
        break;
    }
  }
}

}  // namespace themis
