#include "src/core/generator.h"

namespace themis {

namespace {

const OpKind kFileKinds[] = {
    OpKind::kCreate,  OpKind::kDelete, OpKind::kAppend,
    OpKind::kOverwrite, OpKind::kOpen, OpKind::kTruncateOverwrite,
    OpKind::kMkdir,   OpKind::kRmdir,  OpKind::kRename,
};
const OpKind kNodeKinds[] = {
    OpKind::kAddMetaNode,
    OpKind::kRemoveMetaNode,
    OpKind::kAddStorageNode,
    OpKind::kRemoveStorageNode,
};
const OpKind kVolumeKinds[] = {
    OpKind::kAddVolume,
    OpKind::kRemoveVolume,
    OpKind::kExpandVolume,
    OpKind::kReduceVolume,
};
const OpKind kEnvKinds[] = {
    OpKind::kEnvMsgLoss,   OpKind::kEnvMsgReorder, OpKind::kEnvMsgDuplicate,
    OpKind::kEnvMsgCorrupt, OpKind::kEnvSlowDisk,  OpKind::kEnvCrashNode,
    OpKind::kEnvClearFaults,
};

// Environment-fault operand bounds; mirrored by EnvFaultInjector's clamps
// and by OpSeqMutator's repair pass (src/faults/env_fault.h).
constexpr int64_t kMinRatePermille = 1;
constexpr int64_t kMaxRatePermille = 500;
constexpr int64_t kMinSlowFactorPercent = 110;
constexpr int64_t kMaxSlowFactorPercent = 1000;
// Generated crash delays start at 30s so the crashed window is long enough
// for the balancer to be exercised while the node is away; the grammar bound
// the injector accepts is [1, 3600].
constexpr int64_t kMinCrashDelaySeconds = 30;
constexpr int64_t kMaxCrashDelaySeconds = 3600;

}  // namespace

OpSeqGenerator::OpSeqGenerator(InputModel& model) : model_(model) {}

OpSeq OpSeqGenerator::Generate(Rng& rng, int len) {
  if (len <= 0) {
    len = static_cast<int>(rng.NextRange(1, kMaxOpSeqLen));
  }
  OpSeq seq;
  seq.ops.reserve(static_cast<size_t>(len));
  for (int i = 0; i < len; ++i) {
    seq.ops.push_back(GenerateOp(rng));
  }
  return seq;
}

Operation OpSeqGenerator::GenerateOp(Rng& rng) {
  // The share guard must short-circuit before Chance(): Chance(0.0) still
  // consumes a draw, which would shift every fault-free RNG stream.
  if (env_fault_share_ > 0.0 && rng.Chance(env_fault_share_)) {
    return GenerateOpOfClass(OpClass::kEnvFault, rng);
  }
  // Uniform probability 1/t over all t = 17 operators.
  return GenerateOpOfKind(OpKindFromIndex(static_cast<int>(rng.NextBelow(kOpKindCount))),
                          rng);
}

Operation OpSeqGenerator::GenerateOpOfClass(OpClass op_class, Rng& rng) {
  switch (op_class) {
    case OpClass::kFile:
      return GenerateOpOfKind(kFileKinds[rng.PickIndex(9)], rng);
    case OpClass::kNode:
      return GenerateOpOfKind(kNodeKinds[rng.PickIndex(4)], rng);
    case OpClass::kVolume:
      return GenerateOpOfKind(kVolumeKinds[rng.PickIndex(4)], rng);
    case OpClass::kEnvFault:
      return GenerateOpOfKind(kEnvKinds[rng.PickIndex(kEnvFaultKindCount)], rng);
  }
  return GenerateOp(rng);
}

Operation OpSeqGenerator::GenerateOpOfKind(OpKind kind, Rng& rng) {
  Operation op;
  op.kind = kind;
  switch (kind) {
    case OpKind::kCreate:
      // "Either selects an existing FileName ... or creates a new FileName":
      // creating over an existing path exercises the ALREADY_EXISTS path.
      op.path = rng.Chance(0.85) ? model_.NewFileName(rng) : model_.ExistingFile(rng);
      op.size = model_.GenerateSize(rng);
      break;
    case OpKind::kDelete:
    case OpKind::kOpen:
      op.path = model_.ExistingFile(rng);
      break;
    case OpKind::kAppend:
    case OpKind::kOverwrite:
    case OpKind::kTruncateOverwrite:
      op.path = model_.ExistingFile(rng);
      op.size = model_.GenerateSize(rng);
      break;
    case OpKind::kMkdir:
      op.path = model_.NewDirName(rng);
      break;
    case OpKind::kRmdir:
      op.path = model_.ExistingDir(rng);
      break;
    case OpKind::kRename:
      op.path = model_.ExistingFile(rng);
      op.path2 = model_.NewFileName(rng);
      break;
    case OpKind::kAddMetaNode:
      break;  // no operands: the system assigns the id
    case OpKind::kRemoveMetaNode:
      op.node = model_.RandomMetaNode(rng);
      break;
    case OpKind::kAddStorageNode:
      break;
    case OpKind::kRemoveStorageNode:
      op.node = model_.RandomStorageNode(rng);
      break;
    case OpKind::kAddVolume:
      op.node = rng.Chance(0.5) ? model_.RandomStorageNode(rng) : kInvalidNode;
      op.size = model_.GenerateCapacityDelta(rng);
      break;
    case OpKind::kRemoveVolume:
      op.brick = model_.RandomBrick(rng);
      break;
    case OpKind::kExpandVolume:
    case OpKind::kReduceVolume:
      op.brick = model_.RandomBrick(rng);
      op.size = model_.GenerateCapacityDelta(rng);
      break;
    case OpKind::kEnvMsgLoss:
    case OpKind::kEnvMsgReorder:
    case OpKind::kEnvMsgDuplicate:
    case OpKind::kEnvMsgCorrupt:
      op.size = static_cast<uint64_t>(
          rng.NextRange(kMinRatePermille, kMaxRatePermille));
      break;
    case OpKind::kEnvSlowDisk:
      op.node = model_.RandomStorageNode(rng);
      op.size = static_cast<uint64_t>(
          rng.NextRange(kMinSlowFactorPercent, kMaxSlowFactorPercent));
      break;
    case OpKind::kEnvCrashNode:
      // Crashing a metadata node halts the balancer mid-round (the
      // interesting schedule); weight the victim draw toward storage nodes
      // so plain data-unavailability windows stay represented too.
      op.node = rng.Chance(0.3) ? model_.RandomMetaNode(rng)
                                : model_.RandomStorageNode(rng);
      op.size = static_cast<uint64_t>(
          rng.NextRange(kMinCrashDelaySeconds, kMaxCrashDelaySeconds));
      break;
    case OpKind::kEnvClearFaults:
      break;  // no operands
  }
  return op;
}

}  // namespace themis
