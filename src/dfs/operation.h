// The operation model of the paper's test-case specification (Fig. 7):
//
//   testcase:  operation+            // operation sequence opSeq
//   operation: opt opd+              // operator + operands
//   opt:       file_op | node_op | volume_op | env_fault
//   file_op:   create | delete | append | overwrite | open
//            | truncate-overwrite | mkdir | rmdir | rename
//   node_op:   add_MN | remove_MN | add_storage | remove_storage
//   volume_op: add_volume | remove_volume | expand_volume | reduce_volume
//   env_fault: msg_loss | msg_reorder | msg_duplicate | msg_corrupt
//            | slow_disk | crash_node | clear_faults
//   opd:       fileName | nodeId | size
//
// Both client requests (file_op) and system configuration changes (node_op,
// volume_op) are expressed in this single vocabulary — the key modeling move
// of Themis. env_fault extends the vocabulary with environment faults
// (DESIGN.md §14): the operators are opt-in (never drawn by the fault-free
// grammar, whose uniform 1/t draw is over the original 17) and are executed
// by routing them into the campaign's EnvFaultInjector schedule rather than
// the cluster namespace.

#ifndef SRC_DFS_OPERATION_H_
#define SRC_DFS_OPERATION_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/clock.h"
#include "src/common/status.h"
#include "src/dfs/types.h"

namespace themis {

enum class OpKind : uint8_t {
  // file_op (client requests)
  kCreate = 0,
  kDelete,
  kAppend,
  kOverwrite,
  kOpen,
  kTruncateOverwrite,
  kMkdir,
  kRmdir,
  kRename,
  // node_op (system configuration)
  kAddMetaNode,
  kRemoveMetaNode,
  kAddStorageNode,
  kRemoveStorageNode,
  // volume_op (system configuration)
  kAddVolume,
  kRemoveVolume,
  kExpandVolume,
  kReduceVolume,
  // env_fault (environment faults — the third input class, appended after
  // the paper's 17 operators so every serialized index of the original
  // grammar is unchanged). Message faults carry a per-mille rate in `size`;
  // slow-disk carries the target node and a slowdown percent; crash carries
  // the victim node and a restart delay in virtual seconds.
  kEnvMsgLoss,
  kEnvMsgReorder,
  kEnvMsgDuplicate,
  kEnvMsgCorrupt,
  kEnvSlowDisk,
  kEnvCrashNode,
  kEnvClearFaults,
};

// Number of distinct load-related operators (t = 17 in the paper). The
// uniform 1/t draw of the fault-free grammar is over exactly these.
constexpr int kOpKindCount = 17;
// Environment-fault operators appended behind the paper grammar.
constexpr int kEnvFaultKindCount = 7;
// Every operator, env faults included.
constexpr int kTotalOpKindCount = kOpKindCount + kEnvFaultKindCount;

// Environment-fault operand grammar bounds (DESIGN.md §14). The generator
// draws inside them, the mutator's repair pass clamps stale operands back to
// them, and the EnvFaultInjector clamps hand-written replay logs the same
// way — so an in-grammar opSeq stays in-grammar under any mutation chain.
inline constexpr uint64_t kEnvMinRatePermille = 1;
inline constexpr uint64_t kEnvMaxRatePermille = 500;
inline constexpr uint64_t kEnvMinSlowFactorPercent = 110;
inline constexpr uint64_t kEnvMaxSlowFactorPercent = 1000;
inline constexpr uint64_t kEnvMinCrashDelaySeconds = 1;
inline constexpr uint64_t kEnvMaxCrashDelaySeconds = 3600;

enum class OpClass : uint8_t {
  kFile = 0,      // client request input space
  kNode = 1,      // configuration input space (membership)
  kVolume = 2,    // configuration input space (volumes)
  kEnvFault = 3,  // environment-fault input space (faults, crashes)
};

// Inline: every executed op and every fault-trigger window asks.
constexpr OpClass ClassOf(OpKind kind) {
  switch (kind) {
    case OpKind::kCreate:
    case OpKind::kDelete:
    case OpKind::kAppend:
    case OpKind::kOverwrite:
    case OpKind::kOpen:
    case OpKind::kTruncateOverwrite:
    case OpKind::kMkdir:
    case OpKind::kRmdir:
    case OpKind::kRename:
      return OpClass::kFile;
    case OpKind::kAddMetaNode:
    case OpKind::kRemoveMetaNode:
    case OpKind::kAddStorageNode:
    case OpKind::kRemoveStorageNode:
      return OpClass::kNode;
    case OpKind::kAddVolume:
    case OpKind::kRemoveVolume:
    case OpKind::kExpandVolume:
    case OpKind::kReduceVolume:
      return OpClass::kVolume;
    case OpKind::kEnvMsgLoss:
    case OpKind::kEnvMsgReorder:
    case OpKind::kEnvMsgDuplicate:
    case OpKind::kEnvMsgCorrupt:
    case OpKind::kEnvSlowDisk:
    case OpKind::kEnvCrashNode:
    case OpKind::kEnvClearFaults:
      return OpClass::kEnvFault;
  }
  return OpClass::kFile;
}

// node_op or volume_op
constexpr bool IsConfigOp(OpKind kind) {
  OpClass cls = ClassOf(kind);
  return cls == OpClass::kNode || cls == OpClass::kVolume;
}

// env_fault
constexpr bool IsEnvFaultOp(OpKind kind) { return ClassOf(kind) == OpClass::kEnvFault; }

std::string_view OpKindName(OpKind kind);
OpKind OpKindFromIndex(int index);     // index in [0, kOpKindCount)
OpKind OpKindFromTotalIndex(int index);  // index in [0, kTotalOpKindCount)

// A fully instantiated operation. Which fields are meaningful depends on the
// operator, mirroring "the number and contents of operands opd are determined
// by the operator opt".
struct Operation {
  OpKind kind = OpKind::kOpen;
  std::string path;    // fileName operand (file ops; also rename source)
  std::string path2;   // rename target
  NodeId node = kInvalidNode;    // nodeId operand (node ops)
  BrickId brick = kInvalidBrick; // volume ops target brick
  uint64_t size = 0;   // size operand (bytes)

  // Memoized interned-path resolution (dfs/path_table.h): `generation`
  // names the PathTable id space the ids were minted against; ids are
  // re-resolved on mismatch. Stamped lazily by NamespaceTree::ResolveOpPath*
  // on first execution, carried along by copies (mutation, seed pool,
  // double-check re-execution), and never serialized. Any code that rewrites
  // `path`/`path2` on an op that may already have executed must reset this
  // to {} — the ids would otherwise keep naming the old operands.
  struct PathCache {
    uint64_t generation = 0;
    PathId id = kInvalidPathId;
    PathId id2 = kInvalidPathId;
  };
  mutable PathCache path_cache;

  std::string ToString() const;
};

// Outcome of executing one operation against a cluster.
struct OpResult {
  Status status;
  SimDuration cost = 0;  // virtual time consumed
};

}  // namespace themis

#endif  // SRC_DFS_OPERATION_H_
