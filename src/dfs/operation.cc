#include "src/dfs/operation.h"

#include "src/common/bytes.h"
#include "src/common/strings.h"

namespace themis {

std::string_view OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kCreate:
      return "create";
    case OpKind::kDelete:
      return "delete";
    case OpKind::kAppend:
      return "append";
    case OpKind::kOverwrite:
      return "overwrite";
    case OpKind::kOpen:
      return "open";
    case OpKind::kTruncateOverwrite:
      return "truncate-overwrite";
    case OpKind::kMkdir:
      return "mkdir";
    case OpKind::kRmdir:
      return "rmdir";
    case OpKind::kRename:
      return "rename";
    case OpKind::kAddMetaNode:
      return "add_MN";
    case OpKind::kRemoveMetaNode:
      return "remove_MN";
    case OpKind::kAddStorageNode:
      return "add_storage";
    case OpKind::kRemoveStorageNode:
      return "remove_storage";
    case OpKind::kAddVolume:
      return "add_volume";
    case OpKind::kRemoveVolume:
      return "remove_volume";
    case OpKind::kExpandVolume:
      return "expand_volume";
    case OpKind::kReduceVolume:
      return "reduce_volume";
    case OpKind::kEnvMsgLoss:
      return "env_msg_loss";
    case OpKind::kEnvMsgReorder:
      return "env_msg_reorder";
    case OpKind::kEnvMsgDuplicate:
      return "env_msg_duplicate";
    case OpKind::kEnvMsgCorrupt:
      return "env_msg_corrupt";
    case OpKind::kEnvSlowDisk:
      return "env_slow_disk";
    case OpKind::kEnvCrashNode:
      return "env_crash_node";
    case OpKind::kEnvClearFaults:
      return "env_clear_faults";
  }
  return "?";
}

OpKind OpKindFromIndex(int index) {
  return static_cast<OpKind>(index % kOpKindCount);
}

OpKind OpKindFromTotalIndex(int index) {
  return static_cast<OpKind>(index % kTotalOpKindCount);
}

std::string Operation::ToString() const {
  std::string out(OpKindName(kind));
  switch (ClassOf(kind)) {
    case OpClass::kFile:
      out += " ";
      out += path;
      if (kind == OpKind::kRename) {
        out += " -> " + path2;
      }
      if (kind == OpKind::kCreate || kind == OpKind::kAppend ||
          kind == OpKind::kOverwrite || kind == OpKind::kTruncateOverwrite) {
        out += " " + FormatBytes(size);
      }
      break;
    case OpClass::kNode:
      if (node != kInvalidNode) {
        out += Sprintf(" node%u", node);
      }
      break;
    case OpClass::kVolume:
      if (brick != kInvalidBrick) {
        out += Sprintf(" brick%u", brick);
      }
      if (kind == OpKind::kAddVolume || kind == OpKind::kExpandVolume ||
          kind == OpKind::kReduceVolume) {
        out += " " + FormatBytes(size);
      }
      break;
    case OpClass::kEnvFault:
      switch (kind) {
        case OpKind::kEnvMsgLoss:
        case OpKind::kEnvMsgReorder:
        case OpKind::kEnvMsgDuplicate:
        case OpKind::kEnvMsgCorrupt:
          out += Sprintf(" %llu/1000", static_cast<unsigned long long>(size));
          break;
        case OpKind::kEnvSlowDisk:
          out += Sprintf(" node%u x%llu%%", node,
                         static_cast<unsigned long long>(size));
          break;
        case OpKind::kEnvCrashNode:
          out += Sprintf(" node%u restart+%llus", node,
                         static_cast<unsigned long long>(size));
          break;
        case OpKind::kEnvClearFaults:
          break;
        default:
          break;
      }
      break;
  }
  return out;
}

}  // namespace themis
