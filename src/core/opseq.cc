#include "src/core/opseq.h"

#include "src/common/strings.h"

namespace themis {

bool OpSeq::HasRequestOps() const {
  for (const Operation& op : ops) {
    if (ClassOf(op.kind) == OpClass::kFile) {
      return true;
    }
  }
  return false;
}

bool OpSeq::HasConfigOps() const {
  for (const Operation& op : ops) {
    if (IsConfigOp(op.kind)) {
      return true;
    }
  }
  return false;
}

bool OpSeq::HasEnvFaultOps() const {
  for (const Operation& op : ops) {
    if (IsEnvFaultOp(op.kind)) {
      return true;
    }
  }
  return false;
}

void SaveOperation(SnapshotWriter& writer, const Operation& op) {
  writer.U8(static_cast<uint8_t>(op.kind));
  writer.Str(op.path);
  writer.Str(op.path2);
  writer.U32(op.node);
  writer.U32(op.brick);
  writer.U64(op.size);
}

void RestoreOperation(SnapshotReader& reader, Operation* op) {
  uint8_t kind = reader.U8();
  if (reader.ok() && kind >= kTotalOpKindCount) {
    reader.Fail(Sprintf("operation kind %u out of range", kind));
    return;
  }
  op->kind = static_cast<OpKind>(kind);
  op->path = reader.Str();
  op->path2 = reader.Str();
  op->node = reader.U32();
  op->brick = reader.U32();
  op->size = reader.U64();
}

void SaveOpSeq(SnapshotWriter& writer, const OpSeq& seq) {
  writer.U64(seq.ops.size());
  for (const Operation& op : seq.ops) SaveOperation(writer, op);
}

void RestoreOpSeq(SnapshotReader& reader, OpSeq* seq) {
  // Smallest operation encoding: kind + two empty strings + ids + size.
  uint64_t count = reader.Count(1 + 8 + 8 + 4 + 4 + 8);
  seq->ops.clear();
  seq->ops.resize(static_cast<size_t>(count));
  for (Operation& op : seq->ops) {
    RestoreOperation(reader, &op);
    if (!reader.ok()) return;
  }
}

std::string OpSeq::ToString() const {
  std::string out;
  for (const Operation& op : ops) {
    out += op.ToString();
    out += '\n';
  }
  return out;
}

}  // namespace themis
