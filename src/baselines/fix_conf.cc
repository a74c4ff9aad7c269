#include "src/baselines/fix_conf.h"

namespace themis {

FixConfStrategy::FixConfStrategy(InputModel& model, Rng& rng)
    : model_(model), rng_(rng), generator_(model), request_pool_(128) {}

OpSeq FixConfStrategy::RequestSeq() {
  int len = static_cast<int>(rng_.NextRange(2, kMaxOpSeqLen));
  OpSeq seq;
  for (int i = 0; i < len; ++i) {
    seq.ops.push_back(generator_.GenerateOpOfClass(OpClass::kFile, rng_));
  }
  return seq;
}

OpSeq FixConfStrategy::Next() {
  if (prelude_pending_) {
    // The fixed deployment configuration, applied once: scale out by one
    // storage node and one volume (a typical benchmark cluster setup).
    prelude_pending_ = false;
    OpSeq prelude;
    prelude.ops.push_back(generator_.GenerateOpOfKind(OpKind::kAddStorageNode, rng_));
    prelude.ops.push_back(generator_.GenerateOpOfKind(OpKind::kAddVolume, rng_));
    return prelude;
  }
  if (request_pool_.empty() || rng_.Chance(0.4)) {
    return RequestSeq();
  }
  // Mutate a pooled request sequence.
  OpSeq seq = request_pool_.Select(rng_);
  if (seq.ops.empty()) {
    return RequestSeq();
  }
  seq.ops[rng_.PickIndex(seq.ops.size())] =
      generator_.GenerateOpOfClass(OpClass::kFile, rng_);
  return seq;
}

void FixConfStrategy::OnOutcome(const OpSeq& seq, const ExecOutcome& outcome) {
  if (!outcome.failures.empty()) {
    // The cluster was reset: replay the configuration prelude first.
    prelude_pending_ = true;
  }
  if (seq.HasConfigOps()) {
    return;  // never pool the prelude
  }
  if (outcome.new_coverage > 0 || !outcome.failures.empty()) {
    request_pool_.Add(seq, 0.1 * static_cast<double>(outcome.new_coverage) +
                               (outcome.failures.empty() ? 0.0 : 1.0));
  }
}

void FixConfStrategy::SaveState(SnapshotWriter& writer) const {
  request_pool_.SaveState(writer);
  writer.Bool(prelude_pending_);
}

Status FixConfStrategy::RestoreState(SnapshotReader& reader) {
  Status status = request_pool_.RestoreState(reader);
  if (!status.ok()) return status;
  prelude_pending_ = reader.Bool();
  return reader.status();
}

}  // namespace themis
