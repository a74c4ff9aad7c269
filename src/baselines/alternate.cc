#include "src/baselines/alternate.h"

namespace themis {

AlternateStrategy::AlternateStrategy(InputModel& model, Rng& rng)
    : model_(model), rng_(rng), generator_(model), request_pool_(128) {}

OpSeq AlternateStrategy::NewConfigSeq() {
  int len = static_cast<int>(rng_.NextRange(1, 4));
  OpSeq seq;
  for (int i = 0; i < len; ++i) {
    OpClass cls = rng_.Chance(0.5) ? OpClass::kNode : OpClass::kVolume;
    seq.ops.push_back(generator_.GenerateOpOfClass(cls, rng_));
  }
  return seq;
}

OpSeq AlternateStrategy::RequestSeq() {
  if (!request_pool_.empty() && rng_.Chance(0.6)) {
    OpSeq seq = request_pool_.Select(rng_);
    if (!seq.ops.empty()) {
      seq.ops[rng_.PickIndex(seq.ops.size())] =
          generator_.GenerateOpOfClass(OpClass::kFile, rng_);
      return seq;
    }
  }
  int len = static_cast<int>(rng_.NextRange(2, kMaxOpSeqLen));
  OpSeq seq;
  for (int i = 0; i < len; ++i) {
    seq.ops.push_back(generator_.GenerateOpOfClass(OpClass::kFile, rng_));
  }
  return seq;
}

OpSeq AlternateStrategy::Next() {
  if (emit_config_next_) {
    emit_config_next_ = false;
    stale_iterations_ = 0;
    return NewConfigSeq();
  }
  return RequestSeq();
}

void AlternateStrategy::OnOutcome(const OpSeq& seq, const ExecOutcome& outcome) {
  if (seq.HasConfigOps()) {
    return;  // configuration epochs are not pooled
  }
  if (outcome.new_coverage > 0) {
    stale_iterations_ = 0;
    request_pool_.Add(seq, 0.1 * static_cast<double>(outcome.new_coverage));
  } else {
    ++stale_iterations_;
    if (stale_iterations_ >= kConvergencePatience) {
      // Request-space exploration converged: move to the next configuration.
      emit_config_next_ = true;
    }
  }
  if (!outcome.failures.empty()) {
    request_pool_.Add(seq, 1.0);
  }
}

void AlternateStrategy::SaveState(SnapshotWriter& writer) const {
  request_pool_.SaveState(writer);
  writer.I64(stale_iterations_);
  writer.Bool(emit_config_next_);
}

Status AlternateStrategy::RestoreState(SnapshotReader& reader) {
  Status status = request_pool_.RestoreState(reader);
  if (!status.ok()) return status;
  stale_iterations_ = static_cast<int>(reader.I64());
  emit_config_next_ = reader.Bool();
  return reader.status();
}

}  // namespace themis
