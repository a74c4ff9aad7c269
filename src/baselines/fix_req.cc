#include "src/baselines/fix_req.h"

#include "src/common/bytes.h"

namespace themis {

FixReqStrategy::FixReqStrategy(InputModel& model, Rng& rng)
    : model_(model), rng_(rng), generator_(model), config_pool_(64) {}

OpSeq FixReqStrategy::FixedRequests(Rng& rng) {
  // The canned workload: what distributed benchmarks replay. Operand values
  // refresh (files must exist) but the operator mix never changes — that is
  // the point of this baseline.
  OpSeq seq;
  Operation create = generator_.GenerateOpOfKind(OpKind::kCreate, rng);
  seq.ops.push_back(create);
  Operation append = generator_.GenerateOpOfKind(OpKind::kAppend, rng);
  append.path = create.path;
  seq.ops.push_back(append);
  Operation open = generator_.GenerateOpOfKind(OpKind::kOpen, rng);
  seq.ops.push_back(open);
  seq.ops.push_back(generator_.GenerateOpOfKind(OpKind::kDelete, rng));
  return seq;
}

OpSeq FixReqStrategy::GenerateConfigSeq(int len) {
  OpSeq seq;
  for (int i = 0; i < len; ++i) {
    OpClass cls = rng_.Chance(0.5) ? OpClass::kNode : OpClass::kVolume;
    seq.ops.push_back(generator_.GenerateOpOfClass(cls, rng_));
  }
  return seq;
}

OpSeq FixReqStrategy::Next() {
  OpSeq config_seq;
  if (config_pool_.empty() || rng_.Chance(0.3)) {
    config_seq = GenerateConfigSeq(static_cast<int>(rng_.NextRange(1, 4)));
  } else {
    // Mutate a pooled configuration sequence (coverage-guided).
    config_seq = config_pool_.Select(rng_);
    size_t pos = config_seq.ops.empty() ? 0 : rng_.PickIndex(config_seq.ops.size());
    OpClass cls = rng_.Chance(0.5) ? OpClass::kNode : OpClass::kVolume;
    Operation fresh = generator_.GenerateOpOfClass(cls, rng_);
    if (config_seq.ops.empty()) {
      config_seq.ops.push_back(fresh);
    } else {
      config_seq.ops[pos] = fresh;
    }
  }
  last_config_seq_ = config_seq;

  // Interleave fixed requests with the explored configuration operations.
  OpSeq requests = FixedRequests(rng_);
  OpSeq combined;
  size_t r = 0;
  size_t c = 0;
  while (r < requests.ops.size() || c < config_seq.ops.size()) {
    if (r < requests.ops.size()) {
      combined.ops.push_back(requests.ops[r++]);
    }
    if (c < config_seq.ops.size()) {
      combined.ops.push_back(config_seq.ops[c++]);
    }
  }
  return combined;
}

void FixReqStrategy::OnOutcome(const OpSeq& seq, const ExecOutcome& outcome) {
  (void)seq;
  // Coverage-guided retention of the *configuration* part only.
  if (outcome.new_coverage > 0 || !outcome.failures.empty()) {
    config_pool_.Add(last_config_seq_,
                     0.1 * static_cast<double>(outcome.new_coverage) +
                         (outcome.failures.empty() ? 0.0 : 1.0));
  }
}

void FixReqStrategy::SaveState(SnapshotWriter& writer) const {
  config_pool_.SaveState(writer);
  SaveOpSeq(writer, last_config_seq_);
}

Status FixReqStrategy::RestoreState(SnapshotReader& reader) {
  Status status = config_pool_.RestoreState(reader);
  if (!status.ok()) return status;
  RestoreOpSeq(reader, &last_config_seq_);
  return reader.status();
}

}  // namespace themis
