// Operation sequences — the single test-case representation into which
// Themis folds both client requests and system configuration changes
// (paper Fig. 7 / §4.2).

#ifndef SRC_CORE_OPSEQ_H_
#define SRC_CORE_OPSEQ_H_

#include <string>
#include <vector>

#include "src/common/snapshot_io.h"
#include "src/dfs/operation.h"

namespace themis {

// max_n of the paper: Finding 5 observes that no studied imbalance failure
// needs more than 8 operations, so generated and mutated sequences stay
// within [1, kMaxOpSeqLen].
inline constexpr int kMaxOpSeqLen = 8;

struct OpSeq {
  std::vector<Operation> ops;

  bool empty() const { return ops.empty(); }
  size_t size() const { return ops.size(); }

  bool HasRequestOps() const;
  bool HasConfigOps() const;
  bool HasEnvFaultOps() const;

  // One operation per line, timestamp-free (the reproduction-log format).
  std::string ToString() const;
};

// Checkpoint serializers (DESIGN.md §11). RestoreOperation/RestoreOpSeq
// validate the operator tag; other operands are data, not invariants.
void SaveOperation(SnapshotWriter& writer, const Operation& op);
void RestoreOperation(SnapshotReader& reader, Operation* op);
void SaveOpSeq(SnapshotWriter& writer, const OpSeq& seq);
void RestoreOpSeq(SnapshotReader& reader, OpSeq* seq);

}  // namespace themis

#endif  // SRC_CORE_OPSEQ_H_
