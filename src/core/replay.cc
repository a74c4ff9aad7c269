#include "src/core/replay.h"

#include <charconv>

#include "src/common/strings.h"
#include "src/monitor/load_model.h"

namespace themis {

namespace {

// Machine-readable operator tokens (OpKindName uses 'truncate-overwrite'
// etc., which are already token-safe).
Result<OpKind> KindFromToken(std::string_view token) {
  for (int i = 0; i < kTotalOpKindCount; ++i) {
    OpKind kind = OpKindFromTotalIndex(i);
    if (OpKindName(kind) == token) {
      return kind;
    }
  }
  return Status::InvalidArgument("unknown operator '" + std::string(token) + "'");
}

Result<uint64_t> ParseU64(std::string_view text) {
  uint64_t value = 0;
  auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    return Status::InvalidArgument("bad number '" + std::string(text) + "'");
  }
  return value;
}

// key=value operand, e.g. "size=123", "node=7", "brick=9".
Result<uint64_t> ParseKeyedU64(std::string_view token, std::string_view key) {
  std::string prefix = std::string(key) + "=";
  if (!StartsWith(token, prefix)) {
    return Status::InvalidArgument("expected '" + prefix + "...', got '" +
                                   std::string(token) + "'");
  }
  return ParseU64(token.substr(prefix.size()));
}

}  // namespace

std::string FormatOperation(const Operation& op) {
  std::string out(OpKindName(op.kind));
  switch (op.kind) {
    case OpKind::kCreate:
    case OpKind::kAppend:
    case OpKind::kOverwrite:
    case OpKind::kTruncateOverwrite:
      out += " " + op.path + Sprintf(" size=%llu",
                                     static_cast<unsigned long long>(op.size));
      break;
    case OpKind::kDelete:
    case OpKind::kOpen:
    case OpKind::kMkdir:
    case OpKind::kRmdir:
      out += " " + op.path;
      break;
    case OpKind::kRename:
      out += " " + op.path + " " + op.path2;
      break;
    case OpKind::kAddMetaNode:
    case OpKind::kAddStorageNode:
      break;  // no operands
    case OpKind::kRemoveMetaNode:
    case OpKind::kRemoveStorageNode:
      out += Sprintf(" node=%u", op.node);
      break;
    case OpKind::kAddVolume:
      out += Sprintf(" node=%u size=%llu", op.node,
                     static_cast<unsigned long long>(op.size));
      break;
    case OpKind::kRemoveVolume:
      out += Sprintf(" brick=%u", op.brick);
      break;
    case OpKind::kExpandVolume:
    case OpKind::kReduceVolume:
      out += Sprintf(" brick=%u size=%llu", op.brick,
                     static_cast<unsigned long long>(op.size));
      break;
    case OpKind::kEnvMsgLoss:
    case OpKind::kEnvMsgReorder:
    case OpKind::kEnvMsgDuplicate:
    case OpKind::kEnvMsgCorrupt:
      out += Sprintf(" rate=%llu", static_cast<unsigned long long>(op.size));
      break;
    case OpKind::kEnvSlowDisk:
      out += Sprintf(" node=%u factor=%llu", op.node,
                     static_cast<unsigned long long>(op.size));
      break;
    case OpKind::kEnvCrashNode:
      out += Sprintf(" node=%u delay=%llu", op.node,
                     static_cast<unsigned long long>(op.size));
      break;
    case OpKind::kEnvClearFaults:
      break;  // no operands
  }
  return out;
}

std::string FormatReproductionLog(const OpSeq& seq) {
  std::string out;
  for (const Operation& op : seq.ops) {
    out += FormatOperation(op);
    out += '\n';
  }
  return out;
}

Result<Operation> ParseOperation(const std::string& line) {
  std::vector<std::string_view> raw = Split(line, ' ');
  std::vector<std::string_view> tokens;
  for (std::string_view token : raw) {
    if (!token.empty()) {
      tokens.push_back(token);
    }
  }
  if (tokens.empty()) {
    return Status::InvalidArgument("empty line");
  }
  Result<OpKind> kind = KindFromToken(tokens[0]);
  if (!kind.ok()) {
    return kind.status();
  }
  Operation op;
  op.kind = *kind;
  auto need = [&](size_t count) {
    return tokens.size() == count + 1
               ? Status::Ok()
               : Status::InvalidArgument(Sprintf("'%s' takes %zu operand(s)",
                                                 std::string(tokens[0]).c_str(), count));
  };
  switch (op.kind) {
    case OpKind::kCreate:
    case OpKind::kAppend:
    case OpKind::kOverwrite:
    case OpKind::kTruncateOverwrite: {
      if (Status status = need(2); !status.ok()) {
        return status;
      }
      op.path = std::string(tokens[1]);
      Result<uint64_t> size = ParseKeyedU64(tokens[2], "size");
      if (!size.ok()) {
        return size.status();
      }
      op.size = *size;
      break;
    }
    case OpKind::kDelete:
    case OpKind::kOpen:
    case OpKind::kMkdir:
    case OpKind::kRmdir: {
      if (Status status = need(1); !status.ok()) {
        return status;
      }
      op.path = std::string(tokens[1]);
      break;
    }
    case OpKind::kRename: {
      if (Status status = need(2); !status.ok()) {
        return status;
      }
      op.path = std::string(tokens[1]);
      op.path2 = std::string(tokens[2]);
      break;
    }
    case OpKind::kAddMetaNode:
    case OpKind::kAddStorageNode: {
      if (Status status = need(0); !status.ok()) {
        return status;
      }
      break;
    }
    case OpKind::kRemoveMetaNode:
    case OpKind::kRemoveStorageNode: {
      if (Status status = need(1); !status.ok()) {
        return status;
      }
      Result<uint64_t> node = ParseKeyedU64(tokens[1], "node");
      if (!node.ok()) {
        return node.status();
      }
      op.node = static_cast<NodeId>(*node);
      break;
    }
    case OpKind::kAddVolume: {
      if (Status status = need(2); !status.ok()) {
        return status;
      }
      Result<uint64_t> node = ParseKeyedU64(tokens[1], "node");
      Result<uint64_t> size = ParseKeyedU64(tokens[2], "size");
      if (!node.ok()) {
        return node.status();
      }
      if (!size.ok()) {
        return size.status();
      }
      op.node = static_cast<NodeId>(*node);
      op.size = *size;
      break;
    }
    case OpKind::kRemoveVolume: {
      if (Status status = need(1); !status.ok()) {
        return status;
      }
      Result<uint64_t> brick = ParseKeyedU64(tokens[1], "brick");
      if (!brick.ok()) {
        return brick.status();
      }
      op.brick = static_cast<BrickId>(*brick);
      break;
    }
    case OpKind::kExpandVolume:
    case OpKind::kReduceVolume: {
      if (Status status = need(2); !status.ok()) {
        return status;
      }
      Result<uint64_t> brick = ParseKeyedU64(tokens[1], "brick");
      Result<uint64_t> size = ParseKeyedU64(tokens[2], "size");
      if (!brick.ok()) {
        return brick.status();
      }
      if (!size.ok()) {
        return size.status();
      }
      op.brick = static_cast<BrickId>(*brick);
      op.size = *size;
      break;
    }
    case OpKind::kEnvMsgLoss:
    case OpKind::kEnvMsgReorder:
    case OpKind::kEnvMsgDuplicate:
    case OpKind::kEnvMsgCorrupt: {
      if (Status status = need(1); !status.ok()) {
        return status;
      }
      Result<uint64_t> rate = ParseKeyedU64(tokens[1], "rate");
      if (!rate.ok()) {
        return rate.status();
      }
      op.size = *rate;
      break;
    }
    case OpKind::kEnvSlowDisk: {
      if (Status status = need(2); !status.ok()) {
        return status;
      }
      Result<uint64_t> node = ParseKeyedU64(tokens[1], "node");
      Result<uint64_t> factor = ParseKeyedU64(tokens[2], "factor");
      if (!node.ok()) {
        return node.status();
      }
      if (!factor.ok()) {
        return factor.status();
      }
      op.node = static_cast<NodeId>(*node);
      op.size = *factor;
      break;
    }
    case OpKind::kEnvCrashNode: {
      if (Status status = need(2); !status.ok()) {
        return status;
      }
      Result<uint64_t> node = ParseKeyedU64(tokens[1], "node");
      Result<uint64_t> delay = ParseKeyedU64(tokens[2], "delay");
      if (!node.ok()) {
        return node.status();
      }
      if (!delay.ok()) {
        return delay.status();
      }
      op.node = static_cast<NodeId>(*node);
      op.size = *delay;
      break;
    }
    case OpKind::kEnvClearFaults: {
      if (Status status = need(0); !status.ok()) {
        return status;
      }
      break;
    }
  }
  return op;
}

Result<OpSeq> ParseReproductionLog(const std::string& text) {
  OpSeq seq;
  int line_number = 0;
  for (std::string_view line : Split(text, '\n')) {
    ++line_number;
    if (line.empty() || line.front() == '#') {
      continue;
    }
    Result<Operation> op = ParseOperation(std::string(line));
    if (!op.ok()) {
      return Status::InvalidArgument(Sprintf("line %d: %s", line_number,
                                             op.status().message().c_str()));
    }
    seq.ops.push_back(op.take());
  }
  if (seq.ops.empty()) {
    return Status::InvalidArgument("log contains no operations");
  }
  return seq;
}

ReplayOutcome ReplayLog(DfsInterface& dfs, const OpSeq& seq, int repetitions) {
  ReplayOutcome outcome;
  for (int rep = 0; rep < repetitions; ++rep) {
    for (const Operation& op : seq.ops) {
      OpResult result = dfs.Execute(op);
      ++outcome.ops_executed;
      if (result.status.ok()) {
        ++outcome.ops_ok;
      }
    }
  }
  // Let the balancer do its best, then measure what persists.
  (void)dfs.TriggerRebalance();
  for (int i = 0; i < 5000 && !dfs.RebalanceDone(); ++i) {
    dfs.AdvanceTime(Seconds(10));
  }
  // The monitor's storage spread (hottest node vs weighted fleet) over one
  // scan of the samples.
  LoadVarianceSnapshot load = LoadVarianceModel().Update(dfs.SampleLoad());
  outcome.residual_imbalance = load.storage_ratio - 1.0;
  outcome.any_node_crashed = load.any_crashed;
  return outcome;
}

}  // namespace themis
