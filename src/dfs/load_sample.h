// The per-node load data a DFS exposes to the outside world — what the
// paper's `LoadMonitor()` adaptor scrapes (df, /proc counters, gateway
// request stats). Counters are cumulative; the states monitor derives
// windowed rates.

#ifndef SRC_DFS_LOAD_SAMPLE_H_
#define SRC_DFS_LOAD_SAMPLE_H_

#include <cstdint>

#include "src/common/clock.h"
#include "src/dfs/types.h"

namespace themis {

struct LoadSample {
  NodeId node = kInvalidNode;
  bool is_storage = false;
  bool online = true;
  bool crashed = false;

  // Storage load (storage nodes; 0 for management nodes).
  uint64_t used_bytes = 0;
  uint64_t capacity_bytes = 0;

  // Cumulative network load.
  uint64_t requests = 0;
  uint64_t read_ios = 0;
  uint64_t write_ios = 0;

  // Cumulative computation load.
  double cpu_seconds = 0.0;

  SimTime taken_at = 0;

  bool operator==(const LoadSample&) const = default;
};

}  // namespace themis

#endif  // SRC_DFS_LOAD_SAMPLE_H_
