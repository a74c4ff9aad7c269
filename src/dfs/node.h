// Node model: storage nodes hold file data (on bricks); metadata/management
// nodes route client requests. Load counters are cumulative, like the
// /proc-style counters a real LoadMonitor() adaptor would scrape; windowed
// rates are derived by the states monitor.

#ifndef SRC_DFS_NODE_H_
#define SRC_DFS_NODE_H_

#include <cstdint>
#include <vector>

#include "src/dfs/types.h"

namespace themis {

// Cumulative resource counters for one node.
struct NodeLoadCounters {
  uint64_t requests = 0;   // client requests handled
  uint64_t read_ios = 0;   // network read (input) operations
  uint64_t write_ios = 0;  // network write (output) operations
  double cpu_seconds = 0;  // accumulated CPU work

  void Reset() { *this = NodeLoadCounters{}; }
  NodeLoadCounters& operator+=(const NodeLoadCounters& delta) {
    requests += delta.requests;
    read_ios += delta.read_ios;
    write_ios += delta.write_ios;
    cpu_seconds += delta.cpu_seconds;
    return *this;
  }
};

struct StorageNode {
  NodeId id = kInvalidNode;
  bool online = true;
  bool crashed = false;  // a crash fault tripped; node is dead until reset
  std::vector<BrickId> bricks;
  NodeLoadCounters load;

  bool Serving() const { return online && !crashed; }
};

struct MetaNode {
  NodeId id = kInvalidNode;
  bool online = true;
  bool crashed = false;
  NodeLoadCounters load;

  bool Serving() const { return online && !crashed; }
};

}  // namespace themis

#endif  // SRC_DFS_NODE_H_
