// Brick model. A brick is one unit of storage capacity attached to a storage
// node (a GlusterFS brick, an HDFS DataNode volume/disk, a Ceph OSD device,
// a LeoFS AVS container). Volume operations (add/remove/expand/reduce) act
// on bricks; placement policies place chunk replicas onto bricks.

#ifndef SRC_DFS_BRICK_H_
#define SRC_DFS_BRICK_H_

#include <cstdint>

#include "src/common/bytes.h"
#include "src/dfs/types.h"

namespace themis {

// Bytes one GlusterFS DHT linkfile occupies on its brick.
constexpr uint64_t kLinkfileBytes = 4 * kKiB;

struct Brick {
  BrickId id = kInvalidBrick;
  NodeId node = kInvalidNode;
  uint64_t capacity_bytes = 0;
  uint64_t used_bytes = 0;
  bool online = true;
  // Number of small DHT "linkfiles" parked on this brick (GlusterFS flavor),
  // each holding kLinkfileBytes of used_bytes.
  uint32_t linkfiles = 0;

  uint64_t FreeBytes() const {
    return used_bytes >= capacity_bytes ? 0 : capacity_bytes - used_bytes;
  }
  double UsedFraction() const {
    return capacity_bytes == 0
               ? 0.0
               : static_cast<double>(used_bytes) / static_cast<double>(capacity_bytes);
  }
};

}  // namespace themis

#endif  // SRC_DFS_BRICK_H_
