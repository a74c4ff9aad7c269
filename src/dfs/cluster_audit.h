// One audit of the cluster simulator's accounting (DESIGN.md §10).
//
// AuditCluster recomputes, from the brick, node and layout maps alone, what
// the cluster maintains incrementally, and returns the first disagreement
// (naming the node, brick or file) or Ok:
//   - membership: every brick's owner is a storage node that lists it, every
//     listed brick exists and names that node, and no id is both a meta node
//     and a storage node;
//   - files: the namespace and the layout table name the same files;
//   - replicas: every chunk replica is a known brick, listed once per chunk;
//   - bytes: each brick's used_bytes equals the bytes of the chunk replicas
//     on it plus its linkfiles;
//   - the replica index equals one rebuilt from the layouts;
//   - the load index equals from-scratch scans: the serving lists, the
//     SampleLoad node set and per-node bytes, the fleet sums, free space, the
//     brick fractions, StorageImbalance and HottestServingBrick — compared
//     exactly, since every one of them derives from integer sums.
// Tests call it after every step (tests/cluster_audit_test.cc), and
// DfsCluster::RestoreState runs it before accepting a snapshot.

#ifndef SRC_DFS_CLUSTER_AUDIT_H_
#define SRC_DFS_CLUSTER_AUDIT_H_

#include "src/common/status.h"
#include "src/dfs/cluster.h"

namespace themis {

Status AuditCluster(const DfsCluster& dfs);

}  // namespace themis

#endif  // SRC_DFS_CLUSTER_AUDIT_H_
