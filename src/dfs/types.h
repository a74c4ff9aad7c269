// Shared identifier and enum types for the DFS simulator.

#ifndef SRC_DFS_TYPES_H_
#define SRC_DFS_TYPES_H_

#include <cstdint>
#include <string_view>

namespace themis {

using NodeId = uint32_t;
using BrickId = uint32_t;
using FileId = uint64_t;
// Interned normalized path (see dfs/path_table.h). Ids are dense indexes
// into one PathTable instance; id 0 is always the root directory "/".
using PathId = uint32_t;

constexpr NodeId kInvalidNode = 0xffffffffu;
constexpr BrickId kInvalidBrick = 0xffffffffu;
constexpr PathId kRootPathId = 0;
constexpr PathId kInvalidPathId = 0xffffffffu;

// The four DFS architectures the paper evaluates, a slot for user-provided
// systems adapted through DfsInterface, and GeoFS — an EOS-style geo-aware
// flavor (geotag tree + scheduling groups) for production-scale clusters.
enum class Flavor : uint8_t {
  kHdfs = 0,
  kCeph = 1,
  kGluster = 2,
  kLeo = 3,
  kCustom = 4,
  kGeo = 5,
};

std::string_view FlavorName(Flavor flavor);

// Virtual branch space per flavor (see src/coverage/coverage.h). Sized so
// that saturated Themis campaigns land near the paper's Table 5 magnitudes.
size_t FlavorBranchSpace(Flavor flavor);

}  // namespace themis

#endif  // SRC_DFS_TYPES_H_
