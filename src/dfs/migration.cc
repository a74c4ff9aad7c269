#include "src/dfs/migration.h"

#include "src/common/bytes.h"
#include "src/common/strings.h"

namespace themis {

std::string ChunkMove::ToString() const {
  return Sprintf("move file%llu#%u brick%u->brick%u (%s%s)",
                 static_cast<unsigned long long>(file), chunk_index, from, to,
                 FormatBytes(bytes).c_str(), is_linkfile ? ", linkfile" : "");
}

uint64_t PlanBytes(const MigrationPlan& plan) {
  uint64_t total = 0;
  for (const ChunkMove& move : plan) {
    total += move.bytes;
  }
  return total;
}

}  // namespace themis
