#include "src/coverage/coverage.h"

#include <algorithm>

#include "src/common/rng.h"
#include "src/common/strings.h"

namespace themis {

namespace {
// Upper bound on distinct static instrumentation sites per module.
constexpr size_t kStaticSitesPerModule = 256;
constexpr size_t kModuleCount = 10;
}  // namespace

CoverageRecorder::CoverageRecorder(size_t virtual_space, uint64_t seed)
    : bits_(virtual_space > 0 ? virtual_space : 1, false),
      static_bits_(kStaticSitesPerModule * kModuleCount, false),
      seed_(seed) {}

bool CoverageRecorder::HitStatic(CovModule module, uint32_t site) {
  size_t index = static_cast<size_t>(module) * kStaticSitesPerModule +
                 (site % kStaticSitesPerModule);
  if (static_bits_[index]) {
    return false;
  }
  static_bits_[index] = true;
  ++static_hits_;
  return true;
}

size_t CoverageRecorder::HitState(CovModule module, uint64_t feature_hash,
                                  int multiplicity) {
  uint64_t h = HashCombine(seed_, static_cast<uint64_t>(module));
  h = HashCombine(h, feature_hash);
  multiplicity = std::clamp(multiplicity, 1, 16);
  size_t fresh = 0;
  for (int i = 0; i < multiplicity; ++i) {
    size_t index = static_cast<size_t>(h % bits_.size());
    if (!bits_[index]) {
      bits_[index] = true;
      ++virtual_hits_;
      ++fresh;
    }
    h = Mix64(h + 0x9e3779b97f4a7c15ULL);
  }
  return fresh;
}

namespace {

void SaveBitmap(SnapshotWriter& writer, const std::vector<bool>& bits) {
  writer.U64(bits.size());
  uint8_t byte = 0;
  for (size_t i = 0; i < bits.size(); ++i) {
    if (bits[i]) byte |= static_cast<uint8_t>(1u << (i % 8));
    if (i % 8 == 7) {
      writer.U8(byte);
      byte = 0;
    }
  }
  if (bits.size() % 8 != 0) writer.U8(byte);
}

// Returns the number of set bits restored.
size_t RestoreBitmap(SnapshotReader& reader, std::vector<bool>* bits,
                     const char* what) {
  uint64_t size = reader.U64();
  if (reader.ok() && size != bits->size()) {
    reader.Fail(Sprintf("%s bitmap size %llu does not match recorder size %zu",
                        what, static_cast<unsigned long long>(size),
                        bits->size()));
    return 0;
  }
  size_t set = 0;
  uint8_t byte = 0;
  for (size_t i = 0; i < bits->size() && reader.ok(); ++i) {
    if (i % 8 == 0) byte = reader.U8();
    (*bits)[i] = (byte >> (i % 8)) & 1;
    set += (*bits)[i] ? 1 : 0;
  }
  return set;
}

}  // namespace

void CoverageRecorder::SaveState(SnapshotWriter& writer) const {
  SaveBitmap(writer, bits_);
  SaveBitmap(writer, static_bits_);
}

Status CoverageRecorder::RestoreState(SnapshotReader& reader) {
  virtual_hits_ = RestoreBitmap(reader, &bits_, "virtual");
  static_hits_ = RestoreBitmap(reader, &static_bits_, "static");
  return reader.status();
}

void CoverageRecorder::Reset() {
  bits_.assign(bits_.size(), false);
  static_bits_.assign(static_bits_.size(), false);
  static_hits_ = 0;
  virtual_hits_ = 0;
}

}  // namespace themis
