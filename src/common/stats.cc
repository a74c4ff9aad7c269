#include "src/common/stats.h"

namespace themis {

double LoadDimAggregate::Mean() const {
  if (count == 0) {
    return 0.0;
  }
  return static_cast<double>(sum) / static_cast<double>(count);
}

double LoadDimAggregate::MaxOverMeanWithFloor(double min_mean_ticks) const {
  if (count < 2) {
    return 1.0;
  }
  double mean = Mean();
  if (mean < min_mean_ticks) {
    return 1.0;
  }
  double ratio = static_cast<double>(max_delta) / mean;
  return ratio < 1.0 ? 1.0 : ratio;
}

}  // namespace themis
