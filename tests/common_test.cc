// Unit tests for the common substrate: strings, RNG, status, clock, byte
// formatting.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>

#include "src/common/bytes.h"
#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/common/strings.h"

namespace themis {
namespace {

// ---- strings ----

TEST(Strings, SprintfFormats) {
  EXPECT_EQ(Sprintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(Sprintf("%.2f", 1.5), "1.50");
  EXPECT_EQ(Sprintf("empty"), "empty");
}

TEST(Strings, SplitKeepsEmptyTokens) {
  auto parts = Split("a//b", '/');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
}

TEST(Strings, JoinRoundTrips) {
  EXPECT_EQ(Join({"a", "b", "c"}, "/"), "a/b/c");
  EXPECT_EQ(Join({}, "/"), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(StartsWith("/a/b", "/a"));
  EXPECT_FALSE(StartsWith("/a", "/a/b"));
  EXPECT_TRUE(StartsWith("x", ""));
}

TEST(Strings, NormalizePathCollapsesSlashes) {
  EXPECT_EQ(NormalizePath("a/b"), "/a/b");
  EXPECT_EQ(NormalizePath("//a///b/"), "/a/b");
  EXPECT_EQ(NormalizePath(""), "/");
  EXPECT_EQ(NormalizePath("/"), "/");
}

TEST(Strings, ParentPath) {
  EXPECT_EQ(ParentPath("/a/b"), "/a");
  EXPECT_EQ(ParentPath("/a"), "/");
  EXPECT_EQ(ParentPath("/"), "/");
}

TEST(Strings, Basename) {
  EXPECT_EQ(Basename("/a/b"), "b");
  EXPECT_EQ(Basename("/a"), "a");
  EXPECT_EQ(Basename("/"), "");
}

// ---- rng ----

TEST(Rng, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(Rng, NextRangeInclusive) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // every value is reachable
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, ChanceEdgeCases) {
  Rng rng(3);
  EXPECT_FALSE(rng.Chance(0.0));
  EXPECT_TRUE(rng.Chance(1.0));
  EXPECT_FALSE(rng.Chance(-1.0));
  EXPECT_TRUE(rng.Chance(2.0));
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    hits += rng.Chance(0.3) ? 1 : 0;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, GaussianMoments) {
  Rng rng(13);
  constexpr int kDraws = 20000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    double x = rng.NextGaussian();
    sum += x;
    sum_sq += x * x;
  }
  double mean = sum / kDraws;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(std::sqrt(sum_sq / kDraws - mean * mean), 1.0, 0.05);
}

TEST(Rng, PickWeightedFollowsWeights) {
  Rng rng(17);
  std::map<size_t, int> counts;
  for (int i = 0; i < 30000; ++i) {
    ++counts[rng.PickWeighted({1.0, 3.0, 0.0})];
  }
  EXPECT_EQ(counts[2], 0);  // zero weight never picked
  EXPECT_NEAR(static_cast<double>(counts[1]) / counts[0], 3.0, 0.4);
}

TEST(Rng, PickWeightedAllZeroFallsBackToUniform) {
  Rng rng(19);
  std::set<size_t> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(rng.PickWeighted({0.0, 0.0, 0.0}));
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(Rng, HashCombineAndMixAreStable) {
  EXPECT_EQ(Mix64(42), Mix64(42));
  EXPECT_NE(Mix64(42), Mix64(43));
  EXPECT_EQ(HashCombine(1, 2), HashCombine(1, 2));
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

TEST(Rng, ForkDecorrelates) {
  Rng parent(5);
  Rng child = parent.Fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.NextU64() == child.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

// ---- status ----

TEST(Status, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(Status, CarriesCodeAndMessage) {
  Status status = Status::NotFound("foo");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.ToString(), "NOT_FOUND: foo");
}

TEST(Status, AllCodesHaveNames) {
  for (int i = 0; i <= static_cast<int>(StatusCode::kInternal); ++i) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(i)), "UNKNOWN");
  }
}

TEST(Result, ValueAndError) {
  Result<int> good(42);
  EXPECT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);
  Result<int> bad(Status::Internal("boom"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInternal);
}

// ---- clock & bytes ----

TEST(Clock, AdvanceAndReset) {
  VirtualClock clock;
  EXPECT_EQ(clock.now(), 0);
  clock.Advance(Seconds(2));
  clock.Advance(Millis(500));
  EXPECT_EQ(clock.now(), 2500000);
  clock.Advance(-100);  // negative deltas are ignored
  EXPECT_EQ(clock.now(), 2500000);
  clock.Reset();
  EXPECT_EQ(clock.now(), 0);
}

TEST(Clock, UnitConversions) {
  EXPECT_EQ(Minutes(2), Seconds(120));
  EXPECT_EQ(Hours(1), Minutes(60));
  EXPECT_DOUBLE_EQ(ToMinutes(Minutes(90)), 90.0);
  EXPECT_DOUBLE_EQ(ToSeconds(Millis(1500)), 1.5);
}

TEST(Bytes, Formatting) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(2 * kKiB), "2.00 KiB");
  EXPECT_EQ(FormatBytes(3 * kMiB), "3.00 MiB");
  EXPECT_EQ(FormatBytes(kGiB + kGiB / 2), "1.50 GiB");
  EXPECT_EQ(FormatBytes(2 * kTiB), "2.00 TiB");
}

TEST(Bytes, SafeRatio) {
  EXPECT_DOUBLE_EQ(SafeRatio(1.0, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(SafeRatio(1.0, 0.0), 0.0);
}

}  // namespace
}  // namespace themis
