// Golden-digest regression pins: the CampaignResult digest for a fixed
// (strategy, flavor, seed, budget) is part of the repo's determinism
// contract — the checkpoint/resume machinery, the --jobs matrix and this
// suite all compare against it. If a change to the simulation legitimately
// shifts behavior, regenerate with tools/digest_probe and update the
// constants below IN THE SAME COMMIT, calling the behavior change out in
// the commit message. A silent digest change is a determinism bug. The
// same holds for the mid-snapshot checksums: they pin the checkpoint bytes.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>

#include "src/common/snapshot_io.h"
#include "src/harness/campaign.h"
#include "src/harness/snapshot.h"
#include "tests/checkpoint_helpers.h"

namespace themis {
namespace {

struct GoldenEntry {
  Flavor flavor;
  uint64_t digest;
  int testcases;
  uint64_t total_ops;
  const char* strategy = "Themis";
  bool env_faults_and_telemetry = false;
  double transition_weight = 0.0;
  int storage_nodes = 8;
  int hours = 2;
};

// seed=1234, budget=2 virtual hours, otherwise the default config; the rows
// tools/digest_probe prints. The last row is the one campaign that runs a
// 1000-node fleet (63 GeoFS scheduling groups) for a full 24 hours.
constexpr GoldenEntry kGolden[] = {
    {Flavor::kGluster, 0xd7f0af71ded96a27ULL, 143, 3575},
    {Flavor::kHdfs, 0x6f0dca68c74aa2f0ULL, 150, 5886},
    {Flavor::kCeph, 0x197d2b721543e2c5ULL, 133, 6081},
    {Flavor::kLeo, 0xb073289e30566ec7ULL, 130, 5754},
    {Flavor::kGeo, 0xa3b034b061cf81a8ULL, 192, 5151},
    // Recorded events enter the digest.
    {Flavor::kGluster, 0x3609d4d5198d9eb5ULL, 17, 781, "Themis", true},
    // The transition blend on (DESIGN.md §16).
    {Flavor::kHdfs, 0xfef63e737a9cc17bULL, 162, 6563, "Themis", false, 0.5},
    {Flavor::kGeo, 0xaafac23ca1d93f57ULL, 2705, 17772, "Themis", false, 0.0, 1000, 24},
    // One row per baseline strategy.
    {Flavor::kGluster, 0x6222e03c042df6d1ULL, 97, 1768, "Themis-"},
    {Flavor::kGluster, 0x8d9e431c24b48265ULL, 27, 1693, "Fix_req"},
    {Flavor::kGluster, 0xa121225e02e54377ULL, 486, 8591, "Fix_conf"},
    {Flavor::kGluster, 0x9e54a3fb93b0284fULL, 526, 8214, "Alternate"},
    {Flavor::kGluster, 0x720cee500b209050ULL, 166, 4095, "Concurrent"},
};

TEST(GoldenDigestTest, PerFlavorDigestsArePinned) {
  for (const GoldenEntry& golden : kGolden) {
    CampaignConfig config;
    config.flavor = golden.flavor;
    config.seed = 1234;
    config.budget = Hours(golden.hours);
    config.storage_nodes = golden.storage_nodes;
    config.env_faults = golden.env_faults_and_telemetry;
    config.collect_telemetry = golden.env_faults_and_telemetry;
    config.transition_weight = golden.transition_weight;
    Result<CampaignResult> result = Campaign(config).Run(golden.strategy);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const std::string flavor = std::string(FlavorName(golden.flavor)) + " " + golden.strategy +
                               " n" + std::to_string(golden.storage_nodes);
    EXPECT_EQ(result->Digest(), golden.digest) << flavor;
    EXPECT_EQ(result->testcases, golden.testcases) << flavor;
    EXPECT_EQ(result->total_ops, golden.total_ops) << flavor;
  }
}

// The payload checksum (header offset 21) of each flavor's second mid
// snapshot from a historical + env-fault campaign at seed 1234 with a
// snapshot every 400 ops; the rows tools/digest_probe prints after the
// digests. Every flavor's balancer has crashed by then, so the crash census
// that closes the cluster record is nonzero.
struct SnapshotPin {
  Flavor flavor;
  uint64_t checksum;
};
constexpr SnapshotPin kMidSnapshotPins[] = {
    {Flavor::kGluster, 0xb4d19d8227eb6e01ULL}, {Flavor::kHdfs, 0x174bc903aecd5524ULL},
    {Flavor::kCeph, 0x590aafde8fdc7f22ULL},    {Flavor::kLeo, 0xe8ad6f7f0eeee62cULL},
    {Flavor::kGeo, 0x5336ca8f36b534b8ULL},
};

TEST(GoldenDigestTest, MidSnapshotChecksumsArePinned) {
  for (const SnapshotPin& pin : kMidSnapshotPins) {
    const std::string flavor(FlavorName(pin.flavor));
    SCOPED_TRACE(flavor);
    CampaignConfig config;
    config.flavor = pin.flavor;
    config.seed = 1234;
    config.fault_set = FaultSet::kHistorical;
    config.env_faults = true;
    config.checkpoint_dir = FreshDir(flavor);
    config.checkpoint_every_ops = 400;
    auto expect_crashed = [](const CampaignSession& session) {
      EXPECT_GT(session.cluster().balancer_crashes(), 0u)
          << "no balancer crash before the pinned snapshot; pin a later one";
    };
    ASSERT_TRUE(CrashAfterCheckpoints(config, "Themis", 2, expect_crashed).ok());
    std::ifstream in(std::filesystem::path(config.checkpoint_dir) / MidSnapshotFileName(0, 2),
                     std::ios::binary);
    char header[29] = {};
    ASSERT_TRUE(in.read(header, sizeof(header)));
    SnapshotReader reader(std::string_view(header + 21, 8));
    EXPECT_EQ(reader.U64(), pin.checksum);
  }
}

// The digest itself must be reproducible from an identical result: running
// the same campaign twice in one process yields the same digest.
TEST(GoldenDigestTest, DigestIsAPureFunctionOfTheResult) {
  CampaignConfig config;
  config.seed = 77;
  config.budget = Hours(1);
  Result<CampaignResult> first = Campaign(config).Run("Themis");
  Result<CampaignResult> second = Campaign(config).Run("Themis");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(first->Digest(), second->Digest());
}

}  // namespace
}  // namespace themis
