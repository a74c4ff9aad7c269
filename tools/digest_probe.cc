// Prints the campaign digest of every row tests/golden_digest_test.cc pins
// (seed 1234, 2 virtual hours unless a row says otherwise) — used to
// compare simulation behavior across builds (the digest hashes every op,
// status, imbalance sample and detector verdict, so any divergence shows).
// Besides Themis on every flavor it runs an env-fault campaign that
// collects telemetry, a campaign with the transition blend on, and
// one 24-hour GeoFS campaign on a 1000-node fleet. Then, per flavor, the
// payload checksum of the second mid snapshot of a historical + env-fault
// campaign (a snapshot every 400 ops), with the balancer crash census at
// that point — the checkpoint-byte pins of the same test.
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "src/harness/campaign.h"
#include "src/harness/snapshot.h"

int main() {
  using namespace themis;
  struct ProbeRow {
    Flavor flavor;
    const char* strategy = "Themis";
    bool env_faults_and_telemetry = false;
    double transition_weight = 0.0;
    int storage_nodes = 8;
    int hours = 2;
  };
  constexpr ProbeRow kRows[] = {
      {Flavor::kGluster}, {Flavor::kHdfs}, {Flavor::kCeph}, {Flavor::kLeo}, {Flavor::kGeo},
      {Flavor::kGluster, "Themis", true},
      {Flavor::kHdfs, "Themis", false, 0.5},
      {Flavor::kGeo, "Themis", false, 0.0, 1000, 24},
      {Flavor::kGluster, "Themis-"},   {Flavor::kGluster, "Fix_req"},
      {Flavor::kGluster, "Fix_conf"},  {Flavor::kGluster, "Alternate"},
      {Flavor::kGluster, "Concurrent"},
  };
  for (const ProbeRow& row : kRows) {
    CampaignConfig config;
    config.flavor = row.flavor;
    config.seed = 1234;
    config.budget = Hours(row.hours);
    config.env_faults = row.env_faults_and_telemetry;
    config.collect_telemetry = row.env_faults_and_telemetry;
    config.transition_weight = row.transition_weight;
    config.storage_nodes = row.storage_nodes;
    std::string label(FlavorName(row.flavor));
    if (std::string_view(row.strategy) != "Themis") label += std::string(" ") + row.strategy;
    if (row.env_faults_and_telemetry) label += " env_faults+telemetry";
    if (row.transition_weight > 0.0) label += " transition_weight>0";
    if (row.storage_nodes != 8) label += " storage_nodes=" + std::to_string(row.storage_nodes);
    if (row.hours != 2) label += " hours=" + std::to_string(row.hours);
    Result<CampaignResult> result = Campaign(config).Run(row.strategy);
    if (!result.ok()) {
      std::printf("%s: FAILED %s\n", label.c_str(), result.status().ToString().c_str());
      continue;
    }
    std::printf("%s: digest=%llx testcases=%llu ops=%llu\n", label.c_str(),
                static_cast<unsigned long long>(result->Digest()),
                static_cast<unsigned long long>(result->testcases),
                static_cast<unsigned long long>(result->total_ops));
  }

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "digest_probe_snapshots";
  for (Flavor flavor :
       {Flavor::kGluster, Flavor::kHdfs, Flavor::kCeph, Flavor::kLeo, Flavor::kGeo}) {
    std::filesystem::remove_all(dir);
    CampaignConfig config;
    config.flavor = flavor;
    config.seed = 1234;
    config.fault_set = FaultSet::kHistorical;
    config.env_faults = true;
    config.checkpoint_dir = dir.string();
    config.checkpoint_every_ops = 400;
    const std::string label =
        std::string(FlavorName(flavor)) + " historical+env_faults mid snapshot 2";
    Result<std::unique_ptr<CampaignSession>> session = CampaignSession::Open(config, "Themis");
    int written = 0;
    while (session.ok() && !(*session)->Done() && written < 2) {
      (*session)->Step();
      Result<bool> saved = (*session)->Save();
      if (!saved.ok()) {
        break;
      }
      written += *saved ? 1 : 0;
    }
    Result<LoadedSnapshot> loaded = ReadSnapshotFile((dir / MidSnapshotFileName(0, 2)).string());
    if (written < 2 || !loaded.ok()) {
      std::printf("%s: FAILED\n", label.c_str());
      continue;
    }
    std::printf("%s: checksum=%llx census=%u\n", label.c_str(),
                static_cast<unsigned long long>(Fnv1a64(loaded->payload)),
                (*session)->cluster().balancer_crashes());
  }
  std::filesystem::remove_all(dir);
  return 0;
}
