// Prints the campaign digest of every row tests/golden_digest_test.cc pins
// (seed 1234, 2 virtual hours unless a row says otherwise) — used to
// compare simulation behavior across builds (the digest hashes every op,
// status, imbalance sample and detector verdict, so any divergence shows).
// Besides Themis on every flavor it runs an env-fault campaign that
// collects telemetry, a Bandit campaign with the transition blend on, and
// one 24-hour GeoFS campaign on a 1000-node fleet.
#include <cstdio>
#include <string>

#include "src/harness/campaign.h"

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
      {Flavor::kHdfs, "Bandit", false, 0.5},
      {Flavor::kGeo, "Themis", false, 0.0, 1000, 24},
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
  return 0;
}
