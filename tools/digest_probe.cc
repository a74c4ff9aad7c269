// Prints the campaign digest of every row tests/golden_digest_test.cc pins
// (seed 1234, 2 virtual hours) — used to compare simulation behavior across
// builds (the digest hashes every op, status, imbalance sample and detector
// verdict, so any divergence shows). Besides Themis on every flavor it runs
// an env-fault campaign that collects telemetry and a Bandit campaign with
// the transition blend on.
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
  };
  constexpr ProbeRow kRows[] = {
      {Flavor::kGluster}, {Flavor::kHdfs}, {Flavor::kCeph}, {Flavor::kLeo}, {Flavor::kGeo},
      {Flavor::kGluster, "Themis", true},
      {Flavor::kHdfs, "Bandit", false, 0.5},
  };
  for (const ProbeRow& row : kRows) {
    CampaignConfig config;
    config.flavor = row.flavor;
    config.seed = 1234;
    config.budget = Hours(2);
    config.env_faults = row.env_faults_and_telemetry;
    config.collect_telemetry = row.env_faults_and_telemetry;
    config.transition_weight = row.transition_weight;
    std::string label(FlavorName(row.flavor));
    if (std::string_view(row.strategy) != "Themis") label += std::string(" ") + row.strategy;
    if (row.env_faults_and_telemetry) label += " env_faults+telemetry";
    if (row.transition_weight > 0.0) label += " transition_weight>0";
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
