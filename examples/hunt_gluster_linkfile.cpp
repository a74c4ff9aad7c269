// Targeted hunt for the GlusterFS linkfile-deletion failure (Table 2 #1,
// the paper's Fig. 11 case study): fuzz a gluster-like cluster with Themis
// until the dht.rebalancer's destructive linkfile unlink is confirmed, then
// print the reproduction log and the Fig. 2-style per-node storage trace.
//
//   ./build/examples/hunt_gluster_linkfile [max_virtual_hours] [seed]

#include <cstdio>
#include <cstdlib>

#include "src/harness/campaign.h"

int main(int argc, char** argv) {
  using namespace themis;
  int hours = argc > 1 ? std::atoi(argv[1]) : 48;
  uint64_t base_seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 31;

  std::printf("Hunting Bug#S24387 (destructive linkfile unlink in dht.rebalancer)\n");
  std::printf("budget: up to %d virtual hours per attempt, several attempts\n\n", hours);

  for (int attempt = 0; attempt < 10; ++attempt) {
    CampaignConfig config;
    config.flavor = Flavor::kGluster;
    config.seed = base_seed + static_cast<uint64_t>(attempt) * 101;
    config.budget = Hours(hours);
    Result<std::unique_ptr<CampaignSession>> session =
        CampaignSession::Open(config, "Themis");
    if (!session.ok()) {
      std::fprintf(stderr, "%s\n", session.status().ToString().c_str());
      return 2;
    }
    const DfsCluster& dfs = (*session)->cluster();

    // Per-minute storage trace for the eventual figure.
    std::vector<std::pair<double, double>> spread_series;
    SimTime next_sample = 0;

    while (!(*session)->Done()) {
      ExecOutcome outcome = (*session)->Step();
      while (dfs.Now() >= next_sample) {
        spread_series.emplace_back(ToMinutes(next_sample), dfs.StorageImbalance());
        next_sample += Minutes(1);
      }
      for (const FailureReport& report : outcome.failures) {
        bool is_linkfile_bug = false;
        for (const std::string& id : report.active_faults) {
          is_linkfile_bug |= id == "Bug#S24387";
        }
        if (!is_linkfile_bug) {
          spread_series.clear();  // other failure reset the cluster
          continue;
        }
        std::printf("CONFIRMED Bug#S24387 at t=%.1f virtual minutes (attempt %d)\n",
                    ToMinutes(report.confirmed_at), attempt);
        std::printf("bytes destroyed by the buggy unlink so far: (see data loss "
                    "accounting)\n\n");
        std::printf("=== Reproduction log (the operation sequence that exposed it) ===\n");
        std::printf("%s\n", report.testcase.ToString().c_str());
        std::printf("=== Load variance accumulation (per virtual minute) ===\n");
        size_t step = spread_series.size() > 30 ? spread_series.size() / 30 : 1;
        for (size_t i = 0; i < spread_series.size(); i += step) {
          int bars = static_cast<int>(spread_series[i].second * 100);
          std::printf("%7.0f min %6.1f%% |", spread_series[i].first,
                      100.0 * spread_series[i].second);
          for (int b = 0; b < bars && b < 60; ++b) {
            std::printf("#");
          }
          std::printf("\n");
        }
        return 0;
      }
    }
    std::printf("attempt %d: not triggered within budget, reseeding...\n", attempt);
  }
  std::printf("bug not confirmed; raise the hour budget\n");
  return 1;
}
