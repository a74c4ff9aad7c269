// Bandit strategy scheduling (Mallory-style greybox budget reallocation).
//
// A deterministic epsilon-greedy/UCB1 multi-armed bandit layered over
// StrategyRegistry: each arm is a registered generation strategy, pulls are
// fixed-size rounds of test cases, and the reward is novelty — a test case
// that covers new balancer state-machine transitions or raises a detector
// candidate pays its arm. Budget therefore drifts toward whichever strategy
// is currently producing new behavior, instead of splitting the campaign
// evenly. All randomness comes from the campaign Rng, so bandit campaigns
// are bit-identical across --jobs counts and kill/resume cycles
// (tests/bandit_determinism_test.cc); the arm statistics serialize into the
// v6 snapshot strategy record.

#ifndef SRC_CORE_BANDIT_H_
#define SRC_CORE_BANDIT_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/core/strategy.h"

namespace themis {

struct BanditConfig {
  // Test cases per pull: the arm chosen at a round boundary keeps the
  // budget for this many Next() calls before the bandit re-decides.
  int round_length = 8;
  // Probability of exploring a uniformly random arm instead of the UCB
  // choice. The UCB bonus already forces under-pulled arms up, so epsilon
  // stays small.
  double epsilon = 0.1;
  // UCB1 exploration coefficient (bonus = c * sqrt(ln(total) / pulls)).
  double ucb_c = 1.0;
};

class BanditStrategy : public Strategy {
 public:
  struct Arm {
    std::string name;
    std::unique_ptr<Strategy> strategy;
    uint64_t pulls = 0;        // completed test cases charged to this arm
    double reward_sum = 0.0;
  };

  // `arms` must be non-empty; names must be unique (they key the snapshot
  // record). `rng` is the campaign RNG shared with the arms.
  BanditStrategy(std::vector<Arm> arms, Rng& rng, BanditConfig config = {});

  std::string_view name() const override { return "Bandit"; }
  OpSeq Next() override;
  void OnOutcome(const OpSeq& seq, const ExecOutcome& outcome) override;
  void SaveState(SnapshotWriter& writer) const override;
  Status RestoreState(SnapshotReader& reader) override;

  const std::vector<Arm>& arms() const { return arms_; }
  size_t active_arm() const { return active_; }

  // Reward for one outcome: 1 per test case that covered a new transition
  // pair, 1 per test case that raised a candidate (confirmed failures imply
  // a candidate, so they pay through the same term).
  static double Reward(const ExecOutcome& outcome);

 private:
  size_t ChooseArm();

  std::vector<Arm> arms_;
  Rng& rng_;
  BanditConfig config_;
  size_t active_ = 0;
  int round_position_ = 0;  // test cases already granted in this round
};

}  // namespace themis

#endif  // SRC_CORE_BANDIT_H_
