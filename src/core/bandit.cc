#include "src/core/bandit.h"

#include <cmath>

#include "src/core/strategy_registry.h"

namespace themis {

BanditStrategy::BanditStrategy(std::vector<Arm> arms, Rng& rng,
                               BanditConfig config)
    : arms_(std::move(arms)), rng_(rng), config_(config) {}

double BanditStrategy::Reward(const ExecOutcome& outcome) {
  double reward = 0.0;
  if (outcome.new_transitions > 0) {
    reward += 1.0;
  }
  if (outcome.candidates > 0) {
    reward += 1.0;
  }
  return reward;
}

size_t BanditStrategy::ChooseArm() {
  // Pull every arm once before trusting the statistics (UCB1 init).
  for (size_t i = 0; i < arms_.size(); ++i) {
    if (arms_[i].pulls == 0) {
      return i;
    }
  }
  if (rng_.NextDouble() < config_.epsilon) {
    return rng_.PickIndex(arms_.size());
  }
  uint64_t total = 0;
  for (const Arm& arm : arms_) {
    total += arm.pulls;
  }
  double log_total = std::log(static_cast<double>(total));
  size_t best = 0;
  double best_value = -1.0;
  for (size_t i = 0; i < arms_.size(); ++i) {
    const Arm& arm = arms_[i];
    double mean = arm.reward_sum / static_cast<double>(arm.pulls);
    double bonus =
        config_.ucb_c * std::sqrt(log_total / static_cast<double>(arm.pulls));
    double value = mean + bonus;
    if (value > best_value) {  // strict: ties keep the lowest index
      best_value = value;
      best = i;
    }
  }
  return best;
}

OpSeq BanditStrategy::Next() {
  if (round_position_ == 0) {
    active_ = ChooseArm();
  }
  return arms_[active_].strategy->Next();
}

void BanditStrategy::OnOutcome(const OpSeq& seq, const ExecOutcome& outcome) {
  Arm& arm = arms_[active_];
  arm.strategy->OnOutcome(seq, outcome);
  ++arm.pulls;
  arm.reward_sum += Reward(outcome);
  ++round_position_;
  if (round_position_ >= config_.round_length) {
    round_position_ = 0;
  }
}

void BanditStrategy::SaveState(SnapshotWriter& writer) const {
  writer.I64(static_cast<int64_t>(active_));
  writer.I64(round_position_);
  writer.U64(arms_.size());
  for (const Arm& arm : arms_) {
    writer.Str(arm.name);
    writer.U64(arm.pulls);
    writer.F64(arm.reward_sum);
    arm.strategy->SaveState(writer);
  }
}

Status BanditStrategy::RestoreState(SnapshotReader& reader) {
  int64_t active = reader.I64();
  int64_t round_position = reader.I64();
  uint64_t count = reader.U64();
  if (!reader.ok()) {
    return reader.status();
  }
  if (count != arms_.size()) {
    reader.Fail("bandit arm table truncated");
    return reader.status();
  }
  if (active < 0 || static_cast<size_t>(active) >= arms_.size() ||
      round_position < 0 || round_position >= config_.round_length) {
    reader.Fail("bandit schedule state out of range");
    return reader.status();
  }
  for (Arm& arm : arms_) {
    std::string name = reader.Str();
    uint64_t pulls = reader.U64();
    double reward_sum = reader.F64();
    if (!reader.ok()) {
      return reader.status();
    }
    if (name != arm.name) {
      reader.Fail("bandit arm table truncated");
      return reader.status();
    }
    Status arm_status = arm.strategy->RestoreState(reader);
    if (!arm_status.ok()) {
      return arm_status;
    }
    arm.pulls = pulls;
    arm.reward_sum = reward_sum;
  }
  active_ = static_cast<size_t>(active);
  round_position_ = static_cast<int>(round_position);
  return reader.status();
}

// Arm set: the full Themis fuzzer plus the §6 baselines. Unknown names are
// skipped so a build that drops a baseline still schedules over the rest.
namespace {

std::unique_ptr<Strategy> MakeBandit(InputModel& model, Rng& rng,
                                     const StrategyOptions& options) {
  std::vector<BanditStrategy::Arm> arms;
  for (const char* name : {"Themis", "Fix_req", "Fix_conf", "Alternate", "Concurrent"}) {
    auto made = StrategyRegistry::Instance().Make(name, model, rng, options);
    if (!made.ok()) {
      continue;
    }
    BanditStrategy::Arm arm;
    arm.name = name;
    arm.strategy = made.take();
    arms.push_back(std::move(arm));
  }
  return std::make_unique<BanditStrategy>(std::move(arms), rng);
}

}  // namespace

THEMIS_REGISTER_STRATEGY("Bandit", MakeBandit);

}  // namespace themis
