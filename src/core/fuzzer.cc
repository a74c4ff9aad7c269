#include "src/core/fuzzer.h"

#include <algorithm>

namespace themis {

ThemisFuzzer::ThemisFuzzer(InputModel& model, Rng& rng, FuzzerConfig config)
    : config_(config), rng_(rng), generator_(model), mutator_(model, generator_),
      initial_remaining_(config.initial_seeds) {
  mutator_.set_telemetry(config_.telemetry);
  generator_.set_env_fault_share(config_.env_fault_share);
}

OpSeq ThemisFuzzer::Next() {
  if (initial_remaining_ > 0 || (pool_.empty() && !climbing_)) {
    if (initial_remaining_ > 0) {
      --initial_remaining_;
    }
    return generator_.Generate(rng_);
  }
  if (climbing_) {
    // Exploit: keep re-running the productive sequence with gradual
    // variation while the load variance keeps growing (Finding 5's
    // "repeatedly executing short sequences ... with gradual variation").
    // Episodes are bounded so exploitation never starves exploration of the
    // broader sequence space.
    if (++climb_length_ <= 16) {
      return mutator_.MutateLight(climb_seq_, rng_);
    }
    climbing_ = false;
    climb_length_ = 0;
  }
  // Occasionally inject a fresh random sequence to keep exploring.
  if (rng_.Chance(0.1) || pool_.empty()) {
    return generator_.Generate(rng_);
  }
  return mutator_.Mutate(pool_.Select(rng_), rng_);
}

void ThemisFuzzer::OnOutcome(const OpSeq& seq, const ExecOutcome& outcome) {
  bool interesting = false;
  double score = 0.0;
  std::string reasons;
  auto add_reason = [&reasons](const char* reason) {
    if (!reasons.empty()) {
      reasons += '+';
    }
    reasons += reason;
  };
  // "If the variance becomes larger or any new imbalance failures are
  // found, the new test case is regarded as an interesting seed."
  if (outcome.variance_gain > 1e-6) {
    interesting = true;
    score += outcome.variance_score + outcome.variance_gain;
    add_reason("variance");
  }
  if (!outcome.failures.empty()) {
    interesting = true;
    score += 1.0;
    add_reason("failure");
  }
  if (outcome.new_coverage > 0) {
    interesting = true;
    score += 0.05 * static_cast<double>(std::min<size_t>(outcome.new_coverage, 20));
    add_reason("coverage");
  }
  // Second feedback signal (DESIGN.md §16): seeds that walk the balancer
  // through new state-machine transitions get energy even when the variance
  // plateaus. Strictly additive and gated on the knob, so weight 0.0 leaves
  // scores, reasons and pool contents bit-identical.
  if (config_.transition_weight > 0.0 && outcome.new_transitions > 0) {
    interesting = true;
    score += config_.transition_weight *
             static_cast<double>(std::min<size_t>(outcome.new_transitions, 16));
    add_reason("transition");
  }
  if (interesting) {
    pool_.Add(seq, score);
    if (config_.telemetry != nullptr) {
      config_.telemetry->Record(CampaignEventKind::kSeedAccepted, reasons, score,
                                outcome.variance_gain);
    }
  } else {
    if (config_.telemetry != nullptr) {
      config_.telemetry->Record(CampaignEventKind::kSeedRejected, {}, 0.0,
                                outcome.variance_gain);
    }
  }
  // Hill-climbing control: a variance gain (re)arms exploitation around this
  // sequence; a few unproductive attempts in a row fall back to the pool.
  // A confirmed failure resets the cluster, so the climb restarts too.
  if (!outcome.failures.empty()) {
    climbing_ = false;
    climb_failures_ = 0;
    climb_length_ = 0;
    return;
  }
  if (outcome.variance_gain > 1e-6) {
    if (!climbing_) {
      climb_length_ = 0;
    }
    climbing_ = true;
    climb_seq_ = seq;
    climb_failures_ = 0;
  } else if (climbing_) {
    ++climb_failures_;
    // Persist longer while the absolute variance stays high: the plateau at
    // the top of a climb is where the accumulated imbalance does its work.
    int patience = outcome.variance_score >= 0.15 ? 8 : 4;
    if (climb_failures_ >= patience) {
      climbing_ = false;
      climb_failures_ = 0;
      climb_length_ = 0;
    }
  }
}

void ThemisFuzzer::SaveState(SnapshotWriter& writer) const {
  pool_.SaveState(writer);
  writer.I64(initial_remaining_);
  SaveOpSeq(writer, climb_seq_);
  writer.Bool(climbing_);
  writer.I64(climb_failures_);
  writer.I64(climb_length_);
}

Status ThemisFuzzer::RestoreState(SnapshotReader& reader) {
  Status status = pool_.RestoreState(reader);
  if (!status.ok()) return status;
  initial_remaining_ = static_cast<int>(reader.I64());
  RestoreOpSeq(reader, &climb_seq_);
  climbing_ = reader.Bool();
  climb_failures_ = static_cast<int>(reader.I64());
  climb_length_ = static_cast<int>(reader.I64());
  return reader.status();
}

}  // namespace themis
