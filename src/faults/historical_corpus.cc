#include "src/faults/historical_corpus.h"

#include "src/common/rng.h"

namespace themis {

namespace {

// The file operators a fixed benchmark-style workload exercises (what our
// FixReq baseline replays); biased sampling below makes ~60% of request-side
// requirements satisfiable by such generic workloads, which is what lets
// fixed-request exploration reproduce a minority of historical failures.
const OpKind kGenericFileKinds[] = {OpKind::kCreate, OpKind::kAppend, OpKind::kDelete,
                                    OpKind::kOpen};
const OpKind kSpecificFileKinds[] = {OpKind::kOverwrite, OpKind::kTruncateOverwrite,
                                     OpKind::kMkdir, OpKind::kRmdir, OpKind::kRename};
const OpKind kNodeKinds[] = {OpKind::kAddMetaNode, OpKind::kRemoveMetaNode,
                             OpKind::kAddStorageNode, OpKind::kRemoveStorageNode};
const OpKind kVolumeKinds[] = {OpKind::kAddVolume, OpKind::kRemoveVolume,
                               OpKind::kExpandVolume, OpKind::kReduceVolume};

OpKind PickFileKind(Rng& rng) {
  // ~1/3 of request-side requirements are satisfiable by generic benchmark
  // workloads (create/append/open/delete); the rest demand operators a fixed
  // workload never issues.
  if (rng.Chance(0.25)) {
    return kGenericFileKinds[rng.PickIndex(4)];
  }
  return kSpecificFileKinds[rng.PickIndex(5)];
}

void AddUnique(std::vector<OpKind>& kinds, OpKind kind) {
  for (OpKind existing : kinds) {
    if (existing == kind) {
      return;
    }
  }
  kinds.push_back(kind);
}

EffectKind EffectFor(const StudyRecord& record, Rng& rng) {
  (void)rng;
  if (record.symptom == Symptom::kClusterFailure) {
    return EffectKind::kCrashNode;
  }
  switch (record.internal) {
    case InternalSymptom::kCpu:
      return EffectKind::kCpuSkew;
    case InternalSymptom::kNetwork:
      return EffectKind::kNetworkSkew;
    case InternalSymptom::kDisk:
      break;
  }
  switch (record.cause) {
    case StudyRootCause::kMigration:
      return record.symptom == Symptom::kDataLoss ? EffectKind::kMigrationDataLoss
                                                  : EffectKind::kHotspotAccumulation;
    case StudyRootCause::kLoadCalculation:
      return EffectKind::kPlanSkipsVictim;
    case StudyRootCause::kStateCollection:
      return EffectKind::kWrongTargetMigration;
  }
  return EffectKind::kHotspotAccumulation;
}

FailureType TypeFor(const StudyRecord& record) {
  if (record.symptom == Symptom::kClusterFailure) {
    return FailureType::kCrash;
  }
  switch (record.internal) {
    case InternalSymptom::kDisk:
      return FailureType::kImbalancedStorage;
    case InternalSymptom::kCpu:
      return FailureType::kImbalancedCpu;
    case InternalSymptom::kNetwork:
      return FailureType::kImbalancedNetwork;
  }
  return FailureType::kImbalancedStorage;
}

}  // namespace

FaultSpec FaultFromStudyRecord(const StudyRecord& record) {
  Rng rng(HashBytes(0x811c9dc5ULL, record.id));
  FaultSpec spec;
  spec.id = record.id;
  spec.platform = record.platform;
  spec.cause = record.cause;
  spec.type = TypeFor(record);
  spec.effect = EffectFor(record, rng);
  spec.description = std::string(SymptomName(record.symptom)) + " via " +
                     StudyRootCauseName(record.cause);
  spec.environment_gated = record.gate != EnvGate::kNone;
  // Finding 3: internal load disparity is at least 30%, sometimes over 100%.
  spec.severity = 0.30 + rng.NextDouble() * 0.80;

  TriggerRequirement& trigger = spec.trigger;
  trigger.window = record.steps >= 6 ? 10 : 8;
  trigger.min_window_ops = record.steps;
  switch (record.inputs) {
    case TriggerInputs::kRequestsOnly:
      trigger.needs_requests = true;
      break;
    case TriggerInputs::kConfigsOnly:
      if (rng.Chance(0.5)) {
        trigger.needs_node_ops = true;
      } else {
        trigger.needs_volume_ops = true;
      }
      break;
    case TriggerInputs::kBoth:
      trigger.needs_requests = true;
      if (rng.Chance(0.5)) {
        trigger.needs_node_ops = true;
      } else {
        trigger.needs_volume_ops = true;
      }
      break;
  }
  // Required operators: more steps -> more specific combination.
  int required = record.steps <= 3 ? 1 : (record.steps <= 5 ? 2 : 3);
  for (int i = 0; i < required; ++i) {
    if (record.inputs == TriggerInputs::kRequestsOnly) {
      AddUnique(trigger.required_kinds, PickFileKind(rng));
    } else if (record.inputs == TriggerInputs::kConfigsOnly) {
      AddUnique(trigger.required_kinds,
                trigger.needs_node_ops ? kNodeKinds[rng.PickIndex(4)]
                                       : kVolumeKinds[rng.PickIndex(4)]);
    } else {
      // Both: alternate between a request-side and a config-side operator.
      if (i % 2 == 0) {
        AddUnique(trigger.required_kinds, PickFileKind(rng));
      } else if (trigger.needs_node_ops) {
        AddUnique(trigger.required_kinds, kNodeKinds[rng.PickIndex(4)]);
      } else {
        AddUnique(trigger.required_kinds, kVolumeKinds[rng.PickIndex(4)]);
      }
    }
  }
  trigger.min_distinct_kinds = required;
  if (record.steps >= 6) {
    // Deep failures: hidden behind repeated rebalancing under accumulated
    // variance (Findings 5-6) — the skew must persist across a rebalance.
    // The bar sits just above the platform's native balance threshold so
    // balancer rounds actually run during the streak; the low per-op
    // probability makes detection a function of how long a strategy *dwells*
    // in the sustained-imbalance region.
    trigger.min_rebalance_rounds = 2;
    switch (record.platform) {
      case Flavor::kHdfs:
        trigger.min_variance = 0.12;
        break;
      case Flavor::kCeph:
        trigger.min_variance = 0.14;
        break;
      case Flavor::kGluster:
        trigger.min_variance = 0.21;
        break;
      default:
        trigger.min_variance = 0.17;
        break;
    }
    trigger.min_variance_streak = 4;
    trigger.min_steadiness = 0.65;
    trigger.needs_accumulation = true;
    trigger.probability = 0.4;
  } else if (record.steps >= 4) {
    trigger.min_rebalance_rounds = 1;
    trigger.min_variance = 0.05;
    trigger.min_distinct_kinds = 4;
    trigger.min_steadiness = 0.5;
    trigger.probability = 0.25;
  } else {
    trigger.probability = 0.12;
  }
  return spec;
}

std::vector<FaultSpec> HistoricalFaultCorpus() {
  std::vector<FaultSpec> out;
  out.reserve(StudyCorpus().size());
  for (const StudyRecord& record : StudyCorpus()) {
    out.push_back(FaultFromStudyRecord(record));
  }
  return out;
}

std::vector<FaultSpec> HistoricalFaultsFor(Flavor flavor) {
  std::vector<FaultSpec> out;
  for (const StudyRecord& record : StudyCorpus()) {
    if (record.platform == flavor) {
      out.push_back(FaultFromStudyRecord(record));
    }
  }
  return out;
}

}  // namespace themis
