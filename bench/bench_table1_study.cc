// Table 1 + Findings 1-4 (paper §3): the motivation-study corpus and every
// percentage the study reports, recomputed from the 53-record dataset.

#include "bench/bench_common.h"
#include "src/study/study_corpus.h"

namespace themis {
namespace {

void RunExperiment() {
  const std::vector<StudyRecord>& corpus = StudyCorpus();
  StudySummary s = Summarize(corpus);

  PrintHeader("Table 1: Number of imbalance failures we analyzed");
  TextTable table1({"HDFS", "CephFS", "GlusterFS", "LeoFS", "Total"});
  table1.AddRow({std::to_string(s.per_platform[static_cast<int>(Flavor::kHdfs)]),
                 std::to_string(s.per_platform[static_cast<int>(Flavor::kCeph)]),
                 std::to_string(s.per_platform[static_cast<int>(Flavor::kGluster)]),
                 std::to_string(s.per_platform[static_cast<int>(Flavor::kLeo)]),
                 std::to_string(s.total)});
  table1.Print();

  PrintHeader("Finding 1: imbalance severity");
  std::printf("failures affecting all or a majority of nodes: %d/%d (%s)\n",
              s.majority_impact, s.total, Percent(s.majority_impact, s.total).c_str());
  TextTable symptoms({"Symptom", "Count", "Share"});
  for (int i = 0; i < 5; ++i) {
    symptoms.AddRow({SymptomName(static_cast<Symptom>(i)),
                     std::to_string(s.per_symptom[i]),
                     Percent(s.per_symptom[i], s.total)});
  }
  symptoms.Print();

  PrintHeader("Finding 2: imbalance root cause");
  TextTable causes({"Root cause", "Count", "Share"});
  for (int i = 0; i < 3; ++i) {
    causes.AddRow({StudyRootCauseName(static_cast<StudyRootCause>(i)),
                   std::to_string(s.per_cause[i]), Percent(s.per_cause[i], s.total)});
  }
  causes.Print();

  PrintHeader("Finding 3: internal symptoms");
  TextTable internals({"Dominant internal symptom", "Count", "Share"});
  const char* names[3] = {"disk usage disparity", "CPU usage disparity",
                          "network traffic disparity"};
  for (int i = 0; i < 3; ++i) {
    internals.AddRow({names[i], std::to_string(s.per_internal[i]),
                      Percent(s.per_internal[i], s.total)});
  }
  internals.Print();

  PrintHeader("Finding 4: triggering workload");
  TextTable inputs({"Trigger inputs", "Count", "Share"});
  for (int i = 0; i < 3; ++i) {
    inputs.AddRow({TriggerInputsName(static_cast<TriggerInputs>(i)),
                   std::to_string(s.per_inputs[i]), Percent(s.per_inputs[i], s.total)});
  }
  inputs.Print();

  PrintHeader("Finding 5: triggering steps");
  std::printf("<= 5 steps: %d/%d (%s);  6-8 steps: %d/%d (%s)\n", s.steps_at_most_5,
              s.total, Percent(s.steps_at_most_5, s.total).c_str(), s.steps_6_to_8,
              s.total, Percent(s.steps_6_to_8, s.total).c_str());
  std::printf("environment-gated failures (out of Themis's scope): %d\n", s.gated);
}

}  // namespace
}  // namespace themis

THEMIS_BENCH_MAIN(themis::RunExperiment)
