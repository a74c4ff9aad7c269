// Campaign benchmark binary: runs Themis campaigns for one workload and
// prints one JSON document with metrics, per-campaign records and the
// outcome of every correctness check. run.py builds this binary, calls it,
// checks the records against pins.json and prints the benchmark's result
// line; README.md describes every metric.
//
//   campaign_bench --workload <name> --seed <matrix seed> --seconds <s>
//                  [--trace 0|1] [--hours <virtual h>] [--min-campaigns <n>]
//                  [--trace-out <csv>] [--setup-only]
//
// Untraced (--trace 0): the matrix runs through a one-thread CampaignRunner,
// one round (one seed of every flavor) per call, until --seconds of measured
// wall time have passed and at least --min-campaigns campaigns have finished.
// Traced (--trace 1): a four-thread runner probe (for the runner metrics),
// then each job runs twice in turn — untraced through Campaign::Run and under
// the traced loop — and the two results must agree.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "campaign_bench/traced_campaign.h"
#include "src/common/log.h"
#include "src/common/rng.h"
#include "src/common/strings.h"
#include "src/harness/runner.h"

namespace campaign_bench {
namespace {

using namespace themis;

struct Workload {
  const char* name;
  FaultSet fault_set;
  bool env_faults;
};

constexpr std::array<Workload, 3> kWorkloads = {{
    {"newbugs", FaultSet::kNewBugs, false},
    {"healthy", FaultSet::kNone, false},
    {"historical-env", FaultSet::kHistorical, true},
}};

constexpr std::array<Flavor, 5> kFlavors = {Flavor::kHdfs, Flavor::kCeph, Flavor::kGluster,
                                            Flavor::kLeo, Flavor::kGeo};
// Seeds per flavor in the matrix: the most rounds one run can reach. Fixed,
// because a job's seed is SplitSeed(matrix seed, flavor * depth + round).
constexpr int kMatrixDepth = 400;
constexpr const char* kStrategy = "Themis";
// The traced run's runner probe: enough jobs per worker thread that the
// chunk's tail, where threads run out of work, stays a small share of it.
constexpr int kProbeThreads = 4;
constexpr int kProbeRounds = 8;

struct Options {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int hours = 24;
  int min_campaigns = 100;
  bool setup_only = false;
  std::string trace_out;
};

double MonoSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string LowerFlavor(Flavor flavor) {
  switch (flavor) {
    case Flavor::kHdfs: return "hdfs";
    case Flavor::kCeph: return "ceph";
    case Flavor::kGluster: return "gluster";
    case Flavor::kLeo: return "leo";
    case Flavor::kGeo: return "geo";
    case Flavor::kCustom: break;
  }
  return "custom";
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += Sprintf("\\u%04x", static_cast<unsigned>(static_cast<unsigned char>(c)));
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) { return Sprintf("%.17g", value); }

// Linear-interpolation quantile (numpy's default); 0 for an empty sample.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Read-only observer: counts test cases and test-case ops, and records the
// wall time from a campaign's start to the test case that first confirms
// each distinct registry bug. A campaign runs start to finish on one pool
// thread, so per-thread state follows it; its start is the previous
// campaign's last test case on that thread, or the chunk start.
class BugClock final : public CampaignLoopObserver {
 public:
  // Called between chunks, while no pool thread runs.
  void StartChunk() {
    ++generation_;
    chunk_start_ = MonoSeconds();
  }

  void OnTestcase(Strategy& strategy, const ExecOutcome& outcome,
                  const CampaignTick& tick) override {
    (void)strategy;
    thread_local ThreadState state;
    double now = MonoSeconds();
    if (state.generation != generation_) {
      state = ThreadState{};
      state.generation = generation_;
      state.last_tick = chunk_start_;
    }
    if (tick.testcases == 1) {
      state.campaign_start = state.last_tick;
      state.seen.clear();
    }
    testcases_.fetch_add(1, std::memory_order_relaxed);
    ops_.fetch_add(static_cast<uint64_t>(outcome.ops_executed), std::memory_order_relaxed);
    for (const FailureReport& report : outcome.failures) {
      for (const std::string& id : report.active_faults) {
        if (state.seen.insert(id).second) {
          std::lock_guard<std::mutex> lock(mu_);
          bug_wall_s_.push_back(now - state.campaign_start);
        }
      }
    }
    state.last_tick = now;
  }

  uint64_t testcases() const { return testcases_.load(); }
  uint64_t ops() const { return ops_.load(); }
  std::vector<double> bug_wall_s() const {
    std::lock_guard<std::mutex> lock(mu_);
    return bug_wall_s_;
  }

 private:
  struct ThreadState {
    uint64_t generation = 0;
    double last_tick = 0.0;
    double campaign_start = 0.0;
    std::set<std::string> seen;
  };

  uint64_t generation_ = 0;
  double chunk_start_ = 0.0;
  std::atomic<uint64_t> testcases_{0};
  std::atomic<uint64_t> ops_{0};
  mutable std::mutex mu_;
  std::vector<double> bug_wall_s_;
};

struct Record {
  size_t index = 0;
  Flavor flavor = Flavor::kHdfs;
  uint64_t digest = 0;
  std::vector<std::string> bugs;
  int testcases = 0;
  double wall_s = 0.0;
  std::string why;  // empty when every check passed
};

class Bench {
 public:
  explicit Bench(const Options& options) : options_(options) {
    CampaignMatrix matrix;
    matrix.flavors.assign(kFlavors.begin(), kFlavors.end());
    matrix.strategies = {kStrategy};
    matrix.seeds = kMatrixDepth;
    matrix.matrix_seed = options.seed;
    matrix.base.budget = Hours(options.hours);
    matrix.base.fault_set = options.workload->fault_set;
    matrix.base.env_faults = options.workload->env_faults;
    jobs_ = CampaignRunner::Expand(matrix);
    for (Flavor flavor : kFlavors) {
      CampaignConfig config = matrix.base;
      config.flavor = flavor;
      std::set<std::string>& ids = known_bugs_[flavor];
      for (const FaultSpec& spec : FaultsForConfig(config)) {
        ids.insert(spec.id);
      }
    }
  }

  // One short campaign per flavor, at fixed seeds, before any timing.
  void WarmUp() {
    for (size_t f = 0; f < kFlavors.size(); ++f) {
      CampaignConfig config = jobs_[0].config;
      config.flavor = kFlavors[f];
      config.seed = Rng::SplitSeed(0x3a7e5eedULL, f);
      config.budget = Hours(std::min(options_.hours, 4));
      (void)Campaign(config).Run(kStrategy);
    }
  }

  // Jobs of rounds [first, first + count): one seed of every flavor each.
  std::vector<CampaignJob> Rounds(int first, int count) const {
    std::vector<CampaignJob> out;
    for (int round = first; round < std::min(first + count, kMatrixDepth); ++round) {
      for (size_t f = 0; f < kFlavors.size(); ++f) {
        out.push_back(jobs_[f * kMatrixDepth + static_cast<size_t>(round)]);
      }
    }
    return out;
  }

  void RunUntraced() {
    RunnerOptions runner_options;
    runner_options.loop_observer = &clock_;
    CampaignRunner runner(runner_options);
    double wall = 0.0;
    std::vector<double> campaign_wall;
    uint64_t testcases = 0;
    std::map<size_t, uint64_t> runner_digests;
    int round = 0;
    while (round < kMatrixDepth &&
           (wall < options_.seconds ||
            static_cast<int>(campaign_wall.size()) < options_.min_campaigns)) {
      clock_.StartChunk();
      MatrixResult matrix = runner.RunJobs(Rounds(round, 1));
      ++round;
      wall += matrix.wall_seconds;
      for (const JobResult& job : matrix.jobs) {
        Record& record = AddRecord(job.job, job.status, job.result, job.wall_seconds);
        campaign_wall.push_back(job.wall_seconds);
        testcases += static_cast<uint64_t>(job.result.testcases);
        runner_digests[job.job.index] = record.digest;
        bug_samples_expected_ += job.result.distinct_failures.size();
      }
    }
    CheckObserverTotals(testcases);
    // The runner's results may not depend on where a job runs: round 0
    // again, through Campaign::Run on this thread.
    for (const CampaignJob& job : Rounds(0, 1)) {
      Result<CampaignResult> again = Campaign(job.config).Run(job.strategy);
      if (!again.ok() || again->Digest() != runner_digests[job.index]) {
        Fail(Sprintf("job %zu: serial re-run digest differs from the runner's", job.index));
      }
    }

    const double n = static_cast<double>(campaign_wall.size());
    Metric("testcases_per_s", Ratio(static_cast<double>(testcases), wall), "1/s");
    Metric("testcase_ops_per_s", Ratio(static_cast<double>(clock_.ops()), wall), "1/s");
    Metric("vhours_per_s", Ratio(n * options_.hours, wall), "1/s");
    Metric("campaign_s.p50", Quantile(campaign_wall, 0.5), "s");
    Metric("campaign_s.p90", Quantile(campaign_wall, 0.9), "s");
    Metric("peak_rss_mb", PeakRssMb(), "MB");
  }

  void RunTraced() {
    // Runner probe: the runner metrics come from untraced JobResults, and
    // its digests must equal the serial runs below (results may not depend
    // on --jobs).
    RunnerOptions runner_options;
    runner_options.jobs = kProbeThreads;
    MatrixResult probe = CampaignRunner(runner_options).RunJobs(Rounds(0, kProbeRounds));
    double job_wall = 0.0;
    double job_cpu = 0.0;
    std::map<size_t, uint64_t> probe_digests;
    for (const JobResult& job : probe.jobs) {
      probe_digests[job.job.index] = AddRecord(job.job, job.status, job.result,
                                               job.wall_seconds).digest;
      job_wall += job.wall_seconds;
      job_cpu += job.cpu_seconds;
    }
    Metric("harness.runner_efficiency",
           Ratio(job_wall, static_cast<double>(probe.threads) * probe.wall_seconds), "ratio");
    Metric("harness.job_cpu_frac", Ratio(job_cpu, job_wall), "ratio");

    Tracer tracer(/*record_cap=*/100000);
    SpanTable spans{};
    LayerCounts counts;
    std::map<Flavor, FlavorSplit> by_flavor;
    double traced_wall = 0.0;
    double untraced_wall = 0.0;
    int traced = 0;
    uint64_t testcases = 0;
    for (int round = 0; round < kMatrixDepth &&
                        (untraced_wall + traced_wall < options_.seconds ||
                         traced < options_.min_campaigns);
         ++round) {
      for (const CampaignJob& job : Rounds(round, 1)) {
        Campaign campaign(job.config);
        campaign.set_loop_observer(&clock_);
        clock_.StartChunk();
        double start = MonoSeconds();
        Result<CampaignResult> plain = campaign.Run(job.strategy);
        double wall = MonoSeconds() - start;
        Record& record = AddRecord(job, plain.status(),
                                   plain.ok() ? *plain : CampaignResult{}, wall);
        if (!plain.ok()) {
          continue;
        }
        if (auto it = probe_digests.find(job.index);
            it != probe_digests.end() && it->second != record.digest) {
          MarkFailed(record, "4-thread runner digest differs from the serial run");
        }
        testcases += static_cast<uint64_t>(plain->testcases);
        bug_samples_expected_ += plain->distinct_failures.size();
        Result<TracedCampaign> run =
            RunTracedCampaign(job.config, job.strategy, tracer, static_cast<uint32_t>(job.index));
        if (!run.ok()) {
          MarkFailed(record, "traced loop: " + run.status().ToString());
          continue;
        }
        if (std::string diff = ParityMismatch(*plain, run->result); !diff.empty()) {
          MarkFailed(record, "traced loop differs in " + diff);
          continue;
        }
        ++traced;
        untraced_wall += wall;
        traced_wall += run->wall_s;
        Accumulate(spans, run->spans);
        counts += run->counts;
        FlavorSplit& split = by_flavor[job.config.flavor];
        ++split.campaigns;
        split.untraced_wall += wall;
        split.traced_wall += run->wall_s;
        Accumulate(split.spans, run->spans);
        split.execute_calls += run->counts.execute_calls;
      }
    }
    CheckObserverTotals(testcases);
    if (traced == 0) {
      Fail("no campaign was traced");
      return;
    }
    if (!options_.trace_out.empty() && !tracer.WriteCsv(options_.trace_out)) {
      std::fprintf(stderr, "campaign_bench: cannot write %s\n", options_.trace_out.c_str());
    }
    LayerMetrics(spans, counts, traced, traced_wall, untraced_wall);
    for (Flavor flavor : kFlavors) {
      const FlavorSplit& split = by_flavor[flavor];
      const std::string prefix = "flavor." + LowerFlavor(flavor) + ".";
      Metric(prefix + "campaign_s", Ratio(split.untraced_wall, split.campaigns), "s");
      Metric(prefix + "dc_share", Ratio(DcSeconds(split.spans), split.traced_wall), "ratio");
      Metric(prefix + "faults_share", Ratio(FaultSeconds(split.spans), split.traced_wall),
             "ratio");
      Metric(prefix + "dfs_us_per_op",
             Ratio(Self(split.spans, Span::kDfsExecute) * 1e6,
                   static_cast<double>(split.execute_calls)),
             "us");
    }
    std::vector<double> bug_wall = clock_.bug_wall_s();
    Metric("campaign.bugs_per_min",
           Ratio(static_cast<double>(bug_wall.size()), untraced_wall / 60.0), "1/min");
    Metric("campaign.bug_wall_s.p50", Quantile(bug_wall, 0.5), "s");
    Metric("campaign.bug_wall_s.p90", Quantile(bug_wall, 0.9), "s");
    std::fprintf(stderr, "campaign_bench: traced %d campaigns, %zu bug samples, %llu spans dropped\n",
                 traced, bug_wall.size(),
                 static_cast<unsigned long long>(tracer.dropped_records()));
  }

  std::string ToJson(double setup_end_mono) const {
    std::string out = "{\"workload\": " + JsonString(options_.workload->name);
    out += Sprintf(", \"seed\": %llu, \"hours\": %d, \"trace\": %d",
                   static_cast<unsigned long long>(options_.seed), options_.hours,
                   options_.trace ? 1 : 0);
    out += ", \"setup_end_mono\": " + JsonNumber(setup_end_mono);
    out += ", \"fingerprint\": " + Fingerprint();
    out += ", \"checks\": [";
    for (size_t i = 0; i < failed_checks_.size(); ++i) {
      out += (i == 0 ? "" : ", ") + JsonString(failed_checks_[i]);
    }
    out += "], \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      out += (i == 0 ? "" : ", ") + JsonString(metrics_[i].name) +
             ": {\"value\": " + JsonNumber(metrics_[i].value) +
             ", \"unit\": " + JsonString(metrics_[i].unit) + "}";
    }
    out += "}, \"campaigns\": [";
    for (size_t i = 0; i < records_.size(); ++i) {
      const Record& record = records_[i];
      out += i == 0 ? "" : ", ";
      out += Sprintf("{\"index\": %zu, \"flavor\": \"%s\", \"digest\": \"%016llx\", "
                     "\"testcases\": %d, \"wall_s\": %s, \"bugs\": [",
                     record.index, LowerFlavor(record.flavor).c_str(),
                     static_cast<unsigned long long>(record.digest), record.testcases,
                     JsonNumber(record.wall_s).c_str());
      for (size_t b = 0; b < record.bugs.size(); ++b) {
        out += (b == 0 ? "" : ", ") + JsonString(record.bugs[b]);
      }
      out += "], \"why\": " + JsonString(record.why) + "}";
    }
    return out + "]}";
  }

 private:
  struct MetricValue {
    std::string name;
    double value;
    std::string unit;
  };
  struct FlavorSplit {
    int campaigns = 0;
    double untraced_wall = 0.0;
    double traced_wall = 0.0;
    SpanTable spans{};
    uint64_t execute_calls = 0;
  };

  static double PeakRssMb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
  }

  static double Total(const SpanTable& spans, Span span) {
    return static_cast<double>(spans[static_cast<size_t>(span)].total_ns) * 1e-9;
  }
  static double Self(const SpanTable& spans, Span span) {
    return static_cast<double>(spans[static_cast<size_t>(span)].self_ns) * 1e-9;
  }
  static double DcSeconds(const SpanTable& spans) {
    return Total(spans, Span::kPhaseDcWait) + Total(spans, Span::kPhaseDcReexec) +
           Total(spans, Span::kPhaseDcProbe);
  }
  static double FaultSeconds(const SpanTable& spans) {
    return Self(spans, Span::kFaultsOnOp) + Self(spans, Span::kFaultsOnPlan) +
           Self(spans, Span::kFaultsOnMigrate) + Self(spans, Span::kFaultsOther) +
           Self(spans, Span::kEnv);
  }

  static void Accumulate(SpanTable& into, const SpanTable& from) {
    for (size_t i = 0; i < into.size(); ++i) {
      into[i].total_ns += from[i].total_ns;
      into[i].self_ns += from[i].self_ns;
      into[i].calls += from[i].calls;
    }
  }
  void LayerMetrics(const SpanTable& spans, const LayerCounts& counts, int traced,
                    double traced_wall, double untraced_wall) {
    const double n = traced;
    auto per = [n](double value) { return value / n; };
    auto count = [n](uint64_t value) { return static_cast<double>(value) / n; };
    Metric("harness.campaign_setup_s", per(Total(spans, Span::kSetup)), "s/campaign");
    Metric("core.strategy.next_s", per(Total(spans, Span::kStrategyNext)), "s/campaign");
    Metric("core.strategy.on_outcome_s", per(Total(spans, Span::kStrategyOnOutcome)),
           "s/campaign");
    Metric("core.strategy.next_calls", count(counts.next_calls), "count/campaign");
    Metric("core.executor.testcase_s", per(Total(spans, Span::kPhaseTestcase)), "s/campaign");
    Metric("core.executor.testcase_ops", count(counts.testcase_ops), "count/campaign");
    Metric("core.executor.detect_s", per(Total(spans, Span::kPhaseDetect)), "s/campaign");
    Metric("core.executor.dc_wait_s", per(Total(spans, Span::kPhaseDcWait)), "s/campaign");
    Metric("core.executor.dc_wait_calls", count(counts.dc_wait_calls), "count/campaign");
    Metric("core.executor.dc_reexec_s", per(Total(spans, Span::kPhaseDcReexec)), "s/campaign");
    Metric("core.executor.dc_reexec_ops", count(counts.dc_reexec_ops), "count/campaign");
    Metric("core.executor.dc_probe_s", per(Total(spans, Span::kPhaseDcProbe)), "s/campaign");
    Metric("core.executor.dc_probe_ops", count(counts.dc_probe_ops), "count/campaign");
    Metric("core.executor.reset_s", per(Total(spans, Span::kPhaseReset)), "s/campaign");
    Metric("core.executor.reset_calls", count(counts.reset_calls), "count/campaign");
    Metric("core.executor.candidates", count(counts.candidates), "count/campaign");
    Metric("core.executor.confirmed", count(counts.confirmed), "count/campaign");
    Metric("core.executor.refuted", count(counts.candidates - counts.confirmed),
           "count/campaign");
    Metric("core.executor.hung", count(counts.hung), "count/campaign");
    Metric("core.executor.false_positives", count(counts.false_positives), "count/campaign");
    Metric("core.executor.confirm_ratio",
           Ratio(static_cast<double>(counts.confirmed), static_cast<double>(counts.candidates)),
           "ratio");
    Metric("core.executor.dc_share", Ratio(DcSeconds(spans), traced_wall), "ratio");
    Metric("core.executor.dc_virtual_share",
           Ratio(static_cast<double>(counts.dc_virtual),
                 static_cast<double>(counts.total_virtual)),
           "ratio");
    const double execute_calls = static_cast<double>(counts.execute_calls);
    Metric("dfs.execute_s", per(Self(spans, Span::kDfsExecute)), "s/campaign");
    Metric("dfs.execute_calls", count(counts.execute_calls), "count/campaign");
    Metric("dfs.execute_failed_ratio",
           Ratio(static_cast<double>(counts.execute_failed), execute_calls), "ratio");
    Metric("dfs.us_per_op", Ratio(Self(spans, Span::kDfsExecute) * 1e6, execute_calls), "us");
    Metric("dfs.advance_s", per(Self(spans, Span::kDfsAdvance)), "s/campaign");
    Metric("dfs.advance_calls", count(counts.advance_calls), "count/campaign");
    Metric("dfs.rebalance_trigger_s", per(Self(spans, Span::kDfsTrigger)), "s/campaign");
    Metric("dfs.migrate_moves", count(counts.migrate_moves), "count/campaign");
    Metric("faults.on_op_s", per(Self(spans, Span::kFaultsOnOp)), "s/campaign");
    Metric("faults.on_op_calls", count(counts.on_op_calls), "count/campaign");
    Metric("faults.on_plan_s", per(Self(spans, Span::kFaultsOnPlan)), "s/campaign");
    Metric("faults.on_migrate_s", per(Self(spans, Span::kFaultsOnMigrate)), "s/campaign");
    Metric("faults.env_s", per(Self(spans, Span::kEnv)), "s/campaign");
    Metric("monitor.sample_s", per(Self(spans, Span::kMonitorSample)), "s/campaign");
    Metric("monitor.sample_calls", count(counts.sample_calls), "count/campaign");
    Metric("monitor.scan_s", per(Self(spans, Span::kMonitorScan)), "s/campaign");
    Metric("trace.overhead_frac", Ratio(traced_wall, untraced_wall) - 1.0, "ratio");
    const double campaign_total = Total(spans, Span::kCampaign);
    const double covered =
        Ratio(campaign_total - Self(spans, Span::kCampaign), campaign_total);
    Metric("trace.covered_frac", covered, "ratio");
    if (covered < 0.95) {
      Fail(Sprintf("named spans cover %.3f of traced campaign wall (< 0.95)", covered));
    }
  }

  Record& AddRecord(const CampaignJob& job, const Status& status,
                    const CampaignResult& result, double wall_s) {
    Record& record = records_.emplace_back();
    record.index = job.index;
    record.flavor = job.config.flavor;
    record.wall_s = wall_s;
    if (!status.ok()) {
      MarkFailed(record, "campaign error: " + status.ToString());
      return record;
    }
    record.digest = result.Digest();
    record.testcases = result.testcases;
    for (const auto& [id, at] : result.distinct_failures) {
      (void)at;
      record.bugs.push_back(id);
      if (known_bugs_[job.config.flavor].count(id) == 0) {
        MarkFailed(record, "confirmed bug outside the fault set: " + id);
      }
    }
    if (result.testcases <= 0) {
      MarkFailed(record, "no test case ran");
    }
    // A healthy campaign may still confirm false positives (the detector's
    // FP rate is measured, and pinned through the digest); every report it
    // confirms must be labelled as one.
    if (options_.workload->fault_set == FaultSet::kNone &&
        result.false_positives != static_cast<int>(result.reports.size())) {
      MarkFailed(record, Sprintf("healthy system: %zu reports but %d false positives",
                                 result.reports.size(), result.false_positives));
    }
    return record;
  }

  void MarkFailed(Record& record, const std::string& why) {
    if (record.why.empty()) {
      record.why = why;
    }
  }

  void CheckObserverTotals(uint64_t testcases) {
    if (clock_.testcases() != testcases) {
      Fail(Sprintf("observer saw %llu test cases, results report %llu",
                   static_cast<unsigned long long>(clock_.testcases()),
                   static_cast<unsigned long long>(testcases)));
    }
    if (clock_.bug_wall_s().size() != bug_samples_expected_) {
      Fail(Sprintf("observer saw %zu first confirmations, results report %zu distinct bugs",
                   clock_.bug_wall_s().size(), bug_samples_expected_));
    }
  }

  void Fail(const std::string& why) { failed_checks_.push_back(why); }

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back(MetricValue{name, value, unit});
  }

  static std::string Fingerprint() {
#if defined(__OPTIMIZE__)
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
#if defined(__clang__)
    const char* compiler = "clang ";
#else
    const char* compiler = "g++ ";
#endif
    return Sprintf("{\"hardware_threads\": %u, \"compiler\": %s, \"build_type\": %s, "
                   "\"optimized\": %s}",
                   std::thread::hardware_concurrency(),
                   JsonString(std::string(compiler) + __VERSION__).c_str(),
                   JsonString(CAMPAIGN_BENCH_BUILD_TYPE).c_str(),
                   optimized ? "true" : "false");
  }

  Options options_;
  std::vector<CampaignJob> jobs_;
  std::map<Flavor, std::set<std::string>> known_bugs_;
  BugClock clock_;
  size_t bug_samples_expected_ = 0;
  std::vector<Record> records_;
  std::vector<MetricValue> metrics_;
  std::vector<std::string> failed_checks_;
};

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--setup-only") {
      options->setup_only = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    std::string value = argv[++i];
    if (flag == "--workload") {
      for (const Workload& workload : kWorkloads) {
        if (value == workload.name) {
          options->workload = &workload;
        }
      }
      if (options->workload == nullptr) {
        return false;
      }
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options->trace = value == "1";
    } else if (flag == "--hours") {
      options->hours = std::atoi(value.c_str());
    } else if (flag == "--min-campaigns") {
      options->min_campaigns = std::atoi(value.c_str());
    } else if (flag == "--trace-out") {
      options->trace_out = value;
    } else {
      return false;
    }
  }
  return options->workload != nullptr && options->hours > 0 && options->seconds >= 0.0;
}

}  // namespace
}  // namespace campaign_bench

int main(int argc, char** argv) {
  using namespace campaign_bench;
  Options options;
  if (!ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: campaign_bench --workload newbugs|healthy|historical-env "
                 "--seed N --seconds S [--trace 0|1] [--hours H] [--min-campaigns N] "
                 "[--trace-out CSV] [--setup-only]\n");
    return 2;
  }
  themis::SetLogLevel(themis::LogLevel::kWarn);
  Bench bench(options);
  bench.WarmUp();
  const double setup_end = MonoSeconds();
  if (options.setup_only) {
    std::printf("{\"setup_end_mono\": %s}\n", JsonNumber(setup_end).c_str());
    return 0;
  }
  if (options.trace) {
    bench.RunTraced();
  } else {
    bench.RunUntraced();
  }
  std::printf("%s\n", bench.ToJson(setup_end).c_str());
  return 0;
}
