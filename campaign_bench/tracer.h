// In-memory span recorder for the benchmark's traced run.
//
// A span has a name, a start, an end, its parent span and the id of the
// campaign it belongs to. Spans nest strictly (the traced loop is single
// threaded), so an open-span stack yields each span's self time — its
// duration minus the time its child spans cover — as it closes. Totals are
// kept per span name for the current campaign. Records of the coarse spans
// (campaign, setup, strategy calls, executor phases) are kept up to a fixed
// cap and written out when the benchmark ends.

#ifndef CAMPAIGN_BENCH_TRACER_H_
#define CAMPAIGN_BENCH_TRACER_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace campaign_bench {

enum class Span : uint8_t {
  kCampaign = 0,       // one whole traced campaign
  kSetup,              // cluster + injectors + strategy build, initial data
  kStrategyNext,       // Strategy::Next
  kStrategyOnOutcome,  // Strategy::OnOutcome
  kExecutorRun,        // TestCaseExecutor::Run (parent of the phases below)
  kPhaseTestcase,      // test-case ops before the first load sample
  kPhaseDetect,        // first load sample + detector verdict
  kPhaseDcWait,        // double-check: rebalance / recovery waits
  kPhaseDcReexec,      // double-check: re-executed test-case ops
  kPhaseDcProbe,       // double-check: probe mkdir/rmdir bursts
  kPhaseReset,         // ResetToInitial after a confirmed failure
  kDfsExecute,         // DfsInterface::Execute
  kDfsAdvance,         // DfsInterface::AdvanceTime
  kDfsTrigger,         // DfsInterface::TriggerRebalance
  kDfsReset,           // DfsInterface::ResetToInitial
  kMonitorSample,      // SnapshotLoadStats + AdvanceLoadWindow
  kMonitorScan,        // SampleLoadInto
  kFaultsOnOp,         // FaultHooks::OnOperationExecuted
  kFaultsOnPlan,       // FaultHooks::OnRebalancePlanned
  kFaultsOnMigrate,    // FaultHooks::OnMigrateChunk
  kFaultsOther,        // every other FaultHooks call
  kEnv,                // every EnvFaultRuntime call
  kFinalize,           // result assembly after the loop
  kCount,
};

const char* SpanName(Span span);

struct SpanTotals {
  int64_t total_ns = 0;
  int64_t self_ns = 0;
  uint64_t calls = 0;
};

using SpanTable = std::array<SpanTotals, static_cast<size_t>(Span::kCount)>;

class Tracer {
 public:
  explicit Tracer(size_t record_cap) : record_cap_(record_cap) {}

  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  // Starts a campaign: clears the per-campaign totals.
  void BeginCampaign(uint32_t campaign_id) {
    campaign_id_ = campaign_id;
    totals_ = SpanTable{};
  }

  void Begin(Span span) { Open(span, NowNs()); }
  void End() { Close(NowNs()); }
  // Closes the innermost span and opens `next` at the same instant.
  void Switch(Span next) {
    int64_t now = NowNs();
    Close(now);
    Open(next, now);
  }

  const SpanTable& totals() const { return totals_; }
  uint64_t dropped_records() const { return dropped_; }

  // Writes the kept span records as CSV (name,start_ns,end_ns,parent,campaign;
  // parent is a record index or -1). Returns false on an I/O error.
  bool WriteCsv(const std::string& path) const;

 private:
  struct Record {
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;
    uint32_t campaign;
    Span span;
  };
  struct OpenSpan {
    Span span;
    int64_t start_ns;
    int64_t child_ns;
    int32_t record;  // index into records_, or -1 when not kept
  };

  // Per-call spans below the executor phases are too many to keep one by
  // one; they count toward the totals only.
  static bool Kept(Span span) { return span < Span::kDfsExecute || span == Span::kFinalize; }

  void Open(Span span, int64_t now) {
    int32_t record = -1;
    if (Kept(span)) {
      if (records_.size() < record_cap_) {
        record = static_cast<int32_t>(records_.size());
        records_.push_back(Record{now, now, stack_.empty() ? -1 : stack_.back().record,
                                  campaign_id_, span});
      } else {
        ++dropped_;
      }
    }
    stack_.push_back(OpenSpan{span, now, 0, record});
  }

  void Close(int64_t now) {
    OpenSpan open = stack_.back();
    stack_.pop_back();
    int64_t duration = now - open.start_ns;
    SpanTotals& totals = totals_[static_cast<size_t>(open.span)];
    totals.total_ns += duration;
    totals.self_ns += duration - open.child_ns;
    ++totals.calls;
    if (!stack_.empty()) {
      stack_.back().child_ns += duration;
    }
    if (open.record >= 0) {
      records_[static_cast<size_t>(open.record)].end_ns = now;
    }
  }

  size_t record_cap_;
  uint32_t campaign_id_ = 0;
  SpanTable totals_{};
  std::vector<OpenSpan> stack_;
  std::vector<Record> records_;
  uint64_t dropped_ = 0;
};

// Opens a span for the lifetime of the scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, Span span) : tracer_(tracer) { tracer_.Begin(span); }
  ~ScopedSpan() { tracer_.End(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
};

}  // namespace campaign_bench

#endif  // CAMPAIGN_BENCH_TRACER_H_
