//===- obs/RequestTrace.h - Per-request lifecycle tracing -------*- C++ -*-===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Request lifecycle tracing for the serving layer: one RequestTrace
/// follows a request from the byte that completed its frame to the byte
/// that flushed its reply, stamping a span per stage (frame decode →
/// per-connection FIFO wait → scheduler queue wait → parse → plan → cache
/// lookup → eval → serialize → socket write) plus execution metadata
/// (tenant, relation, canonical pattern, chosen plan, which scheduler
/// slot ran the job and whether the job was stolen).
///
/// RequestTraceSink decides which requests get a trace (1-in-N sampling,
/// or all of them when a slow-query threshold is armed — a slow request
/// must already have been traced by the time it turns out slow) and what
/// happens to finished ones: sampled and slow traces are retained in a
/// bounded ring exposed through the `trace` stats member, converted to
/// Chrome trace events for `--trace-out`, and slow ones are handed to the
/// slow-query log.
///
/// Threading: a RequestTrace is owned by exactly one thread at a time and
/// handed off with the request itself (event loop → worker → event loop),
/// so stamping is unsynchronized; only the sink's counters and ring are
/// shared and locked.
///
//===----------------------------------------------------------------------===//

#ifndef STIRD_OBS_REQUESTTRACE_H
#define STIRD_OBS_REQUESTTRACE_H

#include "obs/Json.h"
#include "obs/Trace.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace stird::obs {

/// The lifecycle stages a request passes through, in order. Every stage is
/// optional (an error reply never reaches Eval; a cache hit skips it).
enum class RequestStage : unsigned {
  /// Reassembling the frame from socket reads.
  Decode,
  /// Parked in the connection's FIFO behind earlier in-flight requests.
  Pending,
  /// Waiting in the scheduler between submit and job start.
  Queue,
  /// JSON parse. The server parses a small frame on its event loop right
  /// after Decode, before the request waits in Pending; a large one is
  /// parsed by its pool job.
  Parse,
  /// Index selection for the query pattern.
  Plan,
  /// Query-cache probe.
  Cache,
  /// Scan/filter/render (or load application).
  Eval,
  /// Rendering + framing the reply document.
  Serialize,
  /// From reply release to the bytes reaching the socket.
  Write,
};

constexpr unsigned NumRequestStages = 9;

/// Stage name as it appears in JSON and Chrome traces ("decode", ...).
const char *requestStageName(RequestStage Stage);

/// Microseconds on a process-wide steady clock (anchored the first time
/// any trace code asks). One shared base means spans stamped on the event
/// loop and on workers are mutually comparable and feed one Chrome
/// timeline without threading a clock through every layer.
std::uint64_t traceClockMicros();

/// One request's lifecycle record. Timestamps come from
/// traceClockMicros().
class RequestTrace {
public:
  RequestTrace(std::uint64_t Seq, bool Sampled)
      : Seq(Seq), Sampled(Sampled) {}

  /// Opens \p Stage now (or at \p NowMicros). Reopening a stage restarts
  /// it.
  void beginStage(RequestStage Stage) {
    beginStage(Stage, traceClockMicros());
  }
  void beginStage(RequestStage Stage, std::uint64_t NowMicros) {
    Spans[unsigned(Stage)].Begin = NowMicros;
    Spans[unsigned(Stage)].Used = true;
  }

  /// Closes \p Stage.
  void endStage(RequestStage Stage) { endStage(Stage, traceClockMicros()); }
  void endStage(RequestStage Stage, std::uint64_t NowMicros) {
    Spans[unsigned(Stage)].End = NowMicros;
  }

  /// Total handling time so far: from the earliest span begin to the
  /// latest span end.
  std::uint64_t totalMicros() const;

  std::uint64_t stageMicros(RequestStage Stage) const {
    const Span &S = Spans[unsigned(Stage)];
    return (S.Used && S.End >= S.Begin) ? S.End - S.Begin : 0;
  }
  bool stageUsed(RequestStage Stage) const {
    return Spans[unsigned(Stage)].Used;
  }

  bool sampled() const { return Sampled; }
  std::uint64_t seq() const { return Seq; }

  // Execution metadata, stamped where it becomes known.
  std::string Command;
  std::string Tenant;
  std::string Relation;
  /// Canonical pattern key, e.g. "[12,null]".
  std::string PatternKey;
  bool Cached = false;
  bool Ok = true;
  /// Plan fields (queries only).
  std::uint64_t PlanIndex = 0, PlanPrefixLen = 0, PlanResidual = 0;
  bool HasPlan = false;
  /// Scheduler slot that executed the job (0 = inline on the caller).
  std::uint64_t ExecSlot = 0;
  /// How the executing worker got the job: "inline", "own", "injected",
  /// "stolen".
  std::string Source;

  /// The full record: seq, command, tenant, metadata, total_micros and a
  /// "spans" object of per-stage micros (used stages only).
  json::Value toJson() const;

  /// Chrome trace events for the used stages, one 'B'/'E' pair each, on
  /// track \p Tid, timestamped on the sink clock.
  std::vector<TraceEvent> chromeEvents(std::uint64_t Tid) const;

private:
  struct Span {
    std::uint64_t Begin = 0;
    std::uint64_t End = 0;
    bool Used = false;
  };

  std::uint64_t Seq;
  bool Sampled;
  Span Spans[NumRequestStages];
};

/// RAII stage guard: begins \p Stage on construction, ends it on
/// destruction. Null-trace safe, so call sites stay unconditional.
class StageScope {
public:
  StageScope(RequestTrace *Trace, RequestStage Stage)
      : Trace(Trace), Stage(Stage) {
    if (Trace)
      Trace->beginStage(Stage);
  }
  ~StageScope() {
    if (Trace)
      Trace->endStage(Stage);
  }
  StageScope(const StageScope &) = delete;
  StageScope &operator=(const StageScope &) = delete;

private:
  RequestTrace *Trace;
  RequestStage Stage;
};

/// Decides which requests get traces and collects the finished ones.
class RequestTraceSink {
public:
  struct Options {
    /// Trace every Nth request; 0 disables sampling.
    std::uint64_t SampleEvery = 0;
    /// When armed, requests at or above SlowMicros total are retained
    /// (and counted slow) even when not sampled. The flag is separate so
    /// a threshold of 0 means "every request is slow" rather than "off".
    bool SlowArmed = false;
    std::uint64_t SlowMicros = 0;
    /// Retained-trace ring size.
    std::size_t Capacity = 64;
    /// Upper bound on accumulated Chrome events (≈9 spans → 18 events per
    /// retained trace); older events are dropped first.
    std::size_t MaxChromeEvents = 1 << 16;
  };

  RequestTraceSink() = default;
  explicit RequestTraceSink(Options O) : Opts(O) {}

  /// Replaces the options. Call before traffic starts; not synchronized
  /// against concurrent begin()/finish().
  void configure(Options O) { Opts = O; }

  bool enabled() const { return Opts.SampleEvery != 0 || Opts.SlowArmed; }
  const Options &options() const { return Opts; }

  /// Microseconds on the shared trace clock (traceClockMicros()).
  std::uint64_t now() const { return traceClockMicros(); }

  /// Starts a trace for the request numbered \p Seq, or null when tracing
  /// is disabled. The trace is marked sampled on every SampleEvery-th
  /// call; unsampled traces still exist while a slow threshold is armed,
  /// since slowness is only known at finish().
  std::unique_ptr<RequestTrace> begin(std::uint64_t Seq);

  /// Consumes a finished trace: counts it, retains it in the ring when
  /// sampled or slow, accumulates its Chrome events, and returns true
  /// when the request was slow (the caller feeds the slow-query log).
  bool finish(std::unique_ptr<RequestTrace> Trace);

  /// {"started","sampled","retained","slow","sample_every",
  ///  "slow_micros","recent":[...]} — the stats `trace` member.
  json::Value statsJson() const;

  /// Moves the accumulated Chrome events out (for --trace-out).
  std::vector<TraceEvent> drainChrome();

  std::uint64_t started() const {
    return Started.load(std::memory_order_relaxed);
  }
  std::uint64_t sampledCount() const {
    return SampledN.load(std::memory_order_relaxed);
  }
  std::uint64_t retainedCount() const {
    return Retained.load(std::memory_order_relaxed);
  }
  std::uint64_t slowCount() const {
    return Slow.load(std::memory_order_relaxed);
  }

private:
  Options Opts;
  std::atomic<std::uint64_t> Started{0};
  std::atomic<std::uint64_t> SampledN{0};
  std::atomic<std::uint64_t> Retained{0};
  std::atomic<std::uint64_t> Slow{0};
  std::atomic<std::uint64_t> SampleCounter{0};

  mutable std::mutex Mutex;
  /// Most recent retained traces, oldest first.
  std::deque<json::Value> Recent;
  std::vector<TraceEvent> Chrome;
};

} // namespace stird::obs

#endif // STIRD_OBS_REQUESTTRACE_H
