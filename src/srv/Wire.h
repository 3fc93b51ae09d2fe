//===- srv/Wire.h - Length-prefixed JSON wire protocol ----------*- C++ -*-===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stird-wire-v2 protocol spoken between stird-serve and its clients:
/// each message is one JSON document framed by a 4-byte big-endian length
/// prefix, over a Unix or TCP stream socket. Requests carry a "cmd" member
/// (load / query / stats / shutdown), an optional "id" echoed verbatim in
/// the reply (so pipelined clients can match replies to requests), and an
/// optional "tenant" selecting one of several hosted sessions. Every reply
/// carries "ok" plus either the command's payload or an "error" string,
/// and "micros" with the server-side handling time. v1 requests (no id, no
/// tenant) remain valid and are answered in the v1 shape.
/// docs/wire-protocol.md is the normative schema description.
///
/// The request handler is a pure function of (tenants, payload) so tests
/// drive the full protocol without sockets; parsing is split from handling
/// so the server can route on the parsed command. The blocking readFrame /
/// writeFrame helpers serve simple clients; the event-loop server uses the
/// incremental FrameDecoder state machine instead, which resumes across
/// short reads and rejects oversized length prefixes before allocating.
///
//===----------------------------------------------------------------------===//

#ifndef STIRD_SRV_WIRE_H
#define STIRD_SRV_WIRE_H

#include "obs/Json.h"
#include "obs/RequestTrace.h"
#include "obs/Serve.h"
#include "obs/SlowLog.h"
#include "srv/Session.h"

#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace stird::interp {
class Scheduler;
} // namespace stird::interp

namespace stird::srv {

/// Protocol identifier reported by `stats` replies.
inline constexpr const char *WireProtocolVersion = "stird-wire-v2";
/// The previous protocol generation; v1 requests are still accepted.
inline constexpr const char *WireProtocolV1 = "stird-wire-v1";

/// Upper bound on one frame's payload; oversized frames poison the
/// connection (the reader cannot resynchronize) and are reported as errors.
inline constexpr std::size_t MaxFrameBytes = std::size_t(64) << 20;

/// Reads one length-prefixed frame from \p Fd into \p Payload, resuming
/// across short reads and EINTR. Returns false on clean EOF before any
/// prefix byte; fails (false with \p Error set) on truncated frames,
/// oversized lengths, or IO errors.
bool readFrame(int Fd, std::string &Payload, std::string *Error = nullptr);

/// Writes one length-prefixed frame, resuming across short writes and
/// EINTR. False with \p Error on failure.
bool writeFrame(int Fd, const std::string &Payload,
                std::string *Error = nullptr);

/// Renders \p Payload as one wire frame (4-byte big-endian length prefix
/// plus the payload bytes). The payload must not exceed MaxFrameBytes.
std::string encodeFrame(const std::string &Payload);

/// Incremental framing state machine for nonblocking readers: feed()
/// whatever bytes arrived, then drain complete frames with next(). A
/// length prefix above the limit is rejected as soon as its 4 bytes are
/// seen — before any payload allocation — and poisons the decoder (every
/// later next() reports the same error; the caller must drop the
/// connection, since the stream cannot be resynchronized).
class FrameDecoder {
public:
  explicit FrameDecoder(std::size_t MaxBytes = MaxFrameBytes)
      : Max(MaxBytes) {}

  enum class Result {
    Frame,    ///< \p Payload holds one complete frame.
    NeedMore, ///< No complete frame buffered; feed() more bytes.
    Error     ///< Framing violation; the connection is poisoned.
  };

  void feed(const char *Data, std::size_t Len);

  Result next(std::string &Payload, std::string *Error = nullptr);

  /// Bytes fed but not yet returned as frames.
  std::size_t buffered() const { return Buffer.size() - Pos; }

  /// True once a framing violation was detected.
  bool poisoned() const { return Poisoned; }

private:
  const std::size_t Max;
  std::string Buffer;
  std::size_t Pos = 0;
  bool Poisoned = false;
  std::string PoisonError;
};

/// One hosted session: the resident engine plus the serving-side state
/// that belongs to it — request latency, the query-result cache, and a
/// request counter. Owned by a TenantRegistry.
struct Tenant {
  Tenant(std::string Name, EngineSession &Session)
      : Name(std::move(Name)), Session(&Session) {}

  const std::string Name;
  EngineSession *Session;
  obs::LatencyAggregator Latency;
  QueryCache Cache;
  std::atomic<std::uint64_t> Requests{0};
};

/// The serving front end's shared observability state, owned by the
/// server and attached to its TenantRegistry so the stats/metrics
/// commands can report it. Everything here is either atomic or
/// internally synchronized.
struct ServeTelemetry {
  /// Event-loop counters (accept/read/write path).
  obs::ServeCounters Counters;
  /// Request-trace sampling and retention.
  obs::RequestTraceSink Traces;
  /// The JSONL slow-query log (disabled unless opened).
  obs::SlowQueryLog SlowLog;
  /// The worker pool dispatch runs on, for queue-depth/steal telemetry.
  /// Not owned; may be null.
  const interp::Scheduler *Pool = nullptr;
};

/// The set of sessions one server front end hosts, keyed by tenant name.
/// The first tenant added is the default — requests without a "tenant"
/// member (every v1 request) are routed to it. Registration happens
/// before serving starts; lookups are concurrent.
class TenantRegistry {
public:
  /// Registers \p Session under \p Name. The session must outlive the
  /// registry. Fatal on duplicate names.
  Tenant &add(const std::string &Name, EngineSession &Session);

  /// The tenant named \p Name, or null.
  Tenant *find(const std::string &Name) const;

  /// The first tenant added (never null once one was registered).
  Tenant *defaultTenant() const;

  /// Every tenant, in registration order.
  std::vector<Tenant *> tenants() const;

  std::size_t size() const;

  /// The attached server front end's observability state, reported by
  /// `stats` ("server" and "trace" members) and rendered by the `metrics`
  /// command. Null when no server front end is attached. Not owned.
  const ServeTelemetry *Telemetry = nullptr;

private:
  mutable std::mutex Mutex;
  std::vector<std::unique_ptr<Tenant>> List;
};

/// One request frame parsed but not yet executed. The server parses each
/// small admitted frame on its event loop and decides from the parsed
/// value where the request runs (probesIndex).
struct ParsedRequest {
  /// The JSON document; empty when the payload did not parse.
  std::optional<obs::json::Value> Body;
  /// The parser's message when Body is empty.
  std::string Error;
  /// Time spent parsing, counted into the reply's "micros".
  double ParseSeconds = 0;
};

/// Parses one request payload, stamping the Parse stage into \p Trace.
ParsedRequest parseRequest(const std::string &Payload,
                           obs::RequestTrace *Trace = nullptr);

/// True for a `query` whose plan (planQuery) absorbs at least one bound
/// column into an index prefix: a range probe, cheap enough to answer on
/// the event loop. False for a query the plan answers by a full scan (no
/// column bound, or none that leads an index), for a query that does not
/// resolve to a relation, and for every other command.
bool probesIndex(const TenantRegistry &Tenants, const ParsedRequest &Request);

/// Result of handling one request frame.
struct RequestOutcome {
  /// The reply document to send back.
  obs::json::Value Reply;
  /// True when the request asked the server to shut down.
  bool Shutdown = false;
  /// The dispatched command name ("?" for malformed requests).
  std::string Command = "?";
  /// Server-side handling time, the same value stamped as "micros".
  std::uint64_t Micros = 0;
};

/// Executes one stird-wire request against the hosted tenants: parses
/// \p Payload, routes on "tenant" (default tenant when absent), dispatches
/// on "cmd", echoes "id" when present, stamps the reply with "micros" and
/// records the latency under the command name in the tenant's aggregator.
/// Malformed or unknown requests yield {"ok":false,"error":...} replies —
/// the connection stays usable. When \p Trace is given, the parse / plan /
/// cache / eval stages are stamped into it along with the request's
/// execution metadata (tenant, relation, pattern, plan, cached).
RequestOutcome handleRequest(const TenantRegistry &Tenants,
                             const std::string &Payload,
                             obs::RequestTrace *Trace = nullptr);

/// The same, for a request already parsed by parseRequest().
RequestOutcome handleRequest(const TenantRegistry &Tenants,
                             const ParsedRequest &Request,
                             obs::RequestTrace *Trace = nullptr);

/// Single-session convenience (the v1 entry point, kept for callers and
/// tests that host exactly one session without a registry): dispatches
/// against \p Session with latencies recorded in \p Latency and no
/// query-result cache. "tenant" members are rejected here, and so is the
/// registry-only "metrics" command.
RequestOutcome handleRequest(EngineSession &Session,
                             obs::LatencyAggregator &Latency,
                             const std::string &Payload,
                             obs::RequestTrace *Trace = nullptr);

/// Builds the standard error reply document (used by the server for
/// admission-control and framing errors that never reach dispatch).
obs::json::Value errorReply(const std::string &Message);

} // namespace stird::srv

#endif // STIRD_SRV_WIRE_H
