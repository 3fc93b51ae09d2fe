//===- srv/Server.h - stird-serve epoll event-loop server -------*- C++ -*-===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon side of the serving layer: an epoll-based event loop accepts
/// stird-wire-v2 connections on a Unix or TCP socket and executes requests
/// against the hosted EngineSession tenants. One thread owns every socket
/// (nonblocking accept/read/write with per-connection framing state
/// machines) and parses every admitted request, so thousands of mostly
/// idle connections cost one fd each rather than one thread each. A query
/// whose plan probes an index (srv::probesIndex) reads a snapshot that
/// never waits for the writer, so the event loop answers it itself, one
/// request per connection per loop pass; every other request (writes,
/// stats, metrics, shutdown, full scans, frames too large to parse on the
/// loop) runs as a detached job on the interpreter's work-stealing
/// Scheduler, where evaluation work and wire work share a single warm
/// pool.
///
/// Backpressure is explicit at two levels: a connection may have at most
/// MaxInFlightPerConnection requests dispatched (further frames stay in
/// its read buffer and EPOLLIN is parked until replies drain), and the
/// server admits at most MaxInFlightTotal dispatched requests across all
/// tenants (excess requests are answered immediately with an "overloaded"
/// error instead of being queued without bound). Replies are written in
/// request order per connection, so v1 clients work unchanged and v2
/// clients can pipeline.
///
/// A `shutdown` request (or stop()) stops the accept loop, drains the
/// in-flight jobs, flushes what can be flushed, and returns from serve().
///
//===----------------------------------------------------------------------===//

#ifndef STIRD_SRV_SERVER_H
#define STIRD_SRV_SERVER_H

#include "interp/Scheduler.h"
#include "obs/Serve.h"
#include "srv/Session.h"
#include "srv/Wire.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace stird::srv {

struct ServerOptions {
  /// Unix-domain socket path. Takes precedence over TCP when non-empty;
  /// a stale socket file at the path is unlinked before binding.
  std::string UnixPath;
  /// TCP listen address, used when UnixPath is empty.
  std::string Host = "127.0.0.1";
  /// TCP port; 0 lets the kernel pick one (see boundPort()).
  int Port = 0;
  /// listen(2) backlog; <= 0 means SOMAXCONN. The old hard-coded 16 made
  /// connection bursts fail with ECONNREFUSED long before the event loop
  /// was the bottleneck.
  int Backlog = 0;
  /// Accept-level admission: connections beyond this are closed
  /// immediately (counted in ServeCounters::ConnectionsRejected).
  std::size_t MaxConnections = 8192;
  /// Pipelining window: dispatched-but-unanswered requests allowed per
  /// connection before its reads are parked.
  std::size_t MaxInFlightPerConnection = 32;
  /// Admission control across every connection and tenant: requests
  /// beyond this answer {"ok":false,"error":"server overloaded"} without
  /// touching a session.
  std::size_t MaxInFlightTotal = 1024;
  /// Threads of the request-execution pool (the default tenant program's
  /// shared Scheduler). 0 picks max(2, session default) so the pool has at
  /// least one worker: only index-probing queries run on the event loop,
  /// every other request runs on a worker.
  std::size_t PoolThreads = 0;

  /// TCP port for the Prometheus metrics HTTP endpoint (`GET /metrics`),
  /// bound on Host; 0 lets the kernel pick (see metricsPort()), negative
  /// disables the endpoint.
  int MetricsPort = -1;
  /// Trace every Nth request through the lifecycle-span recorder; 0
  /// disables sampling (slow requests still trace while a slow-query
  /// threshold is armed).
  std::uint64_t TraceSampleEvery = 0;
  /// When non-empty, retained request traces are written as one Chrome
  /// trace-event JSON document here when serve() returns.
  std::string TraceOutPath;
  /// When non-empty, requests at or above SlowQueryMicros append one JSONL
  /// record here.
  std::string SlowQueryLogPath;
  std::uint64_t SlowQueryMicros = 10000;
  /// Slow-query log rotation threshold in bytes; 0 disables rotation.
  std::uint64_t SlowQueryLogMaxBytes = 0;
};

class Server {
public:
  /// Single-tenant convenience: hosts \p Session as the default tenant
  /// "default" in an internally owned registry.
  Server(EngineSession &Session, ServerOptions Options);

  /// Multi-tenant: serves every session in \p Tenants (which must outlive
  /// the server and already hold at least one tenant).
  Server(TenantRegistry &Tenants, ServerOptions Options);

  ~Server();

  /// Binds and listens (nonblocking). False with \p Error on failure; no
  /// fd survives a failed start.
  bool start(std::string *Error = nullptr);

  /// Runs the event loop until a shutdown request (or stop()) arrives;
  /// returns after in-flight request jobs drained.
  void serve();

  /// Unblocks serve() from another thread (tests, signal handlers).
  void stop();

  /// The actual TCP port after start() — useful with Port = 0.
  int boundPort() const { return BoundPort; }

  /// The metrics endpoint's actual TCP port after start(); 0 when the
  /// endpoint is disabled.
  int metricsPort() const { return MetricsBoundPort; }

  /// Request-latency totals of the default tenant, as reported by the
  /// `stats` command.
  const obs::LatencyAggregator &latency() const {
    return Tenants.defaultTenant()->Latency;
  }

  /// Event-loop counters (accepts, frames, admission rejections, ...).
  const obs::ServeCounters &counters() const { return Telemetry.Counters; }

  /// The full serving telemetry (counters, trace sink, slow log).
  const ServeTelemetry &telemetry() const { return Telemetry; }

  const TenantRegistry &tenants() const { return Tenants; }

private:
  struct Connection;
  struct PendingReq;
  struct MetricsConn;

  void eventLoop();
  void acceptReady();
  void acceptMetricsReady();
  /// Advances one metrics-endpoint connection (HTTP parse or write).
  void metricsConnReady(int Fd);
  void closeMetricsConn(int Fd);
  /// Finalizes released traces once their bytes reached the socket:
  /// closes the write span, hands them to the trace sink, and feeds the
  /// slow-query log.
  void finishFlushedTraces(Connection &C);
  void readReady(const std::shared_ptr<Connection> &Conn);
  void writeReady(const std::shared_ptr<Connection> &Conn);
  /// Decodes and parses buffered frames and queues them, up to the
  /// pipelining window; parks reads when the window fills.
  void parseAndDispatch(const std::shared_ptr<Connection> &Conn);
  /// Runs one request on the calling thread and hands its reply to the
  /// connection's ordered release. Called by pool jobs, and by the event
  /// loop itself for queries that probe an index.
  void execute(Connection &C, PendingReq Req);
  /// Hands one request to the pool as a detached job.
  void dispatch(const std::shared_ptr<Connection> &Conn, PendingReq Req);
  /// Called on the event-loop thread once replies completed out-of-band:
  /// releases them in request order into the write buffer.
  void collectReplies(const std::shared_ptr<Connection> &Conn);
  /// Writes as much of the connection's buffer as the socket accepts and
  /// (un)arms EPOLLOUT accordingly.
  void flushWrites(const std::shared_ptr<Connection> &Conn);
  void closeConnection(const std::shared_ptr<Connection> &Conn);
  void updateEpoll(Connection &C);
  void wake();
  bool drained();

  /// Owned registry backing the single-tenant constructor; unused (empty)
  /// when an external registry was supplied.
  TenantRegistry OwnedTenants;
  TenantRegistry &Tenants;
  ServerOptions Options;
  /// Counters, trace sink and slow-query log, attached to the registry so
  /// the stats/metrics commands can report them.
  ServeTelemetry Telemetry;

  std::shared_ptr<interp::Scheduler> Pool;

  int ListenFd = -1;
  int EpollFd = -1;
  int WakeFd = -1;
  int BoundPort = 0;
  bool Accepting = false;

  /// The metrics HTTP endpoint (disabled when MetricsFd < 0). Its
  /// connections live outside Conns — they speak HTTP, not stird-wire.
  int MetricsFd = -1;
  int MetricsBoundPort = 0;
  std::unordered_map<int, std::unique_ptr<MetricsConn>> MetricsConns;

  /// Server-wide request sequence for trace identity (event-loop owned).
  std::uint64_t NextTraceSeq = 0;

  /// Hard stop (stop()): exit as soon as jobs drained. Draining: graceful
  /// shutdown request — stop accepting, finish and flush what's in
  /// flight, then exit.
  std::atomic<bool> Stopping{false};
  bool Draining = false;

  /// Admitted requests not yet executed and released to a write buffer
  /// (admission control).
  std::atomic<std::size_t> InFlightTotal{0};
  /// Jobs handed to the pool and not yet finished executing; serve() and
  /// the destructor wait for zero before tearing connections down.
  std::atomic<std::size_t> PendingJobs{0};

  /// Live connections, owned by the event loop. Jobs hold shared_ptrs so
  /// a connection that dies mid-request stays valid until its last job
  /// finished.
  std::unordered_map<int, std::shared_ptr<Connection>> Conns;

  /// Connections with freshly completed replies, filled by pool jobs and
  /// drained by the event loop after a WakeFd tick.
  std::mutex DirtyM;
  std::vector<std::shared_ptr<Connection>> Dirty;
  /// Connections that ran a request on the loop and have another queued
  /// behind it (event-loop owned). Each gets its next turn in the
  /// following loop pass, so one pipelining client cannot hold the loop.
  std::vector<std::shared_ptr<Connection>> Deferred;
};

} // namespace stird::srv

#endif // STIRD_SRV_SERVER_H
