//===- srv/Server.cpp - stird-serve epoll event-loop server -------------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//

#include "srv/Server.h"

#include "obs/Trace.h"
#include "srv/Metrics.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <fcntl.h>
#include <fstream>
#include <map>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

using namespace stird;
using namespace stird::srv;

namespace {

/// Closes its fd unless released — every early-return path in start()
/// frees whatever was already created (the old code leaked the socket when
/// a later step failed).
struct ScopedFd {
  int Fd = -1;
  explicit ScopedFd(int Fd = -1) : Fd(Fd) {}
  ~ScopedFd() {
    if (Fd >= 0)
      ::close(Fd);
  }
  ScopedFd(const ScopedFd &) = delete;
  ScopedFd &operator=(const ScopedFd &) = delete;
  int release() {
    int F = Fd;
    Fd = -1;
    return F;
  }
};

bool setNonBlocking(int Fd) {
  const int Flags = ::fcntl(Fd, F_GETFL, 0);
  return Flags >= 0 && ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK) == 0;
}

/// How long a graceful shutdown keeps trying to flush replies to clients
/// that stopped reading.
constexpr std::chrono::seconds DrainGrace{2};

/// Frames up to this size are parsed on the event loop, which then knows
/// whether the request can run there. Every index-probing query is far
/// smaller; a larger frame (a bulk load) keeps its raw payload and is
/// parsed by its pool job, so the loop never stalls parsing it.
constexpr std::size_t MaxLoopParseBytes = 4096;

} // namespace

/// One live connection. Ownership is split and explicit:
///  - the event-loop thread owns the socket, the framing decoder, the
///    write buffer, the request queue and the dispatch window — no lock;
///  - request execution (pool jobs, and index probes run on the loop)
///    only touches the reply hand-off (Done, ShutdownRequested, Closed)
///    under M;
///  - InDirty is guarded by the server's DirtyM; InDeferred is the event
///    loop's.
/// Jobs hold a shared_ptr, so a connection torn down mid-request stays
/// valid until its last job delivered (into the void: Closed drops it).
///
/// Requests of one connection execute strictly in arrival order (at most
/// one executing per connection; the rest wait in Pending). Pipelining
/// still overlaps wire I/O with execution, but a client that pipelines
/// load-then-query reads its own write — the contract the v1
/// thread-per-connection server gave. Cross-connection requests execute
/// concurrently: an index probe runs on the event loop while another
/// connection's load runs on the pool.
struct Server::Connection {
  int Fd = -1;
  bool IsTcp = false;
  FrameDecoder Decoder;

  /// One completed reply handed back from a pool job (or enqueued locally
  /// for admission/framing errors).
  struct Reply {
    std::string Frame;
    std::unique_ptr<obs::RequestTrace> Trace;
  };

  // Event-loop-owned state.
  std::string Out;
  std::size_t OutPos = 0;
  bool WantWrite = false;
  /// The interest set last registered with epoll (accept registers
  /// EPOLLIN), so updateEpoll() only calls epoll_ctl on a change.
  std::uint32_t EpollMask = EPOLLIN;
  bool ReadParked = false;
  bool PeerEof = false;
  bool Broken = false;
  std::uint64_t NextSeq = 0;
  std::uint64_t NextRelease = 0;
  std::size_t InFlight = 0;
  std::deque<PendingReq> Pending;
  bool JobActive = false;
  std::uint64_t ActiveSeq = 0;
  /// Traces of replies released into Out but not yet flushed to the
  /// socket; finalized when the write buffer drains (or at close).
  std::vector<std::unique_ptr<obs::RequestTrace>> Flushing;

  // Cross-thread reply hand-off.
  std::mutex M;
  std::map<std::uint64_t, Reply> Done;
  bool ShutdownRequested = false;
  bool Closed = false;

  bool InDirty = false; // guarded by Server::DirtyM
  bool InDeferred = false; // event-loop owned, see Server::Deferred

  /// Enqueues a reply produced on the event loop itself (admission
  /// errors, framing errors) through the same ordered hand-off the jobs
  /// use. Local replies never carry a trace.
  void enqueueLocal(std::uint64_t Seq, std::string Frame) {
    std::lock_guard<std::mutex> Lock(M);
    Done.emplace(Seq, Reply{std::move(Frame), nullptr});
  }
};

/// One admitted, not-yet-executed request, with the lifecycle trace it
/// drew (if any) riding along.
struct Server::PendingReq {
  std::uint64_t Seq = 0;
  /// The raw frame, kept only when it is too large to parse on the loop.
  std::string Payload;
  /// The frame parsed on the loop; empty for a large frame.
  std::optional<ParsedRequest> Parsed;
  std::unique_ptr<obs::RequestTrace> Trace;
};

/// One connection of the metrics HTTP endpoint: reads a request head,
/// writes one response, closes. Event-loop owned, no locking.
struct Server::MetricsConn {
  int Fd = -1;
  std::string In;
  std::string Out;
  std::size_t OutPos = 0;
  bool Responding = false;
};

Server::Server(EngineSession &Session, ServerOptions Options)
    : Tenants(OwnedTenants), Options(std::move(Options)) {
  OwnedTenants.add("default", Session);
}

Server::Server(TenantRegistry &Tenants, ServerOptions Options)
    : Tenants(Tenants), Options(std::move(Options)) {
  if (!Tenants.defaultTenant())
    fatal("Server requires a registry with at least one tenant");
}

Server::~Server() {
  stop();
  // A destructor racing live jobs would free the wake fd under them;
  // serve() already drained, but cover the serve-never-ran paths too.
  while (PendingJobs.load(std::memory_order_acquire) != 0)
    std::this_thread::yield();
  for (auto &[Fd, Conn] : Conns) {
    std::lock_guard<std::mutex> Lock(Conn->M);
    Conn->Closed = true;
    ::close(Fd);
  }
  Conns.clear();
  for (auto &[Fd, Conn] : MetricsConns)
    ::close(Fd);
  MetricsConns.clear();
  if (MetricsFd >= 0)
    ::close(MetricsFd);
  if (ListenFd >= 0)
    ::close(ListenFd);
  if (EpollFd >= 0)
    ::close(EpollFd);
  if (WakeFd >= 0)
    ::close(WakeFd);
  if (!Options.UnixPath.empty())
    ::unlink(Options.UnixPath.c_str());
}

static bool fail(std::string *Error, const std::string &Message) {
  if (Error)
    *Error = Message + ": " + std::strerror(errno);
  return false;
}

bool Server::start(std::string *Error) {
  Tenants.Telemetry = &Telemetry;
  {
    obs::RequestTraceSink::Options TraceOpts;
    TraceOpts.SampleEvery = Options.TraceSampleEvery;
    TraceOpts.SlowArmed = !Options.SlowQueryLogPath.empty();
    TraceOpts.SlowMicros = Options.SlowQueryMicros;
    Telemetry.Traces.configure(TraceOpts);
  }
  if (!Options.SlowQueryLogPath.empty()) {
    obs::SlowQueryLog::Options LogOpts;
    LogOpts.Path = Options.SlowQueryLogPath;
    LogOpts.ThresholdMicros = Options.SlowQueryMicros;
    LogOpts.MaxBytes = Options.SlowQueryLogMaxBytes;
    if (!Telemetry.SlowLog.open(std::move(LogOpts))) {
      if (Error)
        *Error =
            "cannot open slow-query log " + Options.SlowQueryLogPath;
      return false;
    }
  }

  ScopedFd Fd;
  if (!Options.UnixPath.empty()) {
    if (Options.UnixPath.size() >= sizeof(sockaddr_un{}.sun_path)) {
      if (Error)
        *Error = "socket path too long: " + Options.UnixPath;
      return false;
    }
    Fd.Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (Fd.Fd < 0)
      return fail(Error, "socket");
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Options.UnixPath.c_str(),
                 sizeof(Addr.sun_path) - 1);
    ::unlink(Options.UnixPath.c_str());
    if (::bind(Fd.Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0)
      return fail(Error, "bind " + Options.UnixPath);
  } else {
    Fd.Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (Fd.Fd < 0)
      return fail(Error, "socket");
    int One = 1;
    ::setsockopt(Fd.Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(static_cast<std::uint16_t>(Options.Port));
    if (::inet_pton(AF_INET, Options.Host.c_str(), &Addr.sin_addr) != 1) {
      if (Error)
        *Error = "invalid listen address '" + Options.Host + "'";
      return false;
    }
    if (::bind(Fd.Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0)
      return fail(Error, "bind " + Options.Host + ":" +
                             std::to_string(Options.Port));
    sockaddr_in Bound{};
    socklen_t BoundLen = sizeof(Bound);
    if (::getsockname(Fd.Fd, reinterpret_cast<sockaddr *>(&Bound),
                      &BoundLen) == 0)
      BoundPort = ntohs(Bound.sin_port);
  }
  if (!setNonBlocking(Fd.Fd))
    return fail(Error, "fcntl O_NONBLOCK");
  const int Backlog = Options.Backlog > 0 ? Options.Backlog : SOMAXCONN;
  if (::listen(Fd.Fd, Backlog) < 0)
    return fail(Error, "listen");

  ScopedFd Ep(::epoll_create1(EPOLL_CLOEXEC));
  if (Ep.Fd < 0)
    return fail(Error, "epoll_create1");
  ScopedFd Wk(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (Wk.Fd < 0)
    return fail(Error, "eventfd");

  epoll_event Ev{};
  Ev.events = EPOLLIN;
  Ev.data.fd = Fd.Fd;
  if (::epoll_ctl(Ep.Fd, EPOLL_CTL_ADD, Fd.Fd, &Ev) < 0)
    return fail(Error, "epoll_ctl listen");
  Ev.data.fd = Wk.Fd;
  if (::epoll_ctl(Ep.Fd, EPOLL_CTL_ADD, Wk.Fd, &Ev) < 0)
    return fail(Error, "epoll_ctl wake");

  // The metrics HTTP endpoint: its own TCP listener on the same epoll
  // loop. Created before the fds are released so a failure tears
  // everything down through the scoped fds.
  ScopedFd Mt;
  int MetricsBound = 0;
  if (Options.MetricsPort >= 0) {
    Mt.Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (Mt.Fd < 0)
      return fail(Error, "metrics socket");
    int One = 1;
    ::setsockopt(Mt.Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(static_cast<std::uint16_t>(Options.MetricsPort));
    const std::string &Host =
        Options.UnixPath.empty() ? Options.Host : std::string("127.0.0.1");
    if (::inet_pton(AF_INET, Host.c_str(), &Addr.sin_addr) != 1) {
      if (Error)
        *Error = "invalid metrics listen address '" + Host + "'";
      return false;
    }
    if (::bind(Mt.Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
        0)
      return fail(Error, "bind metrics port " +
                             std::to_string(Options.MetricsPort));
    sockaddr_in Bound{};
    socklen_t BoundLen = sizeof(Bound);
    if (::getsockname(Mt.Fd, reinterpret_cast<sockaddr *>(&Bound),
                      &BoundLen) == 0)
      MetricsBound = ntohs(Bound.sin_port);
    if (!setNonBlocking(Mt.Fd))
      return fail(Error, "fcntl O_NONBLOCK metrics");
    if (::listen(Mt.Fd, 16) < 0)
      return fail(Error, "listen metrics");
    Ev.events = EPOLLIN;
    Ev.data.fd = Mt.Fd;
    if (::epoll_ctl(Ep.Fd, EPOLL_CTL_ADD, Mt.Fd, &Ev) < 0)
      return fail(Error, "epoll_ctl metrics");
  }

  // The request-execution pool: the default tenant program's shared
  // scheduler, sized so at least one worker exists (submit() would
  // otherwise run requests inline on the event loop).
  std::size_t Threads = Options.PoolThreads;
  if (Threads == 0)
    Threads = std::max<std::size_t>(
        2, Tenants.defaultTenant()->Session->program().getNumThreads());
  Pool = Tenants.defaultTenant()->Session->scheduler(Threads);
  Telemetry.Pool = Pool.get();

  ListenFd = Fd.release();
  EpollFd = Ep.release();
  WakeFd = Wk.release();
  MetricsFd = Mt.release();
  MetricsBoundPort = MetricsBound;
  Accepting = true;
  return true;
}

void Server::wake() {
  const std::uint64_t One = 1;
  [[maybe_unused]] ssize_t N = ::write(WakeFd, &One, sizeof(One));
}

void Server::stop() {
  if (Stopping.exchange(true))
    return;
  if (WakeFd >= 0)
    wake();
}

void Server::updateEpoll(Connection &C) {
  const std::uint32_t Mask =
      (C.ReadParked || C.PeerEof || C.Broken ? 0u : EPOLLIN) |
      (C.WantWrite ? EPOLLOUT : 0u);
  if (Mask == C.EpollMask)
    return;
  C.EpollMask = Mask;
  epoll_event Ev{};
  Ev.events = Mask;
  Ev.data.fd = C.Fd;
  ::epoll_ctl(EpollFd, EPOLL_CTL_MOD, C.Fd, &Ev);
}

void Server::acceptReady() {
  for (;;) {
    const int Fd =
        ::accept4(ListenFd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (Fd < 0) {
      // EINTR and ECONNABORTED are transient per-connection conditions;
      // the old loop treated any failure as fatal and tore the server
      // down on the first signal. EMFILE/ENFILE (fd exhaustion) backs off
      // until closes free descriptors.
      if (errno == EINTR || errno == ECONNABORTED)
        continue;
      break; // EAGAIN, fd exhaustion, or listen socket gone
    }
    if (Conns.size() >= Options.MaxConnections) {
      Telemetry.Counters.ConnectionsRejected.fetch_add(
          1, std::memory_order_relaxed);
      ::close(Fd);
      continue;
    }
    auto Conn = std::make_shared<Connection>();
    Conn->Fd = Fd;
    Conn->IsTcp = Options.UnixPath.empty();
    if (Conn->IsTcp) {
      int One = 1;
      ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
    }
    epoll_event Ev{};
    Ev.events = EPOLLIN;
    Ev.data.fd = Fd;
    if (::epoll_ctl(EpollFd, EPOLL_CTL_ADD, Fd, &Ev) < 0) {
      ::close(Fd);
      continue;
    }
    Telemetry.Counters.ConnectionsAccepted.fetch_add(
        1, std::memory_order_relaxed);
    Conns.emplace(Fd, std::move(Conn));
  }
}

void Server::execute(Connection &C, PendingReq Req) {
  std::unique_ptr<obs::RequestTrace> Trace = std::move(Req.Trace);
  RequestOutcome Outcome =
      Req.Parsed ? handleRequest(Tenants, *Req.Parsed, Trace.get())
                 : handleRequest(Tenants, Req.Payload, Trace.get());
  std::string Frame;
  {
    obs::StageScope Scope(Trace.get(), obs::RequestStage::Serialize);
    Frame = encodeFrame(Outcome.Reply.dump());
  }
  bool Delivered = false;
  {
    std::lock_guard<std::mutex> Lock(C.M);
    if (!C.Closed) {
      C.Done.emplace(Req.Seq,
                     Connection::Reply{std::move(Frame), std::move(Trace)});
      Delivered = true;
      if (Outcome.Shutdown)
        C.ShutdownRequested = true;
    }
  }
  if (!Delivered && Trace)
    // The connection died mid-request; the reply goes nowhere, but the
    // trace still finishes so started/finished stay balanced.
    Telemetry.Traces.finish(std::move(Trace));
  InFlightTotal.fetch_sub(1, std::memory_order_relaxed);
}

void Server::dispatch(const std::shared_ptr<Connection> &Conn,
                      PendingReq Req) {
  PendingJobs.fetch_add(1, std::memory_order_acq_rel);
  // submit() takes a std::function, which requires a copyable callable,
  // so the trace crosses into the job as a raw pointer; submit()
  // guarantees the closure runs exactly once (inline if need be).
  obs::RequestTrace *TraceRaw = Req.Trace.release();
  Pool->submit([this, Conn, Seq = Req.Seq, Payload = std::move(Req.Payload),
                Parsed = std::move(Req.Parsed), TraceRaw]() mutable {
    std::unique_ptr<obs::RequestTrace> Trace(TraceRaw);
    if (Trace) {
      // The queue-wait span closes on the executing thread, which also
      // knows which slot it is and how it obtained the job.
      Trace->endStage(obs::RequestStage::Queue);
      Trace->ExecSlot = Pool->executingSlot();
      Trace->Source =
          interp::entrySourceName(interp::Scheduler::currentEntrySource());
    }
    execute(*Conn, PendingReq{Seq, std::move(Payload), std::move(Parsed),
                              std::move(Trace)});
    {
      std::lock_guard<std::mutex> Lock(DirtyM);
      if (!Conn->InDirty) {
        Conn->InDirty = true;
        Dirty.push_back(Conn);
      }
    }
    wake();
    // Last action: serve()/~Server wait on this before freeing the
    // structures the lines above touch.
    PendingJobs.fetch_sub(1, std::memory_order_acq_rel);
  });
}

void Server::parseAndDispatch(const std::shared_ptr<Connection> &Conn) {
  Connection &C = *Conn;
  const bool Tracing = Telemetry.Traces.enabled();
  while (!C.Broken && C.InFlight < Options.MaxInFlightPerConnection) {
    std::string Payload, FrameError;
    const std::uint64_t DecodeBegin = Tracing ? Telemetry.Traces.now() : 0;
    const FrameDecoder::Result R = C.Decoder.next(Payload, &FrameError);
    if (R == FrameDecoder::Result::NeedMore)
      break;
    const std::uint64_t Seq = C.NextSeq++;
    C.InFlight += 1;
    if (R == FrameDecoder::Result::Error) {
      // Framing violations (oversized or negative lengths, mid-stream
      // garbage) answer with a protocol error frame, then poison the
      // connection: earlier pipelined requests still flush first.
      Telemetry.Counters.ProtocolErrors.fetch_add(1,
                                                  std::memory_order_relaxed);
      obs::json::Value Reply = errorReply("protocol error: " + FrameError);
      Reply.set("micros", std::uint64_t(0));
      C.enqueueLocal(Seq, encodeFrame(Reply.dump()));
      C.Broken = true;
      break;
    }
    Telemetry.Counters.FramesIn.fetch_add(1, std::memory_order_relaxed);
    if (InFlightTotal.load(std::memory_order_relaxed) >=
        Options.MaxInFlightTotal) {
      // Admission control: beyond the global in-flight budget the server
      // answers immediately instead of queueing without bound.
      Telemetry.Counters.RequestsOverloaded.fetch_add(
          1, std::memory_order_relaxed);
      obs::json::Value Reply = errorReply("server overloaded");
      Reply.set("overloaded", true);
      Reply.set("micros", std::uint64_t(0));
      C.enqueueLocal(Seq, encodeFrame(Reply.dump()));
      continue;
    }
    InFlightTotal.fetch_add(1, std::memory_order_relaxed);
    // Only admitted requests draw a trace, so 1-in-N sampling counts the
    // requests that actually execute.
    std::unique_ptr<obs::RequestTrace> Trace =
        Telemetry.Traces.begin(NextTraceSeq++);
    if (Trace) {
      Trace->beginStage(obs::RequestStage::Decode, DecodeBegin);
      Trace->endStage(obs::RequestStage::Decode);
    }
    // A small frame is parsed once, here, so its command can decide where
    // it runs; a large one goes to the pool unparsed.
    PendingReq &Req = C.Pending.emplace_back();
    Req.Seq = Seq;
    if (Payload.size() <= MaxLoopParseBytes)
      Req.Parsed.emplace(parseRequest(Payload, Trace.get()));
    else
      Req.Payload = std::move(Payload);
    if (Trace)
      Trace->beginStage(obs::RequestStage::Pending);
    Req.Trace = std::move(Trace);
  }
  C.ReadParked = !C.Broken && C.InFlight >= Options.MaxInFlightPerConnection;
}

void Server::collectReplies(const std::shared_ptr<Connection> &Conn) {
  Connection &C = *Conn;
  bool Shutdown = false;
  {
    std::lock_guard<std::mutex> Lock(C.M);
    for (auto It = C.Done.find(C.NextRelease); It != C.Done.end();
         It = C.Done.find(C.NextRelease)) {
      C.Out += It->second.Frame;
      if (It->second.Trace) {
        // The reply entered the write buffer; its write span runs until
        // the buffer drains (finishFlushedTraces).
        It->second.Trace->beginStage(obs::RequestStage::Write);
        C.Flushing.push_back(std::move(It->second.Trace));
      }
      C.Done.erase(It);
      ++C.NextRelease;
      if (C.InFlight > 0)
        --C.InFlight;
      Telemetry.Counters.FramesOut.fetch_add(1, std::memory_order_relaxed);
    }
    Shutdown = C.ShutdownRequested;
    C.ShutdownRequested = false;
  }
  if (Shutdown && !Draining) {
    // Graceful: stop accepting, let in-flight work finish and flush.
    Draining = true;
    if (Accepting) {
      ::epoll_ctl(EpollFd, EPOLL_CTL_DEL, ListenFd, nullptr);
      Accepting = false;
    }
  }
}

void Server::flushWrites(const std::shared_ptr<Connection> &Conn) {
  Connection &C = *Conn;
  while (C.OutPos < C.Out.size()) {
    const ssize_t N = ::write(C.Fd, C.Out.data() + C.OutPos,
                              C.Out.size() - C.OutPos);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        break;
      C.Broken = true; // EPIPE/ECONNRESET: peer is gone
      C.Out.clear();
      C.OutPos = 0;
      break;
    }
    C.OutPos += static_cast<std::size_t>(N);
  }
  if (C.OutPos == C.Out.size()) {
    C.Out.clear();
    C.OutPos = 0;
  } else if (C.OutPos > (std::size_t(1) << 16) &&
             C.OutPos * 2 > C.Out.size()) {
    C.Out.erase(0, C.OutPos);
    C.OutPos = 0;
  }
  C.WantWrite = !C.Out.empty();
}

void Server::finishFlushedTraces(Connection &C) {
  for (std::unique_ptr<obs::RequestTrace> &T : C.Flushing) {
    T->endStage(obs::RequestStage::Write);
    // finish() consumes the trace, so a slow-log record is rendered
    // first; only already-slow requests pay for the rendering.
    obs::json::Value Record;
    const bool WantLog =
        Telemetry.SlowLog.enabled() &&
        T->totalMicros() >= Telemetry.SlowLog.thresholdMicros();
    if (WantLog)
      Record = T->toJson();
    const bool Slow = Telemetry.Traces.finish(std::move(T));
    if (Slow && WantLog)
      Telemetry.SlowLog.record(Record);
  }
  C.Flushing.clear();
}

void Server::closeConnection(const std::shared_ptr<Connection> &Conn) {
  Connection &C = *Conn;
  if (C.Fd < 0)
    return;
  {
    std::lock_guard<std::mutex> Lock(C.M);
    C.Closed = true;
    // Replies that never released still finish their traces, so
    // started/finished stay balanced across connection death.
    for (auto &[Seq, R] : C.Done)
      if (R.Trace)
        Telemetry.Traces.finish(std::move(R.Trace));
    C.Done.clear();
  }
  for (PendingReq &Req : C.Pending)
    if (Req.Trace)
      Telemetry.Traces.finish(std::move(Req.Trace));
  // Queued-but-undispatched requests die with the connection; the active
  // job (if any) settles its own InFlightTotal share when it finishes.
  InFlightTotal.fetch_sub(C.Pending.size(), std::memory_order_relaxed);
  C.Pending.clear();
  finishFlushedTraces(C); // whatever was mid-flush ends now
  ::epoll_ctl(EpollFd, EPOLL_CTL_DEL, C.Fd, nullptr);
  ::close(C.Fd);
  Conns.erase(C.Fd);
  C.Fd = -1;
  Telemetry.Counters.ConnectionsClosed.fetch_add(1,
                                                 std::memory_order_relaxed);
}

/// Services one connection on the event-loop thread: releases completed
/// replies in order, resumes parked reads when the window reopened,
/// flushes, and closes once nothing can follow.
void Server::writeReady(const std::shared_ptr<Connection> &Conn) {
  Connection &C = *Conn;
  if (C.Fd < 0)
    return;
  bool RanInline = false;
  for (;;) {
    collectReplies(Conn);
    if (C.Fd < 0)
      return;
    // Releases are contiguous in seq order, so the active job is done
    // exactly when the release cursor moved past it.
    if (C.JobActive && C.NextRelease > C.ActiveSeq)
      C.JobActive = false;
    if (!C.JobActive && !C.Pending.empty()) {
      PendingReq &Next = C.Pending.front();
      // An index probe reads a snapshot and never waits for the writer:
      // answer it here rather than pay two thread hand-offs.
      const bool Inline =
          Next.Parsed && probesIndex(Tenants, *Next.Parsed);
      if (Inline) {
        if (RanInline) {
          // One request on the loop per connection per pass.
          if (!C.InDeferred) {
            C.InDeferred = true;
            Deferred.push_back(Conn);
          }
          break;
        }
        RanInline = true;
      }
      PendingReq Req = std::move(Next);
      C.Pending.pop_front();
      C.JobActive = true;
      C.ActiveSeq = Req.Seq;
      Telemetry.Counters.RequestsDispatched.fetch_add(
          1, std::memory_order_relaxed);
      if (Req.Trace) {
        const std::uint64_t Now = Telemetry.Traces.now();
        Req.Trace->endStage(obs::RequestStage::Pending, Now);
        Req.Trace->beginStage(obs::RequestStage::Queue, Now);
        if (Inline) {
          // No hand-off: the queue span is empty and the loop (slot 0)
          // executes the request itself.
          Req.Trace->endStage(obs::RequestStage::Queue, Now);
          Req.Trace->ExecSlot = 0;
          Req.Trace->Source =
              interp::entrySourceName(interp::EntrySource::Inline);
        }
      }
      if (Inline)
        execute(C, std::move(Req));
      else
        dispatch(Conn, std::move(Req));
      continue; // the reply may already be waiting for release
    }
    if (C.ReadParked && !C.Broken && !C.PeerEof &&
        C.InFlight < Options.MaxInFlightPerConnection) {
      C.ReadParked = false;
      parseAndDispatch(Conn); // buffered frames first, then the socket
      continue;               // may have produced local replies
    }
    break;
  }
  flushWrites(Conn);
  if (C.Out.empty() && !C.Flushing.empty())
    finishFlushedTraces(C);
  const bool Drained = C.Out.empty() && C.InFlight == 0;
  if ((C.Broken || C.PeerEof) && Drained) {
    closeConnection(Conn);
    return;
  }
  updateEpoll(C);
}

void Server::readReady(const std::shared_ptr<Connection> &Conn) {
  Connection &C = *Conn;
  char Buf[64 << 10];
  while (!C.Broken && !C.ReadParked) {
    const ssize_t N = ::read(C.Fd, Buf, sizeof(Buf));
    if (N > 0) {
      C.Decoder.feed(Buf, static_cast<std::size_t>(N));
      parseAndDispatch(Conn);
      // A short read drained the socket; epoll is level-triggered, so
      // skipping the read that would only return EAGAIN loses nothing.
      if (static_cast<std::size_t>(N) < sizeof(Buf))
        break;
      continue;
    }
    if (N == 0) {
      C.PeerEof = true; // half-close: keep flushing replies
      break;
    }
    if (errno == EINTR)
      continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      break;
    C.Broken = true;
    break;
  }
  writeReady(Conn); // release/flush/park bookkeeping shared with writes
}

void Server::acceptMetricsReady() {
  for (;;) {
    const int Fd = ::accept4(MetricsFd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (Fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED)
        continue;
      break;
    }
    // Scrapers, not clients: a handful of concurrent scrapes is already
    // pathological, so the cap is tiny and excess connections just close.
    if (MetricsConns.size() >= 32) {
      ::close(Fd);
      continue;
    }
    epoll_event Ev{};
    Ev.events = EPOLLIN;
    Ev.data.fd = Fd;
    if (::epoll_ctl(EpollFd, EPOLL_CTL_ADD, Fd, &Ev) < 0) {
      ::close(Fd);
      continue;
    }
    auto MC = std::make_unique<MetricsConn>();
    MC->Fd = Fd;
    MetricsConns.emplace(Fd, std::move(MC));
  }
}

/// Builds the one HTTP response the metrics endpoint speaks: the
/// Prometheus exposition for GET /metrics, 404 for anything else.
static std::string metricsHttpResponse(const std::string &Head,
                                       const TenantRegistry &Tenants,
                                       obs::ServeCounters &Counters) {
  std::string Method, Target;
  const std::size_t Sp1 = Head.find(' ');
  if (Sp1 != std::string::npos) {
    Method = Head.substr(0, Sp1);
    const std::size_t Sp2 = Head.find(' ', Sp1 + 1);
    if (Sp2 != std::string::npos)
      Target = Head.substr(Sp1 + 1, Sp2 - Sp1 - 1);
  }
  const std::size_t Query = Target.find('?');
  if (Query != std::string::npos)
    Target.resize(Query);

  std::string Status, ContentType, Body;
  if (Method == "GET" && Target == "/metrics") {
    Status = "200 OK";
    ContentType = "text/plain; version=0.0.4; charset=utf-8";
    Body = renderPrometheus(Tenants);
    // Counted after rendering so a scrape never observes itself.
    Counters.MetricsScrapes.fetch_add(1, std::memory_order_relaxed);
  } else {
    Status = "404 Not Found";
    ContentType = "text/plain; charset=utf-8";
    Body = "not found; try GET /metrics\n";
  }
  std::string R;
  R.reserve(Body.size() + 128);
  R += "HTTP/1.1 " + Status + "\r\n";
  R += "Content-Type: " + ContentType + "\r\n";
  R += "Content-Length: " + std::to_string(Body.size()) + "\r\n";
  R += "Connection: close\r\n\r\n";
  R += Body;
  return R;
}

void Server::metricsConnReady(int Fd) {
  auto It = MetricsConns.find(Fd);
  if (It == MetricsConns.end())
    return;
  MetricsConn &MC = *It->second;
  if (!MC.Responding) {
    char Buf[4096];
    for (;;) {
      const ssize_t N = ::read(Fd, Buf, sizeof(Buf));
      if (N > 0) {
        MC.In.append(Buf, static_cast<std::size_t>(N));
        if (MC.In.size() > (std::size_t(16) << 10)) {
          closeMetricsConn(Fd); // request head absurdly large
          return;
        }
        continue;
      }
      if (N == 0) {
        if (MC.In.find("\r\n\r\n") == std::string::npos) {
          closeMetricsConn(Fd); // EOF before a complete head
          return;
        }
        break;
      }
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        break;
      closeMetricsConn(Fd);
      return;
    }
    if (MC.In.find("\r\n\r\n") == std::string::npos)
      return; // head still incomplete; wait for more bytes
    MC.Out = metricsHttpResponse(MC.In, Tenants, Telemetry.Counters);
    MC.Responding = true;
    epoll_event Ev{};
    Ev.events = EPOLLOUT;
    Ev.data.fd = Fd;
    ::epoll_ctl(EpollFd, EPOLL_CTL_MOD, Fd, &Ev);
  }
  while (MC.OutPos < MC.Out.size()) {
    const ssize_t N = ::write(Fd, MC.Out.data() + MC.OutPos,
                              MC.Out.size() - MC.OutPos);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK)
        return;
      break; // peer gone
    }
    MC.OutPos += static_cast<std::size_t>(N);
  }
  closeMetricsConn(Fd); // one response per connection
}

void Server::closeMetricsConn(int Fd) {
  auto It = MetricsConns.find(Fd);
  if (It == MetricsConns.end())
    return;
  ::epoll_ctl(EpollFd, EPOLL_CTL_DEL, Fd, nullptr);
  ::close(Fd);
  MetricsConns.erase(It);
}

bool Server::drained() {
  if (InFlightTotal.load(std::memory_order_relaxed) != 0 ||
      PendingJobs.load(std::memory_order_acquire) != 0)
    return false;
  for (const auto &[Fd, Conn] : Conns) {
    std::lock_guard<std::mutex> Lock(Conn->M);
    if (!Conn->Out.empty() || !Conn->Done.empty())
      return false;
  }
  return true;
}

void Server::eventLoop() {
  std::chrono::steady_clock::time_point DrainDeadline{};
  bool DeadlineSet = false;
  epoll_event Events[128];
  for (;;) {
    if (Stopping.load(std::memory_order_acquire))
      break;
    if (Draining) {
      if (!DeadlineSet) {
        DrainDeadline = std::chrono::steady_clock::now() + DrainGrace;
        DeadlineSet = true;
      }
      if (drained() || std::chrono::steady_clock::now() >= DrainDeadline)
        break;
    }
    const int Timeout = !Deferred.empty() ? 0 : Draining ? 20 : 500;
    const int N = ::epoll_wait(EpollFd, Events, 128, Timeout);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    for (int I = 0; I < N; ++I) {
      const int Fd = Events[I].data.fd;
      if (Fd == WakeFd) {
        // One read resets a (non-semaphore) eventfd's counter.
        std::uint64_t Tick;
        [[maybe_unused]] ssize_t R = ::read(WakeFd, &Tick, sizeof(Tick));
        continue;
      }
      if (Fd == ListenFd) {
        acceptReady();
        continue;
      }
      if (MetricsFd >= 0 && Fd == MetricsFd) {
        acceptMetricsReady();
        continue;
      }
      if (MetricsConns.count(Fd)) {
        metricsConnReady(Fd);
        continue;
      }
      auto It = Conns.find(Fd);
      if (It == Conns.end())
        continue;
      std::shared_ptr<Connection> Conn = It->second;
      if (Events[I].events & (EPOLLERR | EPOLLHUP))
        Conn->PeerEof = true;
      if (Events[I].events & EPOLLIN)
        readReady(Conn);
      else
        writeReady(Conn);
    }
    // Replies completed by pool jobs since the last pass, and the
    // connections whose next loop-run request waited for this pass.
    std::vector<std::shared_ptr<Connection>> Ready;
    {
      std::lock_guard<std::mutex> Lock(DirtyM);
      Ready.swap(Dirty);
      for (const auto &Conn : Ready)
        Conn->InDirty = false;
    }
    for (auto &Conn : Deferred) {
      Conn->InDeferred = false;
      Ready.push_back(std::move(Conn));
    }
    Deferred.clear();
    for (const auto &Conn : Ready)
      if (Conn->Fd >= 0)
        writeReady(Conn);
  }
}

void Server::serve() {
  eventLoop();
  // Tear down every connection, then wait for stragglers in the pool —
  // after this no job can touch the server (the shared Connection state
  // outlives them via shared_ptr, and Closed drops their replies).
  std::vector<std::shared_ptr<Connection>> Remaining;
  Remaining.reserve(Conns.size());
  for (auto &[Fd, Conn] : Conns)
    Remaining.push_back(Conn);
  for (const auto &Conn : Remaining)
    closeConnection(Conn);
  while (PendingJobs.load(std::memory_order_acquire) != 0)
    std::this_thread::yield();
  if (!Options.TraceOutPath.empty()) {
    // Retained request traces become one Chrome trace-event document,
    // sharing the format (and viewers) with the evaluator's --trace-out.
    obs::TraceRecorder Recorder;
    Recorder.append(Telemetry.Traces.drainChrome());
    std::ofstream OutFile(Options.TraceOutPath,
                          std::ios::binary | std::ios::trunc);
    if (OutFile)
      OutFile << Recorder.toJson();
  }
}
