//===- tests/srv/ServerTest.cpp - Epoll server integration tests --------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event-loop server end to end, over real TCP sockets: pipelined v2
/// conversations, reply ordering, many concurrent connections against one
/// session (the serving layer's TSan subject), a bound query answered on
/// the event loop while another connection's write runs, framing-violation
/// replies, and the admission-control paths (connection cap, in-flight
/// budget).
///
//===----------------------------------------------------------------------===//

#include "obs/Json.h"
#include "srv/Server.h"
#include "srv/Session.h"
#include "srv/Wire.h"

#include "../obs/MetricsTestSupport.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <netinet/in.h>
#include <poll.h>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace stird;
using namespace stird::srv;
using obs::json::Value;

namespace {

constexpr const char *TcSource = R"(
  .decl edge(a:number, b:number)
  .decl path(a:number, b:number)
  path(x, y) :- edge(x, y).
  path(x, z) :- path(x, y), edge(y, z).
)";

/// One seed fact makes a load whose maintenance runs for a long time: the
/// counter chain derives one tuple per semi-naive round.
constexpr const char *ChainSource = R"(
  .decl seed(x:number)
  .decl n(x:number)
  n(x) :- seed(x).
  n(x + 1) :- n(x), x < 200000.
)";

/// A blocking client connection to a Server on 127.0.0.1.
struct Client {
  int Fd = -1;
  explicit Client(int Port) {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(Fd, 0);
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(static_cast<std::uint16_t>(Port));
    ::inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
    EXPECT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                        sizeof(Addr)),
              0)
        << std::strerror(errno);
  }
  ~Client() { close(); }
  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;
  void close() {
    if (Fd >= 0)
      ::close(Fd);
    Fd = -1;
  }

  bool send(const std::string &Payload) { return writeFrame(Fd, Payload); }

  /// Reads one reply frame and parses it; ADD_FAILUREs on transport or
  /// JSON errors and returns a null Value.
  Value recv() {
    std::string Reply, Error;
    if (!readFrame(Fd, Reply, &Error)) {
      ADD_FAILURE() << "readFrame: "
                    << (Error.empty() ? "connection closed" : Error);
      return Value();
    }
    std::optional<Value> Doc = obs::json::parse(Reply);
    if (!Doc) {
      ADD_FAILURE() << "malformed reply: " << Reply;
      return Value();
    }
    return std::move(*Doc);
  }

  Value roundTrip(const std::string &Payload) {
    EXPECT_TRUE(send(Payload));
    return recv();
  }

  /// True when a reply (or EOF) is already waiting to be read.
  bool readable() const {
    pollfd P{Fd, POLLIN, 0};
    return ::poll(&P, 1, 0) == 1;
  }
};

bool okOf(const Value &Reply) {
  const Value *Ok = Reply.find("ok");
  return Ok && Ok->isBool() && Ok->asBool();
}

/// A Server over a fresh session, serving on a background thread.
class ServerTest : public ::testing::Test {
protected:
  void boot(ServerOptions Options = {}, const char *Source = TcSource) {
    Session = EngineSession::fromSource(Source);
    ASSERT_NE(Session, nullptr);
    Srv = std::make_unique<Server>(*Session, Options);
    std::string Error;
    ASSERT_TRUE(Srv->start(&Error)) << Error;
    Thread = std::thread([this] { Srv->serve(); });
  }

  void TearDown() override {
    if (Srv)
      Srv->stop();
    if (Thread.joinable())
      Thread.join();
  }

  std::unique_ptr<EngineSession> Session;
  std::unique_ptr<Server> Srv;
  std::thread Thread;
};

TEST_F(ServerTest, PipelinedRequestsReplyInOrderWithIds) {
  boot();
  Client C(Srv->boundPort());
  ASSERT_TRUE(C.send(R"({"cmd":"load","facts":{"edge":[[1,2],[2,3]]},"id":0})"));
  // Burst of pipelined queries before reading anything back.
  for (int I = 1; I <= 8; ++I)
    ASSERT_TRUE(C.send(
        R"({"cmd":"query","relation":"path","pattern":[1,null],"id":)" +
        std::to_string(I) + "}"));

  const Value Load = C.recv();
  ASSERT_TRUE(okOf(Load));
  EXPECT_EQ(Load.find("id")->asNumber(), 0);
  for (int I = 1; I <= 8; ++I) {
    const Value R = C.recv();
    ASSERT_TRUE(okOf(R));
    EXPECT_EQ(R.find("id")->asNumber(), I) << "reply order must be "
                                              "request order";
    EXPECT_EQ(R.find("count")->asNumber(), 2);
    // The load precedes every query in the pipeline, so each sees epoch 1.
    EXPECT_EQ(R.find("epoch")->asNumber(), 1);
  }
}

TEST_F(ServerTest, RepeatQueriesAreServedFromTheCache) {
  boot();
  Client C(Srv->boundPort());
  ASSERT_TRUE(okOf(C.roundTrip(
      R"({"cmd":"load","facts":{"edge":[[1,2],[2,3]]}})")));
  const std::string Q =
      R"({"cmd":"query","relation":"path","pattern":[1,null]})";
  const Value Cold = C.roundTrip(Q);
  ASSERT_TRUE(okOf(Cold));
  EXPECT_FALSE(Cold.find("cached")->asBool());
  const Value Warm = C.roundTrip(Q);
  ASSERT_TRUE(okOf(Warm));
  EXPECT_TRUE(Warm.find("cached")->asBool());

  // A publish must invalidate: the same query recomputes at epoch 2.
  ASSERT_TRUE(okOf(C.roundTrip(
      R"({"cmd":"load","facts":{"edge":[[3,4]]}})")));
  const Value Fresh = C.roundTrip(Q);
  ASSERT_TRUE(okOf(Fresh));
  EXPECT_FALSE(Fresh.find("cached")->asBool());
  EXPECT_EQ(Fresh.find("count")->asNumber(), 3);
}

TEST_F(ServerTest, FramingViolationAnswersThenCloses) {
  boot();
  Client C(Srv->boundPort());
  // A valid request pipelined before the poisoned frame still answers.
  ASSERT_TRUE(C.send(R"({"cmd":"stats","id":1})"));
  const unsigned char Huge[4] = {0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_EQ(::write(C.Fd, Huge, 4), 4);

  const Value Stats = C.recv();
  EXPECT_TRUE(okOf(Stats));
  const Value ProtoError = C.recv();
  EXPECT_FALSE(okOf(ProtoError));
  EXPECT_NE(ProtoError.find("error")->asString().find("protocol error"),
            std::string::npos);
  // ...and then the server closes the connection.
  std::string Rest, Error = "sentinel";
  EXPECT_FALSE(readFrame(C.Fd, Rest, &Error));
  EXPECT_EQ(Error, "") << "expected clean EOF after a protocol error";
}

TEST_F(ServerTest, ConnectionCapClosesExtraConnections) {
  ServerOptions Options;
  Options.MaxConnections = 1;
  boot(Options);
  Client First(Srv->boundPort());
  ASSERT_TRUE(okOf(First.roundTrip(R"({"cmd":"stats"})")));

  Client Second(Srv->boundPort());
  // The kernel completes the connect; the server closes it at accept.
  std::string Reply, Error = "sentinel";
  EXPECT_FALSE(readFrame(Second.Fd, Reply, &Error));
  EXPECT_EQ(Error, "");
  // The admitted connection keeps working.
  EXPECT_TRUE(okOf(First.roundTrip(R"({"cmd":"stats"})")));
  EXPECT_GE(Srv->counters().ConnectionsRejected.load(), 1u);
}

TEST_F(ServerTest, ZeroInFlightBudgetAnswersOverloaded) {
  ServerOptions Options;
  Options.MaxInFlightTotal = 0; // admission always refuses
  boot(Options);
  Client C(Srv->boundPort());
  const Value R = C.roundTrip(R"({"cmd":"stats","id":3})");
  EXPECT_FALSE(okOf(R));
  EXPECT_NE(R.find("error")->asString().find("overloaded"),
            std::string::npos);
  EXPECT_TRUE(R.find("overloaded")->asBool());
  EXPECT_GE(Srv->counters().RequestsOverloaded.load(), 1u);
}

TEST_F(ServerTest, ShutdownRequestDrainsAndStopsServe) {
  boot();
  {
    Client C(Srv->boundPort());
    ASSERT_TRUE(okOf(C.roundTrip(R"({"cmd":"shutdown"})")));
  }
  Thread.join(); // serve() must return on its own
  Thread = std::thread([] {});
}

TEST_F(ServerTest, BoundQueryIsAnsweredWhileAWriteRuns) {
  ServerOptions Options;
  Options.PoolThreads = 2; // one pool worker: the load occupies it
  boot(Options, ChainSource);
  Client Writer(Srv->boundPort()), Reader(Srv->boundPort());
  const std::string Probe =
      R"({"cmd":"query","relation":"n","pattern":[0]})";
  const Value Before = Reader.roundTrip(Probe);
  ASSERT_TRUE(okOf(Before)) << Before.dump();
  const std::uint64_t Epoch = Before.find("epoch")->asUint();

  ASSERT_TRUE(Writer.send(R"({"cmd":"load","facts":{"seed":[[0]]}})"));
  // Give the load time to reach the worker; the assertions below hold
  // either way, this only makes the overlap the usual case.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const Value During = Reader.roundTrip(Probe);
  EXPECT_FALSE(Writer.readable())
      << "the query waited for the load to finish";
  ASSERT_TRUE(okOf(During)) << During.dump();
  EXPECT_EQ(During.find("epoch")->asUint(), Epoch)
      << "a read during a write serves the snapshot published before it";
  EXPECT_EQ(During.find("count")->asUint(), 0u);

  const Value Load = Writer.recv();
  ASSERT_TRUE(okOf(Load)) << Load.dump();
  EXPECT_EQ(Load.find("epoch")->asUint(), Epoch + 1);
  const Value After = Reader.roundTrip(Probe);
  ASSERT_TRUE(okOf(After));
  EXPECT_EQ(After.find("epoch")->asUint(), Epoch + 1);
  EXPECT_EQ(After.find("count")->asUint(), 1u);
}

/// The serving layer's TSan stress: many connections pipelining loads and
/// queries against one session concurrently with each other. Every reply
/// must be well-formed, in order, and consistent with some published
/// epoch.
TEST_F(ServerTest, ManyConcurrentConnectionsStress) {
  boot();
  constexpr int NumClients = 32;
  constexpr int RequestsPerClient = 12;

  std::vector<std::thread> Clients;
  std::atomic<int> OkReplies{0};
  for (int T = 0; T < NumClients; ++T)
    Clients.emplace_back([this, T, &OkReplies] {
      Client C(Srv->boundPort());
      if (C.Fd < 0)
        return;
      // Every client loads a private edge (disjoint node ranges, so no
      // cross-client paths), then pipelines queries behind the load.
      const int Base = 100 + 2 * T;
      ASSERT_TRUE(C.send("{\"cmd\":\"load\",\"facts\":{\"edge\":[[" +
                         std::to_string(Base) + "," +
                         std::to_string(Base + 1) + "]]},\"id\":0}"));
      for (int I = 1; I < RequestsPerClient; ++I)
        ASSERT_TRUE(C.send(
            R"({"cmd":"query","relation":"path","pattern":[)" +
            std::to_string(Base) + R"(,null],"id":)" + std::to_string(I) +
            "}"));
      for (int I = 0; I < RequestsPerClient; ++I) {
        const Value R = C.recv();
        ASSERT_TRUE(okOf(R)) << R.dump();
        ASSERT_NE(R.find("id"), nullptr);
        EXPECT_EQ(R.find("id")->asNumber(), I);
        if (I > 0) {
          // Per-connection FIFO execution: the pipelined load published
          // before any of this client's queries ran, so its edge must be
          // visible — read-your-writes within a connection.
          EXPECT_EQ(R.find("count")->asNumber(), 1) << R.dump();
        }
        OkReplies.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (std::thread &T : Clients)
    T.join();

  EXPECT_EQ(OkReplies.load(), NumClients * RequestsPerClient);
  EXPECT_GE(Srv->counters().ConnectionsAccepted.load(),
            static_cast<std::uint64_t>(NumClients));
  EXPECT_EQ(Srv->counters().ProtocolErrors.load(), 0u);
  // All clients loaded distinct edges into one session.
  EXPECT_EQ(Session->epoch(), static_cast<std::uint64_t>(NumClients));
}

//===----------------------------------------------------------------------===//
// Serving observability: the /metrics endpoint, per-request traces, the
// slow-query log.
//===----------------------------------------------------------------------===//

/// One blocking HTTP exchange against the metrics listener; returns the
/// whole response (the server closes after one response).
std::string httpGet(int Port, const std::string &Target) {
  const int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(Fd, 0);
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(static_cast<std::uint16_t>(Port));
  ::inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
  EXPECT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)),
            0)
      << std::strerror(errno);
  const std::string Request =
      "GET " + Target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
  EXPECT_EQ(::write(Fd, Request.data(), Request.size()),
            static_cast<ssize_t>(Request.size()));
  std::string Response;
  char Buf[4096];
  ssize_t N;
  while ((N = ::read(Fd, Buf, sizeof(Buf))) > 0)
    Response.append(Buf, static_cast<std::size_t>(N));
  ::close(Fd);
  return Response;
}

/// The body of an HTTP response (everything past the blank line).
std::string bodyOf(const std::string &Response) {
  const std::size_t Pos = Response.find("\r\n\r\n");
  return Pos == std::string::npos ? std::string() : Response.substr(Pos + 4);
}

/// Sums every sample of \p Name (any label set) in an exposition body.
double sumOfSamples(const std::string &Body, const std::string &Name) {
  std::istringstream In(Body);
  std::string Line;
  double Sum = 0;
  while (std::getline(In, Line)) {
    if (Line.rfind(Name, 0) != 0)
      continue;
    const char Next = Line.size() > Name.size() ? Line[Name.size()] : '\0';
    if (Next != '{' && Next != ' ')
      continue; // a longer name sharing the prefix
    Sum += std::strtod(Line.substr(Line.rfind(' ') + 1).c_str(), nullptr);
  }
  return Sum;
}

TEST_F(ServerTest, MetricsEndpointServesPrometheus) {
  ServerOptions Options;
  Options.MetricsPort = 0; // kernel-assigned
  boot(Options);
  ASSERT_GT(Srv->metricsPort(), 0);

  Client C(Srv->boundPort());
  ASSERT_TRUE(okOf(C.roundTrip(
      R"({"cmd":"load","facts":{"edge":[[1,2],[2,3]]}})")));
  const std::string Q =
      R"({"cmd":"query","relation":"path","pattern":[1,null]})";
  ASSERT_TRUE(okOf(C.roundTrip(Q)));
  ASSERT_TRUE(okOf(C.roundTrip(Q))); // cache hit

  const std::string Response = httpGet(Srv->metricsPort(), "/metrics");
  EXPECT_EQ(Response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << Response;
  EXPECT_NE(Response.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  const std::string Body = bodyOf(Response);
  EXPECT_EQ(obs::prom::validatePrometheusText(Body), "") << Body;

  // The scrape reflects the conversation that just happened.
  EXPECT_EQ(sumOfSamples(Body, "stird_requests_dispatched_total"), 3.0);
  EXPECT_EQ(sumOfSamples(Body, "stird_cache_hits_total"), 1.0);
  EXPECT_NE(Body.find("stird_request_latency_micros_bucket"),
            std::string::npos);
  // Every dispatched request landed in exactly one latency series.
  EXPECT_EQ(sumOfSamples(Body, "stird_request_latency_micros_count"), 3.0);
  EXPECT_NE(Body.find("stird_relation_size{tenant=\"default\","),
            std::string::npos);

  // Unknown targets answer 404; the scrape counter only counts scrapes.
  EXPECT_EQ(httpGet(Srv->metricsPort(), "/other").rfind("HTTP/1.1 404", 0),
            0u);
  const std::string Second = bodyOf(httpGet(Srv->metricsPort(), "/metrics"));
  EXPECT_EQ(sumOfSamples(Second, "stird_metrics_scrapes_total"), 1.0);
}

TEST_F(ServerTest, SampledTracesCarryQueueWaitSpans) {
  ServerOptions Options;
  Options.TraceSampleEvery = 1; // trace everything
  boot(Options);
  Client C(Srv->boundPort());
  ASSERT_TRUE(okOf(C.roundTrip(
      R"({"cmd":"load","facts":{"edge":[[1,2],[2,3]]}})")));
  // A load too large to parse on the event loop: its pool job parses it.
  std::string BigLoad = R"({"cmd":"load","facts":{"edge":[)";
  for (int I = 100; I < 1100; ++I)
    BigLoad += (I > 100 ? ",[" : "[") + std::to_string(I) + "," +
               std::to_string(I + 1000) + "]";
  BigLoad += "]}}";
  ASSERT_GT(BigLoad.size(), 8192u);
  ASSERT_TRUE(okOf(C.roundTrip(BigLoad)));
  ASSERT_TRUE(okOf(C.roundTrip(
      R"({"cmd":"query","relation":"path","pattern":[1,null]})")));
  // Bound, but only on a column no index of edge starts with: the plan
  // scans the whole relation, so the pool runs it.
  const Value Unindexed = C.roundTrip(
      R"({"cmd":"query","relation":"edge","pattern":[null,3]})");
  ASSERT_TRUE(okOf(Unindexed)) << Unindexed.dump();
  ASSERT_EQ(Unindexed.find("plan")->find("prefix_len")->asUint(), 0u)
      << Unindexed.dump();
  ASSERT_TRUE(okOf(C.roundTrip(
      R"({"cmd":"query","relation":"path","pattern":[null,null]})")));

  const Value Stats = C.roundTrip(R"({"cmd":"stats"})");
  ASSERT_TRUE(okOf(Stats));
  const Value *Trace = Stats.find("trace");
  ASSERT_NE(Trace, nullptr) << Stats.dump();
  EXPECT_GE(Trace->find("sampled")->asUint(), 2u);
  const Value *Recent = Trace->find("recent");
  ASSERT_NE(Recent, nullptr);
  ASSERT_FALSE(Recent->asArray().empty());

  // The finished traces must account for their whole lifecycle — in
  // particular the queue wait between admission and execution, and where
  // they ran: an index probe on the event loop (slot 0, no queue wait);
  // loads, a query bound off every index prefix and a whole-relation
  // read on a pool worker.
  auto isPoolSource = [](const std::string &Source) {
    return Source == "own" || Source == "injected" || Source == "stolen";
  };
  std::size_t Loads = 0, Probes = 0, Scans = 0;
  for (const Value &T : Recent->asArray()) {
    const std::string Command = T.find("command")->asString();
    ASSERT_NE(T.find("slot"), nullptr) << T.dump();
    ASSERT_NE(T.find("source"), nullptr) << T.dump();
    const std::string Source = T.find("source")->asString();
    if (Command != "load" && Command != "query")
      continue;
    const Value *Spans = T.find("spans");
    ASSERT_NE(Spans, nullptr) << T.dump();
    EXPECT_NE(Spans->find("parse"), nullptr) << T.dump();
    if (Command == "load") {
      ++Loads;
      EXPECT_TRUE(isPoolSource(Source)) << T.dump();
      continue;
    }
    for (const char *Stage : {"decode", "parse", "pending", "queue", "eval",
                              "serialize", "write"})
      EXPECT_NE(Spans->find(Stage), nullptr)
          << "missing span '" << Stage << "' in " << T.dump();
    if (T.find("pattern")->asString() == "[1,null]") {
      ++Probes;
      EXPECT_EQ(Source, "inline") << T.dump();
      EXPECT_EQ(T.find("slot")->asUint(), 0u) << T.dump();
      EXPECT_EQ(Spans->find("queue")->asUint(), 0u) << T.dump();
    } else {
      ++Scans;
      EXPECT_TRUE(isPoolSource(Source)) << T.dump();
      EXPECT_GE(T.find("slot")->asUint(), 1u) << T.dump();
    }
  }
  EXPECT_EQ(Loads, 2u) << Stats.dump();
  EXPECT_EQ(Probes, 1u) << Stats.dump();
  EXPECT_EQ(Scans, 2u) << Stats.dump();
}

TEST_F(ServerTest, SlowQueryLogRecordsEveryRequestAtThresholdZero) {
  const std::string LogPath = ::testing::TempDir() + "stird-server-slow-" +
                              std::to_string(::getpid()) + ".jsonl";
  std::remove(LogPath.c_str());
  ServerOptions Options;
  Options.SlowQueryLogPath = LogPath;
  Options.SlowQueryMicros = 0; // every request is "slow"
  boot(Options);
  Client C(Srv->boundPort());
  ASSERT_TRUE(okOf(C.roundTrip(
      R"({"cmd":"load","facts":{"edge":[[1,2]]}})")));
  ASSERT_TRUE(okOf(C.roundTrip(
      R"({"cmd":"query","relation":"path","pattern":[1,null]})")));

  // Records land after the reply's write buffer drains; give the event
  // loop a moment to run that final step.
  for (int I = 0; I < 200 && Srv->telemetry().SlowLog.written() < 2; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_GE(Srv->telemetry().SlowLog.written(), 2u);

  std::ifstream In(LogPath);
  std::string Line;
  std::size_t Parsed = 0;
  bool SawQuery = false;
  while (std::getline(In, Line)) {
    std::optional<Value> Doc = obs::json::parse(Line);
    ASSERT_TRUE(Doc.has_value()) << Line;
    ++Parsed;
    ASSERT_NE(Doc->find("command"), nullptr);
    ASSERT_NE(Doc->find("total_micros"), nullptr);
    ASSERT_NE(Doc->find("spans"), nullptr);
    if (Doc->find("command")->asString() == "query") {
      SawQuery = true;
      // A slow-log entry is diffable against sampled traces: it carries
      // the request's relation and canonical pattern.
      EXPECT_NE(Doc->find("relation"), nullptr) << Line;
      EXPECT_NE(Doc->find("pattern"), nullptr) << Line;
    }
  }
  EXPECT_GE(Parsed, 2u);
  EXPECT_TRUE(SawQuery);
  std::remove(LogPath.c_str());
}

} // namespace
