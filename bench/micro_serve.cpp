//===- bench/micro_serve.cpp - Serving-layer latency and throughput -----------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving layer's two costs, in the bench JSON format
/// (--benchmark_format=json like every micro_* binary):
///
///  - query latency against a resident EngineSession: snapshot pinning,
///    a bound-prefix point query, and a full scan, all on a session whose
///    relations were derived once and stay hot;
///  - where a heavy read runs: a point query's round trip while another
///    connection's dump, unindexed scan or large index probe executes;
///  - incremental-batch throughput: driving a growing edge set through
///    loadFacts one batch at a time (the incremental maintenance plan)
///    versus the cold baseline a user without the serving layer pays —
///    a fresh engine re-evaluating all facts so far after every batch.
///
/// The batch benchmarks use manual timing so session bootstrap and input
/// construction stay out of the measured region.
///
/// The binary is also the serving-observability gate (exit code 1 on
/// failure): full telemetry — the /metrics endpoint plus 1-in-64 request
/// tracing — must cost under 2% of p99 round-trip latency, and the p99 the
/// endpoint reports for a 1024-connection battery must agree with the
/// exact p99 of the same requests within one histogram bucket.
///
//===----------------------------------------------------------------------===//

#include "core/Program.h"
#include "interp/Engine.h"
#include "obs/Histogram.h"
#include "obs/Json.h"
#include "srv/Server.h"
#include "srv/Session.h"
#include "srv/Wire.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <arpa/inet.h>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace stird;
using namespace stird::srv;

namespace {

constexpr const char *TcSource = R"(
.decl edge(a:number, b:number)
.decl path(a:number, b:number)
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
)";

constexpr RamDomain ChainLength = 160;

std::size_t pathsOf(RamDomain Edges) {
  return static_cast<std::size_t>(Edges) * (Edges + 1) / 2;
}

/// A session with the full chain resident, for the read-side benchmarks.
std::unique_ptr<EngineSession> residentSession() {
  auto Session = EngineSession::fromSource(TcSource);
  if (!Session)
    std::abort();
  std::vector<DynTuple> Edges;
  for (RamDomain I = 0; I < ChainLength; ++I)
    Edges.push_back({I, I + 1});
  Session->loadFacts({{"edge", Edges}});
  if (Session->query("path", Pattern(2)).size() != pathsOf(ChainLength))
    std::abort();
  return Session;
}

void BM_SnapshotPin(benchmark::State &State) {
  auto Session = residentSession();
  for (auto _ : State) {
    Snapshot Snap = Session->snapshot();
    benchmark::DoNotOptimize(Snap.epoch());
  }
}

void BM_QueryBoundPrefix(benchmark::State &State) {
  auto Session = residentSession();
  Pattern P(2);
  RamDomain From = 0;
  for (auto _ : State) {
    P[0] = From;
    From = (From + 1) % ChainLength;
    benchmark::DoNotOptimize(Session->query("path", P));
  }
}

void BM_QueryFullScan(benchmark::State &State) {
  auto Session = residentSession();
  const Pattern Wildcard(2);
  for (auto _ : State)
    benchmark::DoNotOptimize(Session->query("path", Wildcard));
}

/// Extends the resident chain one single-edge batch at a time through the
/// incremental maintenance plan (DRed on the recursive path stratum). Each
/// iteration rebuilds the session off the clock and times only the
/// NumBatches loadFacts calls.
void BM_IncrementalBatches(benchmark::State &State) {
  const RamDomain NumBatches = static_cast<RamDomain>(State.range(0));
  for (auto _ : State) {
    auto Session = EngineSession::fromSource(TcSource);
    if (!Session)
      std::abort();
    const auto Start = std::chrono::steady_clock::now();
    for (RamDomain I = 0; I < NumBatches; ++I)
      Session->loadFacts({{"edge", {{I, I + 1}}}});
    const auto End = std::chrono::steady_clock::now();
    if (Session->query("path", Pattern(2)).size() != pathsOf(NumBatches))
      std::abort();
    State.SetIterationTime(std::chrono::duration<double>(End - Start).count());
  }
  State.SetItemsProcessed(State.iterations() * NumBatches);
}

/// The no-serving-layer baseline: after every batch, a fresh engine
/// re-derives everything from all facts seen so far.
void BM_ColdReevaluation(benchmark::State &State) {
  const RamDomain NumBatches = static_cast<RamDomain>(State.range(0));
  auto Prog = core::Program::fromSource(TcSource);
  if (!Prog)
    std::abort();
  for (auto _ : State) {
    std::size_t FinalPaths = 0;
    const auto Start = std::chrono::steady_clock::now();
    for (RamDomain Batch = 1; Batch <= NumBatches; ++Batch) {
      interp::EngineOptions Options;
      Options.EchoPrintSize = false;
      auto Engine = Prog->makeEngine(Options);
      std::vector<DynTuple> Edges;
      for (RamDomain I = 0; I < Batch; ++I)
        Edges.push_back({I, I + 1});
      Engine->insertTuples("edge", Edges);
      Engine->run();
      FinalPaths = Engine->getTuples("path").size();
    }
    const auto End = std::chrono::steady_clock::now();
    if (FinalPaths != pathsOf(NumBatches))
      std::abort();
    State.SetIterationTime(std::chrono::duration<double>(End - Start).count());
  }
  State.SetItemsProcessed(State.iterations() * NumBatches);
}

//===----------------------------------------------------------------------===//
// Wire-level request handling: the query-result cache
//===----------------------------------------------------------------------===//

constexpr const char *PointQuery =
    R"({"cmd":"query","relation":"path","pattern":[1,null]})";

/// The uncached wire path: every iteration plans, scans, renders and
/// serializes the reply — what each repeat query cost before the cache.
void BM_WirePointQueryCold(benchmark::State &State) {
  auto Session = residentSession();
  obs::LatencyAggregator Latency;
  for (auto _ : State) {
    RequestOutcome Outcome = handleRequest(*Session, Latency, PointQuery);
    benchmark::DoNotOptimize(Outcome.Reply.dump());
  }
}

/// The cached wire path: same request through a tenant registry, so every
/// iteration after the first hits the per-tenant query cache.
void BM_WirePointQueryCached(benchmark::State &State) {
  auto Session = residentSession();
  TenantRegistry Tenants;
  Tenants.add("default", *Session);
  // Warm the entry once; the measured loop is all hits.
  handleRequest(Tenants, PointQuery);
  for (auto _ : State) {
    RequestOutcome Outcome = handleRequest(Tenants, PointQuery);
    benchmark::DoNotOptimize(Outcome.Reply.dump());
  }
  const QueryCache::Counters C = Tenants.defaultTenant()->Cache.counters();
  if (C.Hits < static_cast<std::uint64_t>(State.iterations()))
    std::abort(); // the measured loop must not have missed
  State.counters["hit_rate"] =
      static_cast<double>(C.Hits) / (C.Hits + C.Misses);
}

//===----------------------------------------------------------------------===//
// Many-connection serving: p99 point-query latency between batches
//===----------------------------------------------------------------------===//

int connectTo(int Port) {
  const int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    std::abort();
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(static_cast<std::uint16_t>(Port));
  ::inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0)
    std::abort();
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  return Fd;
}

/// Holds State.range(0) concurrent connections against one epoll server
/// and round-robins point queries across them, publishing a fact batch
/// every QueriesPerBatch queries (which also invalidates the result
/// cache). Reports p50/p99 per-query round-trip latency as counters; the
/// serving-layer gate is p99 < 1ms at 1024 connections.
void BM_ServerManyConnections(benchmark::State &State) {
  const std::size_t NumConns = static_cast<std::size_t>(State.range(0));
  constexpr std::size_t QueriesPerBatch = 512;

  auto Session = residentSession();
  srv::ServerOptions Options;
  srv::Server Server(*Session, Options);
  std::string Error;
  if (!Server.start(&Error))
    std::abort();
  std::thread Serving([&] { Server.serve(); });

  std::vector<int> Conns;
  Conns.reserve(NumConns);
  for (std::size_t I = 0; I < NumConns; ++I)
    Conns.push_back(connectTo(Server.boundPort()));

  std::vector<double> LatencyMicros;
  std::size_t Queries = 0;
  RamDomain NextNode = ChainLength;
  for (auto _ : State) {
    const int Fd = Conns[Queries % NumConns];
    const auto Start = std::chrono::steady_clock::now();
    if (!writeFrame(Fd, PointQuery))
      std::abort();
    std::string Reply;
    if (!readFrame(Fd, Reply))
      std::abort();
    const auto End = std::chrono::steady_clock::now();
    LatencyMicros.push_back(
        std::chrono::duration<double, std::micro>(End - Start).count());
    if (++Queries % QueriesPerBatch == 0) {
      // A publish between query windows: the next queries run cold.
      Session->loadFacts(
          {{"edge", {{NextNode, NextNode + 1}}}});
      ++NextNode;
    }
  }

  for (int Fd : Conns)
    ::close(Fd);
  Server.stop();
  Serving.join();

  if (!LatencyMicros.empty()) {
    std::sort(LatencyMicros.begin(), LatencyMicros.end());
    auto Percentile = [&](double P) {
      const std::size_t Index = static_cast<std::size_t>(
          P * static_cast<double>(LatencyMicros.size() - 1));
      return LatencyMicros[Index];
    };
    State.counters["p50_us"] = Percentile(0.50);
    State.counters["p99_us"] = Percentile(0.99);
    State.counters["connections"] = static_cast<double>(NumConns);
  }
}

//===----------------------------------------------------------------------===//
// Where a heavy read runs: a point query's latency while another
// connection's large read executes
//===----------------------------------------------------------------------===//

constexpr const char *WideSource = R"(
.decl edge(a:number, b:number)
.decl path(a:number, b:number)
.decl wide(a:number, b:number)
.decl tick(x:number)
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
)";

constexpr RamDomain WideRows = 20000;

/// The heavy reads, by benchmark argument. The server runs a query on its
/// event loop only when the plan probes an index (srv::probesIndex).
constexpr const char *HeavyReads[] = {
    // 0: whole-relation dump, 20000 rows: pool.
    R"({"cmd":"query","relation":"wide","pattern":[null,null]})",
    // 1: bound off every index prefix: full scan for one row, pool.
    R"({"cmd":"query","relation":"wide","pattern":[null,7]})",
    // 2: index probe matching 10000 rows: event loop.
    R"({"cmd":"query","relation":"wide","pattern":[0,null]})",
};

/// Connection A sends the heavy read of State.range(0); once the server
/// had time to start it, connection B sends a point query. Reports B's
/// round trip (probe_p50_us, probe_p99_us) and A's (heavy_p50_us): a heavy
/// read on the event loop holds B's reply until it finished, one on the
/// pool does not. A batch publish between iterations keeps the query
/// cache from answering.
void BM_ServerReadDuringHeavyRead(benchmark::State &State) {
  auto Session = EngineSession::fromSource(WideSource);
  if (!Session)
    std::abort();
  std::vector<DynTuple> Edges, Wide;
  for (RamDomain I = 0; I < ChainLength; ++I)
    Edges.push_back({I, I + 1});
  for (RamDomain I = 0; I < WideRows; ++I)
    Wide.push_back({I % 2, I});
  Session->loadFacts({{"edge", Edges}, {"wide", Wide}});

  srv::ServerOptions Options;
  srv::Server Server(*Session, Options);
  std::string Error;
  if (!Server.start(&Error))
    std::abort();
  std::thread Serving([&] { Server.serve(); });
  const int Heavy = connectTo(Server.boundPort());
  const int Probe = connectTo(Server.boundPort());
  const char *HeavyRead = HeavyReads[State.range(0)];

  std::vector<double> ProbeMicros, HeavyMicros;
  RamDomain Tick = 0;
  for (auto _ : State) {
    State.PauseTiming();
    Session->loadFacts({{"tick", {{Tick++}}}});
    State.ResumeTiming();
    const auto Start = std::chrono::steady_clock::now();
    if (!writeFrame(Heavy, HeavyRead))
      std::abort();
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    const auto ProbeStart = std::chrono::steady_clock::now();
    if (!writeFrame(Probe, PointQuery))
      std::abort();
    std::string Reply;
    if (!readFrame(Probe, Reply))
      std::abort();
    const auto ProbeEnd = std::chrono::steady_clock::now();
    if (!readFrame(Heavy, Reply))
      std::abort();
    const auto HeavyEnd = std::chrono::steady_clock::now();
    ProbeMicros.push_back(
        std::chrono::duration<double, std::micro>(ProbeEnd - ProbeStart)
            .count());
    HeavyMicros.push_back(
        std::chrono::duration<double, std::micro>(HeavyEnd - Start).count());
  }

  ::close(Heavy);
  ::close(Probe);
  Server.stop();
  Serving.join();

  if (!ProbeMicros.empty()) {
    std::sort(ProbeMicros.begin(), ProbeMicros.end());
    std::sort(HeavyMicros.begin(), HeavyMicros.end());
    auto Percentile = [](const std::vector<double> &Sorted, double P) {
      return Sorted[static_cast<std::size_t>(
          P * static_cast<double>(Sorted.size() - 1))];
    };
    State.counters["probe_p50_us"] = Percentile(ProbeMicros, 0.50);
    State.counters["probe_p99_us"] = Percentile(ProbeMicros, 0.99);
    State.counters["heavy_p50_us"] = Percentile(HeavyMicros, 0.50);
  }
}

//===----------------------------------------------------------------------===//
// Serving-observability gates
//===----------------------------------------------------------------------===//

double percentileOf(std::vector<double> &Sorted, double P) {
  const std::size_t Index = static_cast<std::size_t>(
      P * static_cast<double>(Sorted.size() - 1));
  return Sorted[Index];
}

struct BatteryResult {
  /// Client-side round-trip latency per query, sorted ascending.
  std::vector<double> ClientMicros;
  /// Server-reported handling time ("micros") per query — exactly the
  /// samples the server's latency histogram recorded.
  std::vector<std::uint64_t> ServerMicros;
  /// The /metrics scrape taken after the last reply (observability runs).
  std::string Exposition;
};

/// One HTTP GET against the metrics listener; returns the response body.
std::string scrapeMetrics(int Port) {
  const int Fd = connectTo(Port);
  const std::string Request =
      "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n";
  if (::write(Fd, Request.data(), Request.size()) !=
      static_cast<ssize_t>(Request.size()))
    std::abort();
  std::string Response;
  char Buf[4096];
  ssize_t N;
  while ((N = ::read(Fd, Buf, sizeof(Buf))) > 0)
    Response.append(Buf, static_cast<std::size_t>(N));
  ::close(Fd);
  const std::size_t Pos = Response.find("\r\n\r\n");
  if (Pos == std::string::npos)
    std::abort();
  return Response.substr(Pos + 4);
}

/// Round-robins point queries across \p NumConns connections against a
/// fresh server, with full serving telemetry on or off.
BatteryResult runBattery(std::size_t NumConns, std::size_t NumQueries,
                         bool Observability) {
  auto Session = residentSession();
  srv::ServerOptions Options;
  if (Observability) {
    Options.MetricsPort = 0;
    Options.TraceSampleEvery = 64;
  }
  srv::Server Server(*Session, Options);
  std::string Error;
  if (!Server.start(&Error))
    std::abort();
  std::thread Serving([&] { Server.serve(); });

  std::vector<int> Conns;
  Conns.reserve(NumConns);
  for (std::size_t I = 0; I < NumConns; ++I)
    Conns.push_back(connectTo(Server.boundPort()));

  BatteryResult Result;
  Result.ClientMicros.reserve(NumQueries);
  Result.ServerMicros.reserve(NumQueries);
  for (std::size_t I = 0; I < NumQueries; ++I) {
    const int Fd = Conns[I % NumConns];
    const auto Start = std::chrono::steady_clock::now();
    if (!writeFrame(Fd, PointQuery))
      std::abort();
    std::string Reply;
    if (!readFrame(Fd, Reply))
      std::abort();
    const auto End = std::chrono::steady_clock::now();
    Result.ClientMicros.push_back(
        std::chrono::duration<double, std::micro>(End - Start).count());
    std::optional<obs::json::Value> Doc = obs::json::parse(Reply);
    if (!Doc || !Doc->find("micros"))
      std::abort();
    Result.ServerMicros.push_back(Doc->find("micros")->asUint());
  }

  if (Observability)
    Result.Exposition = scrapeMetrics(Server.metricsPort());
  for (int Fd : Conns)
    ::close(Fd);
  Server.stop();
  Serving.join();
  std::sort(Result.ClientMicros.begin(), Result.ClientMicros.end());
  return Result;
}

/// Full telemetry (metrics endpoint + 1-in-64 sampling) must cost under 2%
/// of p99 round-trip latency. Interleaved repeats, medians of p99.
int checkObservabilityOverhead() {
  constexpr int Repeats = 7;
  constexpr std::size_t NumConns = 128, NumQueries = 2048;
  constexpr double LimitPct = 2.0;
  std::vector<double> Off, On;
  runBattery(NumConns, 256, false); // warm-up
  for (int I = 0; I < Repeats; ++I) {
    BatteryResult Plain = runBattery(NumConns, NumQueries, false);
    BatteryResult Full = runBattery(NumConns, NumQueries, true);
    Off.push_back(percentileOf(Plain.ClientMicros, 0.99));
    On.push_back(percentileOf(Full.ClientMicros, 0.99));
  }
  // Scheduling jitter only ever adds latency, so the minimum across
  // repeats is the stable estimate of each configuration's true p99;
  // medians flap by several percent run to run on small machines.
  const double MinOff = *std::min_element(Off.begin(), Off.end());
  const double MinOn = *std::min_element(On.begin(), On.end());
  const double OverheadPct = 100.0 * (MinOn - MinOff) / MinOff;
  const bool Ok = OverheadPct <= LimitPct;
  std::printf("observability p99 off %.1fus on %.1fus overhead %+.2f%% "
              "(limit %.1f%%) %s\n",
              MinOff, MinOn, OverheadPct, LimitPct, Ok ? "OK" : "FAIL");
  return Ok ? 0 : 1;
}

/// The p99 the /metrics endpoint reports for the 1024-connection battery
/// must agree with the exact p99 of the same requests (the server-stamped
/// "micros" members) within one histogram bucket — end to end through
/// record, shard merge, bucket rendering and text parsing.
int checkEndpointQuantileAgreement() {
  constexpr std::size_t NumConns = 1024, NumQueries = 4096;
  BatteryResult Result = runBattery(NumConns, NumQueries, true);

  // Parse the query command's cumulative bucket series from the scrape.
  const std::string Prefix = "stird_request_latency_micros_bucket{"
                             "tenant=\"default\",command=\"query\",le=\"";
  std::vector<std::pair<double, std::uint64_t>> Buckets; // le -> cumulative
  std::istringstream In(Result.Exposition);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.rfind(Prefix, 0) != 0)
      continue;
    const std::size_t LeEnd = Line.find('"', Prefix.size());
    const std::string LeText = Line.substr(Prefix.size(),
                                           LeEnd - Prefix.size());
    const double Le = LeText == "+Inf"
                          ? std::numeric_limits<double>::infinity()
                          : std::strtod(LeText.c_str(), nullptr);
    const std::uint64_t Count = std::strtoull(
        Line.substr(Line.rfind(' ') + 1).c_str(), nullptr, 10);
    Buckets.emplace_back(Le, Count);
  }
  if (Buckets.empty() || !std::isinf(Buckets.back().first)) {
    std::printf("agreement: no query bucket series in the scrape FAIL\n");
    return 1;
  }
  const std::uint64_t Total = Buckets.back().second;
  if (Total != NumQueries) {
    std::printf("agreement: endpoint counted %llu of %llu queries FAIL\n",
                static_cast<unsigned long long>(Total),
                static_cast<unsigned long long>(NumQueries));
    return 1;
  }
  std::uint64_t Rank =
      static_cast<std::uint64_t>(0.99 * static_cast<double>(Total));
  if (static_cast<double>(Rank) < 0.99 * static_cast<double>(Total))
    ++Rank;
  double EndpointP99 = Buckets[Buckets.size() - 2].first; // last finite le
  for (const auto &[Le, Cumulative] : Buckets)
    if (Cumulative >= Rank && !std::isinf(Le)) {
      EndpointP99 = Le;
      break;
    }

  std::sort(Result.ServerMicros.begin(), Result.ServerMicros.end());
  const std::uint64_t ExactP99 = Result.ServerMicros[Rank - 1];

  const std::size_t EndpointBucket =
      obs::HistogramBuckets::index(static_cast<std::uint64_t>(EndpointP99));
  const std::size_t ExactBucket = obs::HistogramBuckets::index(ExactP99);
  const std::size_t Gap = EndpointBucket > ExactBucket
                              ? EndpointBucket - ExactBucket
                              : ExactBucket - EndpointBucket;
  const bool Ok = Gap <= 1;
  std::printf("agreement %zu-conn battery exact p99 %lluus (bucket %zu) "
              "endpoint p99 %.0fus (bucket %zu) gap %zu %s\n",
              NumConns, static_cast<unsigned long long>(ExactP99),
              ExactBucket, EndpointP99, EndpointBucket, Gap,
              Ok ? "OK" : "FAIL");
  return Ok ? 0 : 1;
}

} // namespace

BENCHMARK(BM_SnapshotPin);
BENCHMARK(BM_QueryBoundPrefix)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_QueryFullScan)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_IncrementalBatches)
    ->Arg(16)
    ->Arg(64)
    ->Arg(160)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ColdReevaluation)
    ->Arg(16)
    ->Arg(64)
    ->Arg(160)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WirePointQueryCold)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_WirePointQueryCached)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ServerManyConnections)
    ->Arg(64)
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_ServerReadDuringHeavyRead)
    ->DenseRange(0, 2)
    ->Iterations(200)
    ->Unit(benchmark::kMicrosecond);

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return checkObservabilityOverhead() + checkEndpointQuantileAgreement() ==
                 0
             ? 0
             : 1;
}
