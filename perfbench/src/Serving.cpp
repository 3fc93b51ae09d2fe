//===- perfbench/src/Serving.cpp - The serving phase --------------------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//

#include "Phases.h"

#include "core/Program.h"
#include "obs/Json.h"
#include "srv/Server.h"
#include "srv/Session.h"
#include "srv/Wire.h"

#include <algorithm>
#include <arpa/inet.h>
#include <cstdlib>
#include <iterator>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <set>
#include <stdexcept>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace perfbench;
using namespace stird;
namespace json = stird::obs::json;

namespace {

constexpr std::size_t OpsPerBatch = 24;
/// Queries sent before each batch: MinQueriesPerBatch plus a seeded draw
/// below QueriesPerBatchRange, i.e. 4 to 12, mean 8. This read/write mix is
/// an assumption, not a measured trace: no recorded stird traffic exists.
/// It keeps the run write-heavy on purpose. The write p99 needs 1000
/// batches within a run's serving share (2.4 to 10 s of a 12 s run), so a
/// batch cannot wait behind hundreds of ~35 us queries. And every publish
/// invalidates the query cache, so most queries run cold after a write: a
/// write-path gain that costs readers shows in query latency. The draw
/// varies how long after a publish a query comes; it comes from the seed,
/// so a faster write path cannot change the mix. The read-mostly case
/// (bench/micro_serve publishes every 512 queries) is the cache-hit path,
/// which the traced wire.handle_hit_p50_us measures.
constexpr std::uint64_t MinQueriesPerBatch = 4, QueriesPerBatchRange = 9;
/// Batches between checks against a from-scratch evaluation.
constexpr std::size_t CheckpointEvery = 250;
constexpr std::size_t CheckpointQueries = 16;
/// Batches (with the queries before them) replayed by the layer probes.
constexpr std::size_t MaxRecorded = 300;

double since(Clock::time_point From) {
  return std::chrono::duration<double>(Clock::now() - From).count();
}

/// One mixed batch, in process and on the wire, with the queries the
/// schedule sent just before it: what the layer probes replay.
struct RecordedBatch {
  inc::MixedBatch Batch;
  std::string Payload;
  std::vector<std::string> Queries;
  std::vector<std::pair<std::string, srv::Pattern>> Patterns;
};

int connectTo(int Port) {
  const int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    throw std::runtime_error("socket() failed");
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(static_cast<std::uint16_t>(Port));
  ::inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    ::close(Fd);
    throw std::runtime_error("connect() to the in-process server failed");
  }
  int One = 1;
  ::setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  return Fd;
}

/// Zipf(1) over a seeded permutation of [0, Domain).
struct ZipfKeys {
  std::vector<double> Cdf;
  std::vector<RamDomain> Keys;

  ZipfKeys(RamDomain Domain, Rng &R) {
    Keys.resize(Domain);
    for (RamDomain I = 0; I < Domain; ++I)
      Keys[I] = I;
    for (std::size_t I = Keys.size(); I > 1; --I)
      std::swap(Keys[I - 1], Keys[R.next(I)]);
    double Sum = 0;
    for (RamDomain K = 1; K <= Domain; ++K)
      Cdf.push_back(Sum += 1.0 / K);
    for (double &C : Cdf)
      C /= Sum;
  }
  RamDomain draw(Rng &R) const {
    const double U = static_cast<double>(R.next(1u << 30)) / (1u << 30);
    const std::size_t Rank =
        std::lower_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin();
    return Keys[std::min(Rank, Keys.size() - 1)];
  }
};

json::Value tupleJson(const DynTuple &T) {
  json::Array Row;
  for (RamDomain V : T)
    Row.emplace_back(static_cast<std::int64_t>(V));
  return Row;
}

std::vector<DynTuple> replyTuples(const json::Value &Reply) {
  std::vector<DynTuple> Out;
  const json::Value *Tuples = Reply.find("tuples");
  if (!Tuples || !Tuples->isArray())
    return Out;
  for (const json::Value &Row : Tuples->asArray()) {
    // Replies render every cell as a string, numbers included.
    DynTuple T;
    if (Row.isArray())
      for (const json::Value &Cell : Row.asArray())
        T.push_back(Cell.isString() ? static_cast<RamDomain>(
                                          std::strtol(Cell.asString().c_str(),
                                                      nullptr, 10))
                    : Cell.isNumber() ? static_cast<RamDomain>(Cell.asInt())
                                      : 0);
    Out.push_back(std::move(T));
  }
  std::sort(Out.begin(), Out.end());
  return Out;
}

bool matches(const DynTuple &T, const srv::Pattern &P) {
  for (std::size_t I = 0; I < P.size(); ++I)
    if (P[I] && T[I] != *P[I])
      return false;
  return true;
}

std::uint64_t uintOf(const json::Value &V, const char *Key) {
  const json::Value *F = V.find(Key);
  return F && F->isNumber() ? F->asUint() : ~std::uint64_t(0);
}

bool okReply(const json::Value &V) {
  const json::Value *Ok = V.find("ok");
  return Ok && Ok->isBool() && Ok->asBool();
}

} // namespace

bool perfbench::queryReplyValid(const std::string &Reply, std::uint64_t Epoch,
                                double *Micros) {
  const std::optional<json::Value> Doc = json::parse(Reply);
  if (!Doc || !okReply(*Doc) ||
      uintOf(*Doc, "count") != replyTuples(*Doc).size() ||
      uintOf(*Doc, "epoch") != Epoch)
    return false;
  if (Micros)
    *Micros = static_cast<double>(uintOf(*Doc, "micros"));
  return true;
}

struct ServingPhase::Impl {
  ServedProgram P;
  std::uint64_t StreamSeed;
  /// Batch stream (micro_update's draw order) and query schedule.
  Rng Edb, Schedule;
  std::vector<std::set<DynTuple>> State;
  std::vector<ZipfKeys> Zipf;
  std::unique_ptr<srv::EngineSession> Session;
  std::unique_ptr<srv::Server> Server;
  std::thread Serving;
  int WriteFd = -1;
  int QueryFds[3] = {-1, -1, -1};
  std::uint64_t Epoch = 0, NextId = 1, Batches = 0;
  std::vector<std::vector<DynTuple>> Initial;
  std::vector<RecordedBatch> Recorded;
  std::unique_ptr<core::Program> OracleProg;

  Impl(const Workload &W)
      : P(W.Served), StreamSeed(W.StreamSeed), Edb(W.StreamSeed),
        Schedule(W.StreamSeed * 31 + 7) {}
  Impl(const Impl &) = delete;
  Impl &operator=(const Impl &) = delete;

  /// Also runs when the constructor of ServingPhase throws half-way.
  ~Impl() {
    for (int Fd : QueryFds)
      if (Fd >= 0)
        ::close(Fd);
    if (WriteFd >= 0)
      ::close(WriteFd);
    if (Server)
      Server->stop();
    if (Serving.joinable())
      Serving.join();
  }

  srv::Pattern drawPattern(std::size_t &Shape, Rng &R) const {
    Shape = R.next(P.Queries.size());
    const QueryShape &Q = P.Queries[Shape];
    srv::Pattern Pat(Q.Arity);
    const RamDomain Key = Zipf[Shape].draw(R);
    Pat[0] = Key;
    const RamDomain Part = Key / Q.PartSize;
    for (std::size_t C = 1; C < Q.Bound; ++C)
      Pat[C] = Part * Q.PartSize + static_cast<RamDomain>(R.next(Q.PartSize));
    return Pat;
  }

  std::string queryPayload(const std::string &Relation,
                           const srv::Pattern &Pat) {
    json::Array Cells;
    for (const auto &C : Pat)
      Cells.emplace_back(C ? json::Value(static_cast<std::int64_t>(*C))
                           : json::Value(nullptr));
    json::Object O;
    O.emplace_back("cmd", "query");
    O.emplace_back("id", NextId++);
    O.emplace_back("relation", Relation);
    O.emplace_back("pattern", std::move(Cells));
    return json::Value(std::move(O)).dump();
  }

  /// One request and its reply; false when the connection failed.
  bool send(int Fd, const std::string &Payload, std::string &Reply,
            double &Seconds) {
    const auto From = Clock::now();
    const bool Ok = srv::writeFrame(Fd, Payload) && srv::readFrame(Fd, Reply);
    Seconds = since(From);
    return Ok;
  }

  std::optional<json::Value> roundTrip(int Fd, const std::string &Payload,
                                       double &Seconds) {
    std::string Reply;
    if (!send(Fd, Payload, Reply, Seconds))
      return std::nullopt;
    return json::parse(Reply);
  }

  /// Draws one 24-op batch like micro_update: ~35% retractions of live
  /// tuples, the rest fresh draws, last op per tuple wins. Above its
  /// initial size a relation retracts 65% instead, so the EDB stays near
  /// its initial size however many batches a run completes.
  inc::MixedBatch drawBatch(std::uint64_t &Inserted, std::uint64_t &Deleted) {
    std::vector<std::map<DynTuple, std::pair<bool, bool>>> Net(P.Edb.size());
    for (std::size_t I = 0; I < OpsPerBatch; ++I) {
      const std::size_t Rel = Edb.next(P.Edb.size());
      auto &Live = State[Rel];
      const std::uint64_t Pct = Live.size() > P.Edb[Rel].Initial ? 65 : 35;
      const bool Retract = !Live.empty() && Edb.next(100) < Pct;
      DynTuple T;
      if (Retract) {
        auto It = Live.begin();
        std::advance(It, Edb.next(Live.size()));
        T = *It;
      } else {
        T = drawTuple(Edb, P.Edb[Rel]);
      }
      // First touch records presence before the batch.
      auto [Slot, Fresh] = Net[Rel].try_emplace(T, Live.count(T) > 0, false);
      Slot->second.second = Retract;
      if (Retract)
        Live.erase(T);
      else
        Live.insert(T);
    }
    inc::MixedBatch Batch;
    Inserted = Deleted = 0;
    for (std::size_t Rel = 0; Rel < P.Edb.size(); ++Rel) {
      if (Net[Rel].empty())
        continue;
      inc::RelationOps Ops;
      Ops.Relation = P.Edb[Rel].Name;
      for (const auto &[T, PresentRetract] : Net[Rel]) {
        const auto [Present, Retract] = PresentRetract;
        (Retract ? Ops.Retracts : Ops.Inserts).push_back(T);
        Inserted += !Retract && !Present;
        Deleted += Retract && Present;
      }
      Batch.push_back(std::move(Ops));
    }
    return Batch;
  }

  std::string loadPayload(const inc::MixedBatch &Batch) {
    json::Object Facts, Retract;
    for (const inc::RelationOps &Ops : Batch) {
      json::Array Ins, Ret;
      for (const DynTuple &T : Ops.Inserts)
        Ins.push_back(tupleJson(T));
      for (const DynTuple &T : Ops.Retracts)
        Ret.push_back(tupleJson(T));
      Facts.emplace_back(Ops.Relation, std::move(Ins));
      Retract.emplace_back(Ops.Relation, std::move(Ret));
    }
    json::Object O;
    O.emplace_back("cmd", "load");
    O.emplace_back("id", NextId++);
    O.emplace_back("facts", std::move(Facts));
    O.emplace_back("retract", std::move(Retract));
    return json::Value(std::move(O)).dump();
  }

  /// Compares query replies with a from-scratch legacy evaluation of the
  /// net EDB. Off the clock; every compared query is one attempt.
  void checkpoint(RunResult &Result, Tracer *T) {
    Scope S(T, "check.checkpoint");
    if (!OracleProg)
      OracleProg = core::Program::fromSource(P.Source);
    if (!OracleProg) {
      Result.fail(P.Name + ": oracle program failed to compile");
      return;
    }
    interp::EngineOptions Opts;
    Opts.TheBackend = interp::Backend::Legacy;
    Opts.SuppressIo = true;
    Opts.EchoPrintSize = false;
    auto Oracle = OracleProg->makeEngine(Opts);
    for (std::size_t Rel = 0; Rel < P.Edb.size(); ++Rel)
      Oracle->insertTuples(P.Edb[Rel].Name,
                           {State[Rel].begin(), State[Rel].end()});
    Oracle->run();
    Rng Check(StreamSeed * 131 + Batches);
    std::map<std::string, std::vector<DynTuple>> Full;
    for (std::size_t K = 0; K < CheckpointQueries; ++K) {
      std::size_t Shape = 0;
      const srv::Pattern Pat = drawPattern(Shape, Check);
      const std::string &Rel = P.Queries[Shape].Relation;
      if (!Full.count(Rel))
        Full[Rel] = Oracle->getTuples(Rel);
      std::vector<DynTuple> Want;
      for (const DynTuple &Tuple : Full[Rel])
        if (matches(Tuple, Pat))
          Want.push_back(Tuple);
      std::sort(Want.begin(), Want.end());
      double Seconds = 0;
      auto Reply = roundTrip(QueryFds[K % 3], queryPayload(Rel, Pat), Seconds);
      ++Result.Attempted;
      if (!Reply || !okReply(*Reply) || replyTuples(*Reply) != Want)
        Result.fail(P.Name + ": query reply differs from a from-scratch "
                             "evaluation at epoch " +
                    std::to_string(Epoch));
    }
  }
};

ServingPhase::ServingPhase(const Workload &W, Tracer *T)
    : I(std::make_unique<Impl>(W)) {
  Scope Setup(T, "setup.serving");
  Rng ZipfSeed(W.StreamSeed * 17 + 3);
  for (const QueryShape &Q : I->P.Queries)
    I->Zipf.emplace_back(Q.KeyDomain, ZipfSeed);
  I->Initial = initialEdb(I->P, I->Edb);
  for (const auto &Rel : I->Initial)
    I->State.emplace_back(Rel.begin(), Rel.end());
  {
    Scope S(T, "srv.boot");
    std::vector<std::string> Errors;
    I->Session = srv::EngineSession::fromSource(I->P.Source, {}, &Errors);
    if (!I->Session)
      throw std::runtime_error(I->P.Name + " failed to compile: " +
                               (Errors.empty() ? "?" : Errors[0]));
  }
  {
    Scope S(T, "srv.initial_load");
    srv::FactBatch Batch;
    for (std::size_t Rel = 0; Rel < I->P.Edb.size(); ++Rel)
      Batch.push_back({I->P.Edb[Rel].Name, I->Initial[Rel]});
    I->Epoch = I->Session->loadFacts(Batch).Epoch;
  }
  srv::ServerOptions Options;
  Options.PoolThreads = 2;
  I->Server = std::make_unique<srv::Server>(*I->Session, Options);
  std::string Error;
  if (!I->Server->start(&Error))
    throw std::runtime_error("server failed to start: " + Error);
  I->Serving = std::thread([this] { I->Server->serve(); });
  I->WriteFd = connectTo(I->Server->boundPort());
  for (int &Fd : I->QueryFds)
    Fd = connectTo(I->Server->boundPort());
}

ServingPhase::~ServingPhase() = default;

void ServingPhase::run(std::uint64_t UntilBatches, RunResult &Result,
                       Tracer *T) {
  Impl &S = *I;
  // The closed loop never sends before a reply; a window that cannot
  // finish in this long reports a failure instead of hanging the run.
  constexpr double HardCapSeconds = 60;
  const auto Start = Clock::now();
  Scope Phase(T, "serving.window");
  if (S.Batches == 0)
    S.checkpoint(Result, T);
  while (S.Batches < UntilBatches) {
    if (since(Start) > HardCapSeconds) {
      Result.fail(S.P.Name + ": serving window exceeded its time cap");
      break;
    }
    RecordedBatch *Rec = S.Recorded.size() < MaxRecorded
                             ? &S.Recorded.emplace_back()
                             : nullptr;
    const std::uint64_t Gap =
        MinQueriesPerBatch + S.Schedule.next(QueriesPerBatchRange);
    for (std::uint64_t Q = 0; Q < Gap; ++Q) {
      std::size_t Shape = 0;
      const srv::Pattern Pat = S.drawPattern(Shape, S.Schedule);
      const std::string &Rel = S.P.Queries[Shape].Relation;
      const std::string Payload = S.queryPayload(Rel, Pat);
      double Rtt = 0, Micros = 0;
      std::string Reply;
      bool Sent = false;
      {
        Scope Span(T, "client.query", S.NextId - 1);
        Sent = S.send(S.QueryFds[Q % 3], Payload, Reply, Rtt);
      }
      ++Result.Attempted;
      if (!Sent || !queryReplyValid(Reply, S.Epoch, &Micros)) {
        Result.fail(S.P.Name + ": bad query reply");
        continue;
      }
      QueryUs.push_back(1e6 * Rtt);
      BusySeconds += Rtt;
      OverheadUs.push_back(1e6 * Rtt - Micros);
      if (Rec) {
        Rec->Queries.push_back(Payload);
        Rec->Patterns.push_back({Rel, Pat});
      }
    }

    std::uint64_t Inserted = 0, Deleted = 0;
    inc::MixedBatch Batch = S.drawBatch(Inserted, Deleted);
    const std::string Payload = S.loadPayload(Batch);
    double Rtt = 0;
    std::optional<json::Value> Reply;
    {
      Scope Span(T, "client.write", S.NextId - 1);
      Reply = S.roundTrip(S.WriteFd, Payload, Rtt);
    }
    ++Result.Attempted;
    ++S.Batches;
    if (!Reply || !okReply(*Reply) || uintOf(*Reply, "inserted") != Inserted ||
        uintOf(*Reply, "deleted") != Deleted ||
        uintOf(*Reply, "epoch") != S.Epoch + 1) {
      Result.fail(S.P.Name + ": bad load reply");
      // Resynchronize the expected epoch with what the server published.
      if (Reply && uintOf(*Reply, "epoch") != ~std::uint64_t(0))
        S.Epoch = uintOf(*Reply, "epoch");
    } else {
      ++S.Epoch;
      WriteMs.push_back(1e3 * Rtt);
      BusySeconds += Rtt;
    }
    if (Rec) {
      Rec->Batch = std::move(Batch);
      Rec->Payload = Payload;
    }
    if (S.Batches % CheckpointEvery == 0)
      S.checkpoint(Result, T);
  }
}

void ServingPhase::finish(RunResult &Result, Tracer *T) {
  I->checkpoint(Result, T);
  const srv::QueryCache::Counters C =
      I->Server->tenants().defaultTenant()->Cache.counters();
  CacheHits = C.Hits;
  CacheMisses = C.Misses;
}

void ServingPhase::probeLayers(RunResult &Result, Tracer *T) {
  Impl &S = *I;
  auto addP50 = [&Result](const std::string &Name, const std::string &Unit,
                          const std::vector<double> &Samples) {
    Result.PerLayer[Name] = {percentile(Samples, 0.5).value_or(0), Unit,
                             Samples.size()};
  };
  srv::FactBatch InitialBatch;
  for (std::size_t Rel = 0; Rel < S.P.Edb.size(); ++Rel)
    InitialBatch.push_back({S.P.Edb[Rel].Name, S.Initial[Rel]});

  // inc: the maintainer on a standalone engine, fed the identical stream.
  std::vector<double> ApplyMs;
  {
    Scope Probe(T, "probe.inc");
    core::CompileOptions Compile;
    Compile.EmitMaintenance = true;
    auto Prog = core::Program::fromSource(S.P.Source, nullptr, Compile);
    if (!Prog || !Prog->getRam().hasMaintenance()) {
      Result.fail(S.P.Name + ": no maintenance plan");
      return;
    }
    interp::EngineOptions Opts;
    Opts.SuppressIo = true;
    Opts.EchoPrintSize = false;
    auto Eng = Prog->makeEngine(Opts);
    for (const auto &[Name, Tuples] : InitialBatch)
      Eng->insertTuples(Name, Tuples);
    Eng->run();
    inc::Maintainer Maint(Prog->getRam(), *Eng);
    Maint.bootstrap();
    double Rederived = 0, Deleted = 0, Reeval = 0, Changes = 0;
    for (const RecordedBatch &B : S.Recorded) {
      ++Result.Attempted;
      if (const std::string Why = Maint.rejectReason(B.Batch); !Why.empty()) {
        Result.fail(S.P.Name + ": maintainer rejected a batch: " + Why);
        continue;
      }
      Scope Span(T, "inc.apply");
      const auto From = Clock::now();
      const inc::MaintenanceReport Report = Maint.apply(B.Batch);
      ApplyMs.push_back(1e3 * since(From));
      Reeval += Report.ReevalStrata;
      for (const inc::StratumReport &SR : Report.Strata) {
        Rederived += SR.Rederived;
        Deleted += SR.Deleted;
        Changes += SR.Inserted + SR.Deleted;
      }
    }
    addP50("inc.apply_p50_ms", "ms", ApplyMs);
    Result.PerLayer["inc.rederive_ratio"] = {
        Rederived + Deleted > 0 ? Rederived / (Rederived + Deleted) : 0,
        "ratio", static_cast<std::size_t>(Rederived + Deleted)};
    Result.PerLayer["inc.reeval_strata"] = {Reeval, "count",
                                            S.Recorded.size()};
    Result.PerLayer["inc.derived_changes"] = {Changes, "count",
                                              S.Recorded.size()};
  }

  // srv: applyMixed and Snapshot::query on an in-process session.
  {
    Scope Probe(T, "probe.srv");
    auto Session = srv::EngineSession::fromSource(S.P.Source);
    Session->loadFacts(InitialBatch);
    std::vector<double> MixedMs, SnapUs;
    for (const RecordedBatch &B : S.Recorded) {
      for (const auto &[Rel, Pat] : B.Patterns) {
        srv::Snapshot Snap = Session->snapshot();
        Scope Span(T, "srv.snapshot_query");
        const auto From = Clock::now();
        const std::vector<DynTuple> Rows = Snap.query(Rel, Pat);
        SnapUs.push_back(1e6 * since(From));
      }
      Scope Span(T, "srv.apply_mixed");
      const auto From = Clock::now();
      const srv::BatchResult R = Session->applyMixed(B.Batch);
      MixedMs.push_back(1e3 * since(From));
      ++Result.Attempted;
      if (!R.Error.empty())
        Result.fail(S.P.Name + ": applyMixed: " + R.Error);
    }
    addP50("srv.apply_mixed_p50_ms", "ms", MixedMs);
    addP50("srv.snapshot_query_p50_us", "us", SnapUs);
    const double Inc = Result.PerLayer["inc.apply_p50_ms"].Value;
    Result.PerLayer["srv.leftright_ratio"] = {
        Inc > 0 ? Result.PerLayer["srv.apply_mixed_p50_ms"].Value / Inc : 0,
        "ratio", MixedMs.size()};
  }

  // wire: handleRequest against a registry over a third session.
  {
    Scope Probe(T, "probe.wire");
    auto Session = srv::EngineSession::fromSource(S.P.Source);
    Session->loadFacts(InitialBatch);
    srv::TenantRegistry Tenants;
    Tenants.add("default", *Session);
    std::vector<double> LoadMs, MissUs, HitUs;
    for (const RecordedBatch &B : S.Recorded) {
      // Each query twice: the repeat is a cache hit by construction.
      for (const std::string &Q : B.Queries)
        for (int Rep = 0; Rep < 2; ++Rep) {
          Scope Span(T, "wire.handle_query");
          const auto From = Clock::now();
          srv::RequestOutcome Out = srv::handleRequest(Tenants, Q);
          const double Us = 1e6 * since(From);
          const json::Value *Cached = Out.Reply.find("cached");
          (Cached && Cached->isBool() && Cached->asBool() ? HitUs : MissUs)
              .push_back(Us);
        }
      Scope Span(T, "wire.handle_load");
      const auto From = Clock::now();
      srv::RequestOutcome Out = srv::handleRequest(Tenants, B.Payload);
      LoadMs.push_back(1e3 * since(From));
      ++Result.Attempted;
      if (!okReply(Out.Reply))
        Result.fail(S.P.Name + ": wire load rejected");
    }
    addP50("wire.load_p50_ms", "ms", LoadMs);
    addP50("wire.handle_miss_p50_us", "us", MissUs);
    addP50("wire.handle_hit_p50_us", "us", HitUs);
  }
}
