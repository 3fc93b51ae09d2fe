//===- srv/Wire.cpp - Length-prefixed JSON wire protocol ----------------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//

#include "srv/Wire.h"

#include "interp/Scheduler.h"
#include "srv/Metrics.h"
#include "util/Csv.h"
#include "util/MiscUtil.h"
#include "util/Timer.h"

#include <cassert>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <unistd.h>

using namespace stird;
using namespace stird::srv;
using obs::json::Array;
using obs::json::Object;
using obs::json::Value;

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

static bool setError(std::string *Error, const std::string &Message) {
  if (Error)
    *Error = Message;
  return false;
}

/// Reads exactly \p Len bytes; 1 on success, 0 on EOF at a frame boundary
/// start, -1 on error or truncation.
static int readExact(int Fd, char *Buffer, std::size_t Len, bool &SawData) {
  std::size_t Done = 0;
  while (Done < Len) {
    ssize_t N = ::read(Fd, Buffer + Done, Len - Done);
    if (N == 0)
      return (Done == 0 && !SawData) ? 0 : -1;
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return -1;
    }
    SawData = true;
    Done += static_cast<std::size_t>(N);
  }
  return 1;
}

static std::string oversizedMessage(std::uint32_t Len, std::size_t Max) {
  return "frame of " + std::to_string(Len) + " bytes exceeds " +
         std::to_string(Max);
}

bool srv::readFrame(int Fd, std::string &Payload, std::string *Error) {
  unsigned char Prefix[4];
  bool SawData = false;
  int R = readExact(Fd, reinterpret_cast<char *>(Prefix), 4, SawData);
  if (R == 0)
    return setError(Error, ""); // clean EOF, empty error
  if (R < 0)
    return setError(Error, "truncated frame header");
  const std::uint32_t Len = (std::uint32_t(Prefix[0]) << 24) |
                            (std::uint32_t(Prefix[1]) << 16) |
                            (std::uint32_t(Prefix[2]) << 8) |
                            std::uint32_t(Prefix[3]);
  if (Len > MaxFrameBytes)
    return setError(Error, oversizedMessage(Len, MaxFrameBytes));
  Payload.resize(Len);
  if (Len > 0 && readExact(Fd, Payload.data(), Len, SawData) != 1)
    return setError(Error, "truncated frame payload");
  return true;
}

std::string srv::encodeFrame(const std::string &Payload) {
  assert(Payload.size() <= MaxFrameBytes && "frame payload too large");
  const std::uint32_t Len = static_cast<std::uint32_t>(Payload.size());
  std::string Frame;
  Frame.reserve(4 + Payload.size());
  Frame.push_back(static_cast<char>(Len >> 24));
  Frame.push_back(static_cast<char>(Len >> 16));
  Frame.push_back(static_cast<char>(Len >> 8));
  Frame.push_back(static_cast<char>(Len));
  Frame += Payload;
  return Frame;
}

bool srv::writeFrame(int Fd, const std::string &Payload,
                     std::string *Error) {
  if (Payload.size() > MaxFrameBytes)
    return setError(Error, "frame payload exceeds MaxFrameBytes");
  const std::string Frame = encodeFrame(Payload);
  std::size_t Done = 0;
  while (Done < Frame.size()) {
    ssize_t N = ::write(Fd, Frame.data() + Done, Frame.size() - Done);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return setError(Error, std::string("write failed: ") +
                                 std::strerror(errno));
    }
    Done += static_cast<std::size_t>(N);
  }
  return true;
}

void FrameDecoder::feed(const char *Data, std::size_t Len) {
  if (Poisoned)
    return; // the stream is unrecoverable; don't buffer garbage
  // Compact the consumed prefix before it dominates the buffer.
  if (Pos > 4096 && Pos * 2 > Buffer.size()) {
    Buffer.erase(0, Pos);
    Pos = 0;
  }
  Buffer.append(Data, Len);
}

FrameDecoder::Result FrameDecoder::next(std::string &Payload,
                                        std::string *Error) {
  if (Poisoned) {
    setError(Error, PoisonError);
    return Result::Error;
  }
  if (buffered() < 4)
    return Result::NeedMore;
  const unsigned char *P =
      reinterpret_cast<const unsigned char *>(Buffer.data()) + Pos;
  const std::uint32_t Len = (std::uint32_t(P[0]) << 24) |
                            (std::uint32_t(P[1]) << 16) |
                            (std::uint32_t(P[2]) << 8) | std::uint32_t(P[3]);
  // The guard fires on the 4 prefix bytes alone — an absurd (or, read as
  // signed, negative) length never causes a payload-sized allocation.
  if (Len > Max) {
    Poisoned = true;
    PoisonError = oversizedMessage(Len, Max);
    Buffer.clear();
    Pos = 0;
    setError(Error, PoisonError);
    return Result::Error;
  }
  if (buffered() < 4 + static_cast<std::size_t>(Len))
    return Result::NeedMore;
  Payload.assign(Buffer, Pos + 4, Len);
  Pos += 4 + static_cast<std::size_t>(Len);
  if (Pos == Buffer.size()) {
    Buffer.clear();
    Pos = 0;
  }
  return Result::Frame;
}

//===----------------------------------------------------------------------===//
// Tenants
//===----------------------------------------------------------------------===//

Tenant &TenantRegistry::add(const std::string &Name,
                            EngineSession &Session) {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (const auto &T : List)
    if (T->Name == Name)
      fatal("duplicate tenant '" + Name + "'");
  List.push_back(std::make_unique<Tenant>(Name, Session));
  return *List.back();
}

Tenant *TenantRegistry::find(const std::string &Name) const {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (const auto &T : List)
    if (T->Name == Name)
      return T.get();
  return nullptr;
}

Tenant *TenantRegistry::defaultTenant() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return List.empty() ? nullptr : List.front().get();
}

std::vector<Tenant *> TenantRegistry::tenants() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::vector<Tenant *> Out;
  Out.reserve(List.size());
  for (const auto &T : List)
    Out.push_back(T.get());
  return Out;
}

std::size_t TenantRegistry::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return List.size();
}

//===----------------------------------------------------------------------===//
// Request handling
//===----------------------------------------------------------------------===//

Value srv::errorReply(const std::string &Message) {
  Object O;
  O.emplace_back("ok", false);
  O.emplace_back("error", Message);
  return Value(std::move(O));
}

namespace {

/// Everything one dispatch needs: the routed session, where to record
/// latency, and — in registry mode — the cache and the registry itself
/// (for the stats command's tenant and server sections). Cache and
/// Registry are null in the single-session v1 entry point.
struct RequestContext {
  EngineSession &Session;
  obs::LatencyAggregator &Latency;
  QueryCache *Cache = nullptr;
  const TenantRegistry *Registry = nullptr;
  const Tenant *T = nullptr;
  /// Lifecycle trace of this request, when it drew one. Null otherwise.
  obs::RequestTrace *Trace = nullptr;
};

} // namespace

/// Renders one JSON cell (string or number) as the raw column text the
/// typed parser consumes. Returns false for any other JSON type.
static bool cellText(const Value &Cell, std::string &Out) {
  if (Cell.isString()) {
    Out = Cell.asString();
    return true;
  }
  if (Cell.isNumber()) {
    const double D = Cell.asNumber();
    if (D == static_cast<double>(static_cast<std::int64_t>(D)))
      Out = std::to_string(static_cast<std::int64_t>(D));
    else
      Out = std::to_string(D);
    return true;
  }
  return false;
}

/// Parses one facts-style object ({"rel": [[cell, ...], ...], ...}) into
/// textual rows per relation. Returns "" on success, else the error text.
static std::string
parseFactsObject(const Value &Facts, const char *What,
                 std::vector<std::pair<std::string,
                                       std::vector<std::vector<std::string>>>>
                     &Out) {
  for (const auto &[Relation, Rows] : Facts.asObject()) {
    if (!Rows.isArray())
      return std::string(What) + " for '" + Relation + "' must be an array";
    std::vector<std::vector<std::string>> Text;
    for (const Value &Row : Rows.asArray()) {
      if (!Row.isArray())
        return "tuple for '" + Relation + "' must be an array";
      std::vector<std::string> Cells;
      for (const Value &Cell : Row.asArray()) {
        std::string Raw;
        if (!cellText(Cell, Raw))
          return "cells must be strings or numbers";
        Cells.push_back(std::move(Raw));
      }
      Text.push_back(std::move(Cells));
    }
    Out.emplace_back(Relation, std::move(Text));
  }
  return "";
}

/// Shared tail of load/retract: apply the mixed batch, render the reply.
static Value mixedBatchReply(EngineSession &Session,
                             const MixedTextBatch &Batch) {
  std::vector<FactError> Errors;
  BatchResult Result = Session.applyMixed(Batch, Errors);
  if (!Result.Error.empty())
    return errorReply(Result.Error);
  Object O;
  O.emplace_back("ok", true);
  O.emplace_back("inserted", static_cast<std::uint64_t>(Result.Inserted));
  O.emplace_back("duplicates",
                 static_cast<std::uint64_t>(Result.Duplicates));
  O.emplace_back("deleted", static_cast<std::uint64_t>(Result.Deleted));
  O.emplace_back("missing", static_cast<std::uint64_t>(Result.Missing));
  // "incremental" predates "maintained" and stays for wire compatibility;
  // the two are equal now that every in-place batch is maintained.
  O.emplace_back("incremental", Result.Maintained);
  O.emplace_back("maintained", Result.Maintained);
  if (Result.Maintained)
    O.emplace_back("reeval_strata", Result.Maint.ReevalStrata);
  O.emplace_back("epoch", Result.Epoch);
  O.emplace_back("seconds", Result.Seconds);
  Array Warnings;
  for (const FactError &Err : Errors)
    Warnings.emplace_back(Err.render());
  O.emplace_back("warnings", std::move(Warnings));
  return Value(std::move(O));
}

/// load: {"facts": {...}} inserts, plus an optional {"retract": {...}}
/// block for mixed batches. retract: {"facts": {...}} retractions only.
static Value handleLoad(EngineSession &Session, const Value &Request,
                        bool RetractCmd) {
  const Value *Facts = Request.find("facts");
  if (!Facts || !Facts->isObject())
    return errorReply(std::string(RetractCmd ? "retract" : "load") +
                      " requires a \"facts\" object");
  std::vector<std::pair<std::string, std::vector<std::vector<std::string>>>>
      Primary, Retracts;
  std::string Err =
      parseFactsObject(*Facts, RetractCmd ? "retractions" : "facts",
                       Primary);
  if (Err.empty()) {
    if (const Value *R = Request.find("retract"); R && !RetractCmd) {
      if (!R->isObject())
        Err = "\"retract\" must be an object";
      else
        Err = parseFactsObject(*R, "retractions", Retracts);
    } else if (Request.find("retract") && RetractCmd) {
      Err = "retract takes its tuples via \"facts\"";
    }
  }
  if (!Err.empty())
    return errorReply(Err);

  MixedTextBatch Batch;
  // Merge the blocks per relation so retract-then-insert ordering holds
  // even when both mention the same relation.
  auto opsFor = [&Batch](const std::string &Relation) -> TextRelationOps & {
    for (TextRelationOps &Ops : Batch)
      if (Ops.Relation == Relation)
        return Ops;
    Batch.push_back({Relation, {}, {}});
    return Batch.back();
  };
  for (auto &[Relation, Rows] : Retracts)
    opsFor(Relation).Retracts = std::move(Rows);
  for (auto &[Relation, Rows] : Primary) {
    if (RetractCmd)
      opsFor(Relation).Retracts = std::move(Rows);
    else
      opsFor(Relation).Inserts = std::move(Rows);
  }
  return mixedBatchReply(Session, Batch);
}

/// Assembles a query reply around an already-serialized tuples fragment.
/// \p Cached is tri-state: absent (v1 single-session mode) or the
/// hit/miss flag.
static Value queryReply(std::shared_ptr<const std::string> Tuples,
                        std::uint64_t Count, const QueryPlan &Plan,
                        std::uint64_t Epoch, std::optional<bool> Cached) {
  Object O;
  O.emplace_back("ok", true);
  O.emplace_back("tuples", obs::json::Raw{std::move(Tuples)});
  O.emplace_back("count", Count);
  O.emplace_back("epoch", Epoch);
  Object PlanObj;
  PlanObj.emplace_back("index", static_cast<std::uint64_t>(Plan.IndexPos));
  PlanObj.emplace_back("prefix_len",
                       static_cast<std::uint64_t>(Plan.PrefixLen));
  PlanObj.emplace_back("residual_columns",
                       static_cast<std::uint64_t>(Plan.ResidualColumns));
  O.emplace_back("plan", std::move(PlanObj));
  if (Cached)
    O.emplace_back("cached", *Cached);
  return Value(std::move(O));
}

static Value handleQuery(const RequestContext &Ctx, const Value &Request) {
  EngineSession &Session = Ctx.Session;
  QueryCache *Cache = Ctx.Cache;
  obs::RequestTrace *Trace = Ctx.Trace;
  const Value *Relation = Request.find("relation");
  if (!Relation || !Relation->isString())
    return errorReply("query requires a \"relation\" string");
  const std::string &Name = Relation->asString();
  const std::vector<ColumnTypeKind> *Types = Session.relationTypes(Name);
  if (!Types)
    return errorReply("unknown relation '" + Name + "'");
  if (Trace)
    Trace->Relation = Name;

  Pattern P(Types->size());
  const Value *PatternVal = Request.find("pattern");
  if (Trace && PatternVal && PatternVal->isArray())
    Trace->PatternKey = PatternVal->dump();
  if (PatternVal) {
    if (!PatternVal->isArray())
      return errorReply("\"pattern\" must be an array");
    const Array &Cells = PatternVal->asArray();
    if (Cells.size() != Types->size())
      return errorReply("pattern has " + std::to_string(Cells.size()) +
                        " columns, expected " +
                        std::to_string(Types->size()));
    for (std::size_t I = 0; I < Cells.size(); ++I) {
      if (Cells[I].isNull())
        continue;
      std::string Raw;
      if (!cellText(Cells[I], Raw))
        return errorReply("pattern cells must be strings, numbers or null");
      // An unknown symbol cannot match anything; binding to the key of an
      // empty range would require interning it, so report no matches via
      // an impossible pattern instead of polluting the symbol table.
      if ((*Types)[I] == ColumnTypeKind::Symbol) {
        RamDomain Ordinal = Session.symbols().lookup(Raw);
        if (Ordinal < 0) {
          Object O;
          O.emplace_back("ok", true);
          O.emplace_back("tuples", Array{});
          O.emplace_back("count", std::uint64_t(0));
          O.emplace_back("epoch", Session.epoch());
          return Value(std::move(O));
        }
        P[I] = Ordinal;
        continue;
      }
      RamDomain Cell = 0;
      std::string Message;
      if (!tryParseColumn(Raw, (*Types)[I], Session.symbols(), Cell,
                          &Message))
        return errorReply("pattern column " + std::to_string(I + 1) + ": " +
                          Message);
      P[I] = Cell;
    }
  }

  Snapshot Snap = Session.snapshot();
  std::string CacheKey;
  if (Cache) {
    obs::StageScope Scope(Trace, obs::RequestStage::Cache);
    CacheKey = QueryCache::key(Name, P);
    if (std::shared_ptr<const QueryCache::CachedResult> Hit =
            Cache->lookup(CacheKey, Snap.epoch())) {
      // The rows were rendered against the shared append-only symbol
      // table, so the shared fragment is still exact at this epoch; the
      // hit costs one refcount bump plus a verbatim splice.
      if (Trace) {
        Trace->Cached = true;
        Trace->HasPlan = true;
        Trace->PlanIndex = Hit->Plan.IndexPos;
        Trace->PlanPrefixLen = Hit->Plan.PrefixLen;
        Trace->PlanResidual = Hit->Plan.ResidualColumns;
      }
      return queryReply(Hit->Tuples, Hit->Count, Hit->Plan, Snap.epoch(),
                        true);
    }
  }

  const interp::RelationWrapper *Rel = Snap.relation(Name);
  if (!Rel)
    return errorReply("unknown relation '" + Name + "'");
  QueryPlan Plan;
  {
    obs::StageScope Scope(Trace, obs::RequestStage::Plan);
    Plan = planQuery(*Rel, P);
  }
  if (Trace) {
    Trace->HasPlan = true;
    Trace->PlanIndex = Plan.IndexPos;
    Trace->PlanPrefixLen = Plan.PrefixLen;
    Trace->PlanResidual = Plan.ResidualColumns;
  }
  std::vector<DynTuple> Tuples;
  {
    obs::StageScope Scope(Trace, obs::RequestStage::Eval);
    Tuples = runQuery(*Rel, P, Plan);
  }
  Array Rows;
  Rows.reserve(Tuples.size());
  for (const DynTuple &Tuple : Tuples) {
    Array Row;
    for (std::size_t I = 0; I < Tuple.size(); ++I)
      Row.emplace_back(
          printColumn(Tuple[I], (*Types)[I], Session.symbols()));
    Rows.emplace_back(std::move(Row));
  }
  const auto Count = static_cast<std::uint64_t>(Tuples.size());
  // Serialize the rows exactly once; the reply and every future cache hit
  // share the same text.
  auto TuplesText =
      std::make_shared<const std::string>(Value(std::move(Rows)).dump());

  if (Cache) {
    auto Entry = std::make_shared<QueryCache::CachedResult>();
    Entry->Tuples = TuplesText;
    Entry->Count = Count;
    Entry->Plan = Plan;
    Cache->insert(CacheKey, Snap.epoch(), std::move(Entry));
  }
  return queryReply(std::move(TuplesText), Count, Plan, Snap.epoch(),
                    Cache ? std::optional<bool>(false) : std::nullopt);
}

static Value handleStats(const RequestContext &Ctx) {
  EngineSession &Session = Ctx.Session;
  Snapshot Snap = Session.snapshot();
  Object O;
  O.emplace_back("ok", true);
  O.emplace_back("protocol", WireProtocolVersion);
  O.emplace_back("epoch", Snap.epoch());
  O.emplace_back("incremental", Session.isMaintained());

  // Declared relations only; the maintenance program's aux relations are
  // an implementation detail.
  Array Relations;
  const obs::StatsBlock &Stats = Snap.stats();
  const auto &StatsRels = Snap.statsRelations();
  for (const std::string &Name : Session.relationNames()) {
    const interp::RelationWrapper *Rel = Snap.relation(Name);
    if (!Rel)
      continue;
    Object R;
    R.emplace_back("name", Name);
    R.emplace_back("arity", static_cast<std::uint64_t>(Rel->getArity()));
    R.emplace_back("kind", std::string(interp::relKindName(Rel->getKind())));
    R.emplace_back("size", static_cast<std::uint64_t>(Rel->size()));
    const std::size_t Id = Rel->getStatsId();
    if (Id < Stats.size() && Id < StatsRels.size() &&
        StatsRels[Id] == Rel) {
      Value StatsVal = obs::relationStatsJson(Stats[Id]);
      for (auto &[Key, Val] : StatsVal.asObject())
        R.emplace_back(Key, std::move(Val));
    }
    Relations.emplace_back(std::move(R));
  }
  O.emplace_back("relations", std::move(Relations));

  // Compile-time substrate decisions (forced or feedback-driven), so an
  // operator can see why a relation serves from a non-declared structure.
  const auto &Substrates = Session.program().getSubstrateDecisions();
  if (!Substrates.empty()) {
    Object Decisions;
    for (const auto &[RelName, Decision] : Substrates)
      Decisions.emplace_back(RelName, Decision);
    O.emplace_back("substrate_decisions", std::move(Decisions));
  }

  // Incremental-maintenance health: whether mixed batches stay in place,
  // and every fallback that ever ran, by reason — fallbacks are counted
  // and visible, never silent.
  const MaintTelemetry Maint = Session.maintTelemetry();
  Object MaintObj;
  MaintObj.emplace_back("enabled", Maint.Enabled);
  if (!Maint.Enabled)
    MaintObj.emplace_back("reason", Maint.IneligibleReason);
  MaintObj.emplace_back("batches", Maint.Batches);
  MaintObj.emplace_back("inserted", Maint.Inserted);
  MaintObj.emplace_back("deleted", Maint.Deleted);
  MaintObj.emplace_back("rederived", Maint.Rederived);
  MaintObj.emplace_back("reeval_strata", Maint.ReevalStrata);
  MaintObj.emplace_back("rebuild_fallbacks", Maint.Rebuilds);
  Object Fallbacks;
  for (const auto &[Reason, Count] : Maint.FallbackReasons)
    Fallbacks.emplace_back(Reason, Count);
  MaintObj.emplace_back("fallbacks", std::move(Fallbacks));
  O.emplace_back("maintenance", std::move(MaintObj));

  O.emplace_back("latency", Ctx.Latency.toJson());

  if (Ctx.T) {
    O.emplace_back("tenant", Ctx.T->Name);
    O.emplace_back("requests",
                   Ctx.T->Requests.load(std::memory_order_relaxed));
    const QueryCache::Counters C = Ctx.T->Cache.counters();
    Object CacheObj;
    CacheObj.emplace_back("hits", C.Hits);
    CacheObj.emplace_back("misses", C.Misses);
    CacheObj.emplace_back("invalidations", C.Invalidations);
    CacheObj.emplace_back("entries", C.Entries);
    O.emplace_back("cache", std::move(CacheObj));
  }
  if (Ctx.Registry) {
    Array Names;
    for (const Tenant *T : Ctx.Registry->tenants())
      Names.emplace_back(T->Name);
    O.emplace_back("tenants", std::move(Names));
    if (const ServeTelemetry *Tel = Ctx.Registry->Telemetry) {
      O.emplace_back("server", Tel->Counters.toJson());
      O.emplace_back("trace", Tel->Traces.statsJson());
      if (Tel->Pool) {
        const interp::SchedulerTelemetry ST = Tel->Pool->telemetry();
        Object Sched;
        Sched.emplace_back("threads", static_cast<std::uint64_t>(
                                          Tel->Pool->numThreads()));
        Sched.emplace_back("queue_depth", ST.QueueDepth);
        Sched.emplace_back("jobs", ST.Jobs);
        Sched.emplace_back("submitted", ST.Submitted);
        Sched.emplace_back("tasks", ST.Tasks);
        Sched.emplace_back("tasks_own", ST.ExecutedOwn);
        Sched.emplace_back("tasks_injected", ST.ExecutedInjected);
        Sched.emplace_back("tasks_stolen", ST.ExecutedStolen);
        Sched.emplace_back("tasks_inline", ST.ExecutedInline);
        O.emplace_back("scheduler", std::move(Sched));
      }
    }
  }
  return Value(std::move(O));
}

/// The registry-only `metrics` command: the same Prometheus document the
/// --metrics-port endpoint serves, delivered in-band for clients without
/// HTTP access.
static Value handleMetrics(const RequestContext &Ctx) {
  if (!Ctx.Registry)
    return errorReply("metrics is not available on this endpoint");
  Object O;
  O.emplace_back("ok", true);
  O.emplace_back("metrics", renderPrometheus(*Ctx.Registry));
  return Value(std::move(O));
}

/// Dispatches one parsed (or unparsable) request body. Micros stamping,
/// id echo and latency recording happen in the callers.
static RequestOutcome dispatchCore(const RequestContext &Ctx,
                                   const std::optional<Value> &Request,
                                   const std::string &ParseError) {
  RequestOutcome Outcome;
  if (!Request || !Request->isObject()) {
    Outcome.Reply = errorReply(
        Request ? "request must be a JSON object"
                : "malformed request: " + ParseError);
  } else if (const Value *Cmd = Request->find("cmd");
             !Cmd || !Cmd->isString()) {
    Outcome.Reply = errorReply("request requires a \"cmd\" string");
  } else {
    Outcome.Command = Cmd->asString();
    if (Ctx.Trace)
      Ctx.Trace->Command = Outcome.Command;
    if (Outcome.Command == "load" || Outcome.Command == "retract") {
      obs::StageScope Scope(Ctx.Trace, obs::RequestStage::Eval);
      Outcome.Reply = handleLoad(Ctx.Session, *Request,
                                 Outcome.Command == "retract");
    } else if (Outcome.Command == "query")
      Outcome.Reply = handleQuery(Ctx, *Request);
    else if (Outcome.Command == "stats")
      Outcome.Reply = handleStats(Ctx);
    else if (Outcome.Command == "metrics")
      Outcome.Reply = handleMetrics(Ctx);
    else if (Outcome.Command == "shutdown") {
      Object O;
      O.emplace_back("ok", true);
      Outcome.Reply = Value(std::move(O));
      Outcome.Shutdown = true;
    } else {
      Outcome.Reply =
          errorReply("unknown command '" + Outcome.Command + "'");
    }
  }
  return Outcome;
}

/// Extracts the optional request id. Returns false (with an error reply in
/// \p Outcome) when an id is present but not a string or number.
static bool extractId(const std::optional<Value> &Request, const Value *&Id,
                      RequestOutcome &Outcome) {
  Id = nullptr;
  if (!Request || !Request->isObject())
    return true;
  Id = Request->find("id");
  if (Id && !Id->isString() && !Id->isNumber()) {
    Outcome.Reply = errorReply("\"id\" must be a string or number");
    Id = nullptr;
    return false;
  }
  return true;
}

/// Shared tail: stamp micros, record latency, echo the id, mark the trace.
static RequestOutcome finishRequest(RequestOutcome Outcome, const Timer &T,
                                    obs::LatencyAggregator &Latency,
                                    const Value *Id,
                                    obs::RequestTrace *Trace = nullptr) {
  const std::uint64_t Micros = T.microseconds();
  Latency.record(Outcome.Command, Micros);
  Outcome.Micros = Micros;
  Outcome.Reply.set("micros", Micros);
  if (Id)
    Outcome.Reply.set("id", *Id);
  if (Trace) {
    if (const Value *Ok = Outcome.Reply.find("ok"))
      Trace->Ok = Ok->isBool() && Ok->asBool();
    if (Trace->Command.empty())
      Trace->Command = Outcome.Command;
  }
  return Outcome;
}

RequestOutcome srv::handleRequest(const TenantRegistry &Tenants,
                                  const std::string &Payload,
                                  obs::RequestTrace *Trace) {
  Timer T;
  Tenant *Default = Tenants.defaultTenant();
  if (!Default)
    fatal("handleRequest on a registry with no tenants");
  std::string ParseError;
  std::optional<Value> Request;
  {
    obs::StageScope Scope(Trace, obs::RequestStage::Parse);
    Request = obs::json::parse(Payload, &ParseError);
  }

  const Value *Id = nullptr;
  RequestOutcome Outcome;
  if (!extractId(Request, Id, Outcome))
    return finishRequest(std::move(Outcome), T, Default->Latency, nullptr,
                         Trace);

  // Route on "tenant"; absent (every v1 request) means the default.
  Tenant *Routed = Default;
  if (Request && Request->isObject()) {
    if (const Value *Name = Request->find("tenant")) {
      if (!Name->isString()) {
        Outcome.Reply = errorReply("\"tenant\" must be a string");
        return finishRequest(std::move(Outcome), T, Routed->Latency, Id,
                             Trace);
      }
      Routed = Tenants.find(Name->asString());
      if (!Routed) {
        Outcome.Reply =
            errorReply("unknown tenant '" + Name->asString() + "'");
        return finishRequest(std::move(Outcome), T, Default->Latency, Id,
                             Trace);
      }
    }
  }
  if (Trace)
    Trace->Tenant = Routed->Name;

  Routed->Requests.fetch_add(1, std::memory_order_relaxed);
  RequestContext Ctx{*Routed->Session, Routed->Latency, &Routed->Cache,
                     &Tenants,         Routed,          Trace};
  return finishRequest(dispatchCore(Ctx, Request, ParseError), T,
                       Routed->Latency, Id, Trace);
}

RequestOutcome srv::handleRequest(EngineSession &Session,
                                  obs::LatencyAggregator &Latency,
                                  const std::string &Payload,
                                  obs::RequestTrace *Trace) {
  Timer T;
  std::string ParseError;
  std::optional<Value> Request;
  {
    obs::StageScope Scope(Trace, obs::RequestStage::Parse);
    Request = obs::json::parse(Payload, &ParseError);
  }

  const Value *Id = nullptr;
  RequestOutcome Outcome;
  if (!extractId(Request, Id, Outcome))
    return finishRequest(std::move(Outcome), T, Latency, nullptr, Trace);

  if (Request && Request->isObject() && Request->find("tenant")) {
    Outcome.Reply =
        errorReply("tenant routing is not available on this endpoint");
    return finishRequest(std::move(Outcome), T, Latency, Id, Trace);
  }

  RequestContext Ctx{Session, Latency};
  Ctx.Trace = Trace;
  return finishRequest(dispatchCore(Ctx, Request, ParseError), T, Latency,
                       Id, Trace);
}
