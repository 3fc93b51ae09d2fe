//===- srv/Session.cpp - Resident engine sessions -----------------------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//

#include "srv/Session.h"

#include "util/MiscUtil.h"
#include "util/Timer.h"

#include <cassert>
#include <cstdio>
#include <map>
#include <set>
#include <thread>

using namespace stird;
using namespace stird::srv;

/// One of the session's two engine instances. Readers pin a side with the
/// Readers counter; the writer only mutates a side whose counter it has
/// observed at zero after unpublishing it.
struct stird::srv::detail::SessionSide {
  std::unique_ptr<interp::Engine> Eng;
  /// This side's maintenance driver, present when the program carries a
  /// maintenance plan.
  std::unique_ptr<inc::Maintainer> Maint;
  /// Batches applied to this side; the epoch readers observe through
  /// snapshots of it.
  std::uint64_t Epoch = 0;
  /// Number of snapshots currently pinning this side.
  mutable std::atomic<std::size_t> Readers{0};
};

//===----------------------------------------------------------------------===//
// Snapshot
//===----------------------------------------------------------------------===//

Snapshot::~Snapshot() {
  if (Side)
    Side->Readers.fetch_sub(1, std::memory_order_release);
}

Snapshot &Snapshot::operator=(Snapshot &&Other) noexcept {
  if (this != &Other) {
    if (Side)
      Side->Readers.fetch_sub(1, std::memory_order_release);
    Side = Other.Side;
    Other.Side = nullptr;
  }
  return *this;
}

const interp::RelationWrapper *
Snapshot::relation(const std::string &Name) const {
  return Side->Eng->getRelation(Name);
}

std::vector<DynTuple> Snapshot::query(const std::string &Relation,
                                      const Pattern &P,
                                      QueryPlan *PlanOut) const {
  const interp::RelationWrapper *Rel = relation(Relation);
  if (!Rel)
    fatal("unknown relation '" + Relation + "'");
  return runQuery(*Rel, P, PlanOut);
}

std::vector<DynTuple> Snapshot::tuples(const std::string &Relation) const {
  const interp::RelationWrapper *Rel = relation(Relation);
  if (!Rel)
    fatal("unknown relation '" + Relation + "'");
  return runQuery(*Rel, Pattern(Rel->getArity()));
}

std::uint64_t Snapshot::epoch() const { return Side->Epoch; }

const obs::StatsBlock &Snapshot::stats() const {
  return Side->Eng->getStats();
}

const std::vector<const interp::RelationWrapper *> &
Snapshot::statsRelations() const {
  return Side->Eng->getStatsRelations();
}

//===----------------------------------------------------------------------===//
// EngineSession
//===----------------------------------------------------------------------===//

std::unique_ptr<EngineSession>
EngineSession::fromSource(const std::string &Source,
                          const SessionOptions &Options,
                          std::vector<std::string> *Errors) {
  core::CompileOptions Compile = Options.Compile;
  Compile.EmitMaintenance = true;
  std::shared_ptr<core::Program> Prog =
      core::Program::fromSource(Source, Errors, Compile);
  if (!Prog)
    return nullptr;
  return create(std::move(Prog), Options);
}

std::unique_ptr<EngineSession>
EngineSession::fromFile(const std::string &Path,
                        const SessionOptions &Options,
                        std::vector<std::string> *Errors) {
  core::CompileOptions Compile = Options.Compile;
  Compile.EmitMaintenance = true;
  std::shared_ptr<core::Program> Prog =
      core::Program::fromFile(Path, Errors, Compile);
  if (!Prog)
    return nullptr;
  return create(std::move(Prog), Options);
}

std::unique_ptr<EngineSession>
EngineSession::create(std::shared_ptr<core::Program> Program,
                      const SessionOptions &Options) {
  return std::unique_ptr<EngineSession>(
      new EngineSession(std::move(Program), Options));
}

EngineSession::EngineSession(std::shared_ptr<core::Program> Program,
                             const SessionOptions &Opts)
    : Prog(std::move(Program)), Options(Opts),
      Maintained(Prog->getRam().hasMaintenance()) {
  for (const auto &Clause : Prog->getAst().Clauses)
    DerivedRels.insert(Clause->getHead().getName());
  Telemetry.Enabled = Maintained;
  if (!Maintained) {
    const std::string &Reason = Prog->getRam().getMaintIneligibleReason();
    Telemetry.IneligibleReason =
        Reason.empty() ? "maintenance program not emitted" : Reason;
  }
  // A serving engine never echoes .printsize to stdout, and only touches
  // the filesystem when the caller asked for the program's own IO.
  Options.Engine.SuppressIo = !Options.RunIo;
  Options.Engine.EchoPrintSize = false;
  for (int I = 0; I < 2; ++I) {
    Sides[I] = std::make_unique<Side>();
    Sides[I]->Eng = Prog->makeEngine(Options.Engine);
    Sides[I]->Eng->run(); // bootstrap: initial facts + IO when enabled
    if (Maintained) {
      Sides[I]->Maint =
          std::make_unique<inc::Maintainer>(Prog->getRam(), *Sides[I]->Eng);
      Sides[I]->Maint->bootstrap();
    }
  }
  Active.store(Sides[0].get());
  PassiveIdx = 1;
}

EngineSession::~EngineSession() = default;

void EngineSession::waitQuiesce(Side &S) {
  // The side was unpublished when it last lost a publish race, so no new
  // snapshot can pin it; we only wait for the stragglers to drain.
  while (S.Readers.load(std::memory_order_acquire) != 0)
    std::this_thread::yield();
}

/// Whether any relation of the batch stages a retraction.
static bool hasRetracts(const inc::MixedBatch &Batch) {
  for (const inc::RelationOps &Ops : Batch)
    if (!Ops.Retracts.empty())
      return true;
  return false;
}

void EngineSession::applyMaintained(Side &S, const inc::MixedBatch &Batch,
                                    BatchResult *Result) {
  // Every batch — pure inserts included — goes through the maintenance
  // plan; bypassing it would let the support counts drift.
  inc::MaintenanceReport Report = S.Maint->apply(Batch);
  if (!Result)
    return;
  Result->Maintained = true;
  Result->Inserted = Report.Inserted;
  Result->Duplicates = Report.Duplicates;
  Result->Deleted = Report.Deleted;
  Result->Missing = Report.Missing;
  {
    std::lock_guard<std::mutex> Lock(TelemetryMutex);
    ++Telemetry.Batches;
    Telemetry.Inserted += Report.Inserted;
    Telemetry.Deleted += Report.Deleted;
    Telemetry.ReevalStrata += Report.ReevalStrata;
    for (const inc::StratumReport &SR : Report.Strata)
      Telemetry.Rederived += SR.Rederived;
  }
  for (const inc::StratumReport &SR : Report.Strata)
    if (!SR.FallbackReason.empty())
      recordFallback(SR.FallbackReason);
  Result->Maint = std::move(Report);
}

void EngineSession::applyRebuilding(Side &S, const interp::Engine &Current,
                                    const inc::MixedBatch &Batch,
                                    BatchResult &Result) {
  // Count EDB novelty against the up-to-date published engine, staging
  // exactly like the Maintainer does (retract-before-insert, an insert
  // cancels a staged deletion) so both paths report alike. The same pass
  // folds the batch into the net EDB.
  for (const inc::RelationOps &Ops : Batch) {
    const interp::RelationWrapper *Full = Current.getRelation(Ops.Relation);
    if (!Full)
      fatal("unknown relation '" + Ops.Relation + "'");
    std::set<DynTuple> &Net = NetEdb[Ops.Relation];
    std::set<DynTuple> Del, Ins;
    for (const DynTuple &Tuple : Ops.Retracts) {
      Net.erase(Tuple);
      if (Full->contains(Tuple.data()) && Del.insert(Tuple).second)
        ++Result.Deleted;
      else
        ++Result.Missing;
    }
    for (const DynTuple &Tuple : Ops.Inserts) {
      Net.insert(Tuple);
      if (Del.erase(Tuple)) {
        --Result.Deleted;
        ++Result.Duplicates;
      } else if (Full->contains(Tuple.data())) {
        ++Result.Duplicates;
      } else if (Ins.insert(Tuple).second) {
        ++Result.Inserted;
      } else {
        ++Result.Duplicates;
      }
    }
  }
  // Seed a fresh engine with the net EDB and run once: the exact one-shot
  // semantics at the cost of recomputation.
  S.Eng = Prog->makeEngine(Options.Engine);
  for (const auto &[Name, Tuples] : NetEdb)
    S.Eng->insertTuples(Name,
                        std::vector<DynTuple>(Tuples.begin(), Tuples.end()));
  S.Eng->run();
  {
    std::lock_guard<std::mutex> Lock(TelemetryMutex);
    ++Telemetry.Rebuilds;
  }
  const std::string &Reason = Telemetry.IneligibleReason;
  recordFallback(hasRetracts(Batch)
                     ? "retraction without maintenance plan: " + Reason
                     : Reason);
}

BatchResult EngineSession::loadFacts(const FactBatch &Batch) {
  inc::MixedBatch Mixed;
  Mixed.reserve(Batch.size());
  for (const auto &[Name, Tuples] : Batch)
    Mixed.push_back({Name, Tuples, {}});
  BatchResult Result = applyMixed(Mixed);
  // The legacy API reported malformed batches fatally; preserve that for
  // callers that never see BatchResult::Error.
  if (!Result.Error.empty())
    fatal(Result.Error);
  return Result;
}

std::string
EngineSession::validateMixed(const inc::MixedBatch &Batch) const {
  if (Maintained)
    return Sides[0]->Maint->rejectReason(Batch);
  for (const inc::RelationOps &Ops : Batch) {
    const ram::Relation *Decl = Prog->getRam().findRelation(Ops.Relation);
    if (!Decl || !Prog->getAst().findRelation(Ops.Relation))
      return "unknown relation '" + Ops.Relation + "'";
    for (const DynTuple &Tuple : Ops.Inserts)
      if (Tuple.size() != Decl->getArity())
        return "arity mismatch for relation '" + Ops.Relation + "'";
    for (const DynTuple &Tuple : Ops.Retracts)
      if (Tuple.size() != Decl->getArity())
        return "arity mismatch for relation '" + Ops.Relation + "'";
    if (Ops.Retracts.empty())
      continue;
    if (DerivedRels.count(Ops.Relation))
      return "relation '" + Ops.Relation +
             "' is derived by rules; only EDB relations accept retractions";
    if (Decl->getStructure() == ram::StructureKind::Eqrel)
      return "cannot retract from equivalence relation '" + Ops.Relation +
             "' (classes cannot be split)";
  }
  return "";
}

void EngineSession::recordFallback(const std::string &Reason,
                                   std::uint64_t Count) {
  {
    std::lock_guard<std::mutex> Lock(TelemetryMutex);
    FallbackCounts[Reason] += Count;
  }
  if (!FallbackWarned.exchange(true))
    std::fprintf(stderr,
                 "stird: incremental maintenance fell back to "
                 "re-evaluation (%s); counted in "
                 "stird_maintenance_fallbacks_total, further fallbacks "
                 "are silent\n",
                 Reason.c_str());
}

BatchResult EngineSession::applyMixed(const inc::MixedBatch &Batch) {
  Timer T;
  std::lock_guard<std::mutex> Lock(WriterMutex);

  const Side &Published = *Sides[1 - PassiveIdx];
  BatchResult Result;
  Result.Error = validateMixed(Batch);
  if (!Result.Error.empty()) {
    // Rejected before anything was staged: nothing applied, nothing
    // retained, the epoch stands.
    Result.Epoch = Published.Epoch;
    return Result;
  }

  Side &W = *Sides[PassiveIdx];
  waitQuiesce(W);
  if (Maintained) {
    // Left-right alternation: the passive side missed exactly the batch
    // the other side published last.
    if (W.Epoch != Published.Epoch) {
      assert(W.Epoch + 1 == Published.Epoch && "passive side lags by one");
      applyMaintained(W, Pending, nullptr);
    }
    applyMaintained(W, Batch, &Result);
    Pending = Batch;
  } else {
    applyRebuilding(W, *Published.Eng, Batch, Result);
  }
  W.Epoch = Published.Epoch + 1;
  Result.Epoch = W.Epoch;

  // Publish: the release store orders every relation mutation above before
  // any reader that snapshots the new side.
  Active.store(&W, std::memory_order_release);
  PassiveIdx = 1 - PassiveIdx;
  Result.Seconds = T.seconds();
  return Result;
}

/// Parses one textual row block against declared column types, appending
/// malformed-row reports to \p Errors. Shared by the two textual entry
/// points.
static void parseRows(const std::vector<std::vector<std::string>> &Rows,
                      const std::vector<ColumnTypeKind> &Types,
                      SymbolTable &Symbols, const std::string &Source,
                      std::vector<DynTuple> &Out,
                      std::vector<FactError> &Errors) {
  for (std::size_t Row = 0; Row < Rows.size(); ++Row) {
    if (Rows[Row].size() != Types.size()) {
      Errors.push_back({Source, Row + 1, 0,
                        "row has " + std::to_string(Rows[Row].size()) +
                            " columns, expected " +
                            std::to_string(Types.size())});
      continue;
    }
    DynTuple Tuple(Types.size());
    bool Ok = true;
    for (std::size_t Col = 0; Col < Rows[Row].size() && Ok; ++Col) {
      std::string Message;
      if (!tryParseColumn(Rows[Row][Col], Types[Col], Symbols, Tuple[Col],
                          &Message)) {
        Errors.push_back({Source, Row + 1, Col + 1, Message});
        Ok = false;
      }
    }
    if (Ok)
      Out.push_back(std::move(Tuple));
  }
}

BatchResult EngineSession::loadFacts(const TextBatch &Batch,
                                     std::vector<FactError> &Errors) {
  FactBatch Resolved;
  for (const auto &[Name, Rows] : Batch) {
    const std::vector<ColumnTypeKind> *Types = relationTypes(Name);
    const std::string Source = "<load:" + Name + ">";
    if (!Types) {
      Errors.push_back({Source, 0, 0, "unknown relation '" + Name + "'"});
      continue;
    }
    std::vector<DynTuple> Tuples;
    parseRows(Rows, *Types, symbols(), Source, Tuples, Errors);
    Resolved.emplace_back(Name, std::move(Tuples));
  }
  return loadFacts(Resolved);
}

BatchResult EngineSession::applyMixed(const MixedTextBatch &Batch,
                                      std::vector<FactError> &Errors) {
  inc::MixedBatch Resolved;
  for (const TextRelationOps &Ops : Batch) {
    const std::vector<ColumnTypeKind> *Types = relationTypes(Ops.Relation);
    if (!Types) {
      Errors.push_back({"<load:" + Ops.Relation + ">", 0, 0,
                        "unknown relation '" + Ops.Relation + "'"});
      continue;
    }
    inc::RelationOps R;
    R.Relation = Ops.Relation;
    parseRows(Ops.Inserts, *Types, symbols(), "<load:" + Ops.Relation + ">",
              R.Inserts, Errors);
    parseRows(Ops.Retracts, *Types, symbols(),
              "<retract:" + Ops.Relation + ">", R.Retracts, Errors);
    Resolved.push_back(std::move(R));
  }
  return applyMixed(Resolved);
}

bool EngineSession::isMaintained() const { return Maintained; }

MaintTelemetry EngineSession::maintTelemetry() const {
  std::lock_guard<std::mutex> Lock(TelemetryMutex);
  MaintTelemetry Out = Telemetry;
  Out.FallbackReasons.assign(FallbackCounts.begin(), FallbackCounts.end());
  return Out;
}

Snapshot EngineSession::snapshot() const {
  for (;;) {
    const Side *S = Active.load(std::memory_order_acquire);
    S->Readers.fetch_add(1, std::memory_order_acq_rel);
    // The side may have been unpublished between the load and the pin; the
    // re-check guarantees the writer's quiesce wait sees our pin before it
    // mutates anything.
    if (Active.load(std::memory_order_acquire) == S)
      return Snapshot(S);
    S->Readers.fetch_sub(1, std::memory_order_release);
  }
}

std::vector<DynTuple> EngineSession::query(const std::string &Relation,
                                           const Pattern &P) const {
  return snapshot().query(Relation, P);
}

std::uint64_t EngineSession::epoch() const {
  return Active.load(std::memory_order_acquire)->Epoch;
}

std::vector<std::string> EngineSession::relationNames() const {
  std::vector<std::string> Names;
  for (const auto &Decl : Prog->getAst().Relations)
    Names.push_back(Decl->getName());
  return Names;
}

std::shared_ptr<interp::Scheduler>
EngineSession::scheduler(std::size_t NumThreads) {
  return Prog->schedulerFor(NumThreads);
}

const std::vector<ColumnTypeKind> *
EngineSession::relationTypes(const std::string &Relation) const {
  // Only declared relations are served; the translator's auxiliary
  // delta_/new_ relations stay internal.
  if (!Prog->getAst().findRelation(Relation))
    return nullptr;
  const interp::RelationWrapper *Rel =
      Active.load(std::memory_order_acquire)->Eng->getRelation(Relation);
  return Rel ? &Rel->getDecl().getColumnTypes() : nullptr;
}
