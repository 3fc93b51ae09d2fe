//===- srv/Session.h - Resident engine sessions -----------------*- C++ -*-===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resident serving layer: an EngineSession keeps a compiled program's
/// de-specialized relations in memory across fact batches, so repeated
/// loads and queries skip the one-shot pipeline's per-run setup entirely.
///
/// Batches are mixed: they may insert new EDB tuples and retract present
/// ones. Each program has one write path, chosen once. When the translator
/// emitted a maintenance program (see TranslationOptions::EmitMaintenance
/// — forced on by fromSource/fromFile) every batch routes through the
/// inc::Maintainer: counting for non-recursive strata, DRed for recursive
/// ones, with scoped per-stratum re-evaluation fallbacks that are counted
/// and reported, never silent. Every other program rebuilds: each batch
/// re-evaluates a fresh engine seeded with the net EDB (reported via
/// BatchResult::Maintained and the fallback telemetry).
///
/// Concurrency follows the left-right pattern: the session keeps two
/// engine instances ("sides") over one shared symbol table. Readers pin
/// the active side with a Snapshot and are never blocked by a writer;
/// writers (serialized by a mutex) bring the passive side up to date,
/// apply the new batch, and publish it as the new active side after
/// waiting for the old side's readers to drain. The cost is the classic
/// one: every batch is applied twice, and resident memory doubles. The
/// writer keeps no batch history: a maintained session holds the one
/// batch the passive side has not applied yet, a rebuilding session the
/// net EDB its batches left behind.
///
//===----------------------------------------------------------------------===//

#ifndef STIRD_SRV_SESSION_H
#define STIRD_SRV_SESSION_H

#include "core/Program.h"
#include "inc/Maintainer.h"
#include "srv/Query.h"
#include "util/Csv.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

namespace stird::srv {

namespace detail {
struct SessionSide;
} // namespace detail

/// One batch of facts: relation name -> new tuples (resolved cells).
using FactBatch = std::vector<std::pair<std::string, std::vector<DynTuple>>>;

/// The textual form accepted from the wire: raw column strings, parsed
/// against each relation's declared column types.
using TextBatch =
    std::vector<std::pair<std::string, std::vector<std::vector<std::string>>>>;

/// One relation's textual portion of a mixed batch (wire form of
/// inc::RelationOps): raw insert and retract rows, parsed against the
/// relation's declared column types.
struct TextRelationOps {
  std::string Relation;
  std::vector<std::vector<std::string>> Inserts;
  std::vector<std::vector<std::string>> Retracts;
};
using MixedTextBatch = std::vector<TextRelationOps>;

/// Outcome of one loadFacts/applyMixed call.
struct BatchResult {
  /// Tuples that were genuinely new (grew a relation).
  std::size_t Inserted = 0;
  /// Tuples already present (deduplicated away).
  std::size_t Duplicates = 0;
  /// Tuples genuinely removed by retraction.
  std::size_t Deleted = 0;
  /// Retractions of tuples that were not present.
  std::size_t Missing = 0;
  /// True when the incremental maintenance plan processed the batch in
  /// place (see BatchResult::Maint for the per-stratum breakdown); false
  /// when it forced a full re-evaluation.
  bool Maintained = false;
  /// Batch sequence number after this load (1-based).
  std::uint64_t Epoch = 0;
  /// Wall-clock seconds spent applying the batch to the published side.
  double Seconds = 0;
  /// Non-empty when the batch was rejected before application (unknown
  /// relation, arity mismatch, derived-relation target or eqrel retraction
  /// under maintenance, ...). A rejected batch mutates and retains
  /// nothing.
  std::string Error;
  /// Per-stratum maintenance detail of the publishing apply (only
  /// meaningful when Maintained).
  inc::MaintenanceReport Maint;
};

/// Cumulative maintenance counters of one session, for the stats command
/// and the Prometheus exporter.
struct MaintTelemetry {
  /// Whether batches run the maintenance program at all.
  bool Enabled = false;
  /// Why they cannot when Enabled is false.
  std::string IneligibleReason;
  std::uint64_t Batches = 0;      ///< maintained batches applied
  std::uint64_t Inserted = 0;     ///< net EDB tuples inserted
  std::uint64_t Deleted = 0;      ///< net EDB tuples retracted
  std::uint64_t Rederived = 0;    ///< DRed over-deletes that survived
  std::uint64_t ReevalStrata = 0; ///< scoped Reeval strata executed
  std::uint64_t Rebuilds = 0;     ///< whole-batch full re-evaluations
  /// Fallback executions by reason: every scoped Reeval stratum run and
  /// every whole-batch rebuild, keyed by why it happened.
  std::vector<std::pair<std::string, std::uint64_t>> FallbackReasons;
};

struct SessionOptions {
  /// Per-side engine configuration (backend, threads, stats, ...).
  interp::EngineOptions Engine;
  /// Compile-time choices (--sips/--feedback join planning, ...) for the
  /// fromSource/fromFile convenience constructors. EmitMaintenance is
  /// forced on regardless: sessions always want the incremental path, and
  /// the one-shot and maintenance programs are planned under the same
  /// strategy so resident re-derivation matches a cold run's plans.
  core::CompileOptions Compile;
  /// Execute the program's .input/.output directives during the bootstrap
  /// run. Off by default: a serving session starts from an empty database
  /// and receives facts through loadFacts.
  bool RunIo = false;
};

class EngineSession;

/// A consistent read view: the relation contents observed never change
/// while the snapshot is held, even as writers publish new batches. Cheap
/// to create (two atomic operations); holding one only delays the *next*
/// writer reusing the pinned side, never the current one. Must not outlive
/// its session.
class Snapshot {
public:
  Snapshot(Snapshot &&Other) noexcept : Side(Other.Side) {
    Other.Side = nullptr;
  }
  Snapshot &operator=(Snapshot &&Other) noexcept;
  Snapshot(const Snapshot &) = delete;
  Snapshot &operator=(const Snapshot &) = delete;
  ~Snapshot();

  /// Partial-tuple query (see srv::runQuery). Fatal on unknown relations;
  /// use the session's relation metadata to validate first.
  std::vector<DynTuple> query(const std::string &Relation, const Pattern &P,
                              QueryPlan *PlanOut = nullptr) const;

  /// All tuples of a relation, sorted.
  std::vector<DynTuple> tuples(const std::string &Relation) const;

  /// The pinned side's relation, or null if unknown. Aux relations
  /// (delta_/new_) are reachable too; servers filter by declared names.
  const interp::RelationWrapper *relation(const std::string &Name) const;

  /// Batch sequence number this snapshot observes.
  std::uint64_t epoch() const;

  /// Observability counters of the pinned side, in stats-id order.
  const obs::StatsBlock &stats() const;
  const std::vector<const interp::RelationWrapper *> &
  statsRelations() const;

private:
  friend class EngineSession;
  explicit Snapshot(const detail::SessionSide *Side) : Side(Side) {}

  const detail::SessionSide *Side;
};

/// A resident engine over one compiled program. Thread-safe: any number of
/// concurrent snapshot()/query() callers, writers serialized internally.
class EngineSession {
public:
  /// Compiles \p Source and boots a session over it. Null on compile
  /// errors (reported like core::Program::fromSource).
  static std::unique_ptr<EngineSession>
  fromSource(const std::string &Source, const SessionOptions &Options = {},
             std::vector<std::string> *Errors = nullptr);

  static std::unique_ptr<EngineSession>
  fromFile(const std::string &Path, const SessionOptions &Options = {},
           std::vector<std::string> *Errors = nullptr);

  /// Boots a session over an already compiled program (shared with other
  /// sessions; must outlive them all).
  static std::unique_ptr<EngineSession>
  create(std::shared_ptr<core::Program> Program,
         const SessionOptions &Options = {});

  ~EngineSession();

  /// Applies one monotonic batch of new facts and derives every
  /// consequence. Unknown relations or arity mismatches are fatal;
  /// validate via relationTypes() first when the input is untrusted.
  BatchResult loadFacts(const FactBatch &Batch);

  /// Textual variant: parses each cell against the relation's declared
  /// column types. Malformed tuples are skipped and reported in
  /// \p Errors (File = "<load:relation>", Line = 1-based tuple index);
  /// unknown relation names produce one error each and are skipped.
  BatchResult loadFacts(const TextBatch &Batch,
                        std::vector<FactError> &Errors);

  /// Applies one mixed insert/retract batch. When the program carries a
  /// maintenance plan, every batch — even a pure-insert one — routes
  /// through it so the support counts stay exact; otherwise every batch
  /// re-evaluates from the net EDB. A rejected batch sets
  /// BatchResult::Error and applies (and retains) nothing.
  BatchResult applyMixed(const inc::MixedBatch &Batch);

  /// Textual variant of applyMixed (error reporting as for
  /// loadFacts(TextBatch); retract rows report as "<retract:relation>").
  BatchResult applyMixed(const MixedTextBatch &Batch,
                         std::vector<FactError> &Errors);

  /// Whether batches run the incremental maintenance program (mixed
  /// insert/retract batches stay in place, no rebuild).
  bool isMaintained() const;

  /// Cumulative maintenance counters (batches, deletions, rederivations,
  /// per-reason fallbacks) since the session booted.
  MaintTelemetry maintTelemetry() const;

  /// Pins the current active side for consistent reads.
  Snapshot snapshot() const;

  /// One-shot convenience: snapshot() + query on it.
  std::vector<DynTuple> query(const std::string &Relation,
                              const Pattern &P) const;

  /// Batches applied so far.
  std::uint64_t epoch() const;

  /// Declared (user-visible) relation names, in declaration order.
  std::vector<std::string> relationNames() const;
  /// Column types of a declared relation, or null if unknown.
  const std::vector<ColumnTypeKind> *
  relationTypes(const std::string &Relation) const;

  const core::Program &program() const { return *Prog; }
  SymbolTable &symbols() { return Prog->getSymbolTable(); }
  const SymbolTable &symbols() const { return Prog->getSymbolTable(); }

  /// The underlying program's shared work-stealing scheduler for
  /// \p NumThreads (see core::Program::schedulerFor). Serving front ends
  /// dispatch request jobs here, so wire work and engine evaluation share
  /// one warm pool instead of spawning per-connection threads.
  std::shared_ptr<interp::Scheduler> scheduler(std::size_t NumThreads);

private:
  using Side = detail::SessionSide;

  explicit EngineSession(std::shared_ptr<core::Program> Program,
                         const SessionOptions &Options);

  /// Maintained write path: runs one batch through \p S's maintenance
  /// plan. \p Result is non-null only for the publishing apply (telemetry
  /// and counters are recorded once, not per side).
  void applyMaintained(Side &S, const inc::MixedBatch &Batch,
                       BatchResult *Result);
  /// Rebuilding write path: counts the batch against \p Current (the
  /// published side's engine), folds it into the net EDB and replaces \p
  /// S's engine with a fresh one evaluated over it.
  void applyRebuilding(Side &S, const interp::Engine &Current,
                       const inc::MixedBatch &Batch, BatchResult &Result);
  /// Validates a batch before it is applied; "" when acceptable.
  std::string validateMixed(const inc::MixedBatch &Batch) const;
  /// Records one fallback execution (scoped Reeval stratum or rebuild)
  /// and emits the once-per-session warning line.
  void recordFallback(const std::string &Reason, std::uint64_t Count = 1);
  /// Spins until no snapshot pins \p S any more.
  void waitQuiesce(Side &S);

  std::shared_ptr<core::Program> Prog;
  SessionOptions Options;
  /// True when the program carries a maintenance plan (batches apply in
  /// place); false when every batch rebuilds.
  bool Maintained;
  /// Relations defined by rules — retraction targets to reject on the
  /// rebuild path.
  std::unordered_set<std::string> DerivedRels;

  std::unique_ptr<Side> Sides[2];
  /// The side snapshots pin. Readers load-acquire; the writer
  /// store-releases after the passive side is fully caught up.
  std::atomic<const Side *> Active;

  /// Writer state, all under WriterMutex. Bounded by live data, never by
  /// batch history.
  std::mutex WriterMutex;
  std::size_t PassiveIdx = 1;
  /// Maintained sessions: the last published batch, which the passive
  /// side applies before the next one (left-right alternation keeps it at
  /// most one batch behind).
  inc::MixedBatch Pending;
  /// Rebuilding sessions: the live EDB facts the batches left behind,
  /// folded retract-before-insert within each batch.
  std::map<std::string, std::set<DynTuple>> NetEdb;

  /// Maintenance telemetry, recorded only by publishing applies. Guarded
  /// by TelemetryMutex so stats/metrics readers never take WriterMutex.
  mutable std::mutex TelemetryMutex;
  MaintTelemetry Telemetry;
  std::map<std::string, std::uint64_t> FallbackCounts;
  std::atomic<bool> FallbackWarned{false};
};

} // namespace stird::srv

#endif // STIRD_SRV_SESSION_H
