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
/// ones. A session has one write path: every program it serves is compiled
/// with a maintenance plan (TranslationOptions::EmitMaintenance, forced on
/// by fromSource/fromFile), and every batch routes through the
/// inc::Maintainer: DRed for every stratum, with scoped per-stratum
/// re-evaluation fallbacks that are counted and reported, never silent. A rule-free program is maintained by its
/// EDB prologue alone. An .input relation that also has clauses is lifted
/// into a hidden EDB shadow R@edb plus the exit clause R(x) :- R@edb(x):
/// inserts into R stage into the shadow, retractions from R stay
/// rejected. Every stratum using `$` re-evaluates with the counter
/// restarted, so the ids match a cold run at -j1.
///
/// Concurrency follows the left-right pattern: the session keeps two
/// engine instances ("sides") over one shared symbol table. Readers pin
/// the active side with a Snapshot and are never blocked by a writer;
/// writers (serialized by a mutex) bring the passive side up to date,
/// apply the new batch, and publish it as the new active side after
/// waiting for the old side's readers to drain. Each batch runs the
/// maintenance plan once: the passive side catches up by replaying the net
/// change set (inc::ChangeSet) the published side's apply harvested —
/// plain erases, inserts and support adjustments, no rule. Resident memory
/// still doubles. The writer keeps no batch history: it holds the one
/// change set the passive side has not replayed yet.
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
#include <string>
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
  /// Batch sequence number after this load (1-based).
  std::uint64_t Epoch = 0;
  /// Wall-clock seconds of the whole write: waiting for the writer lock
  /// and for the passive side's readers to drain, the passive side's
  /// catch-up, and applying the batch.
  double Seconds = 0;
  /// The part of Seconds the passive side spent replaying the previous
  /// batch's change set (0 when it had nothing to catch up on).
  double CatchUpSeconds = 0;
  /// Non-empty when the batch was rejected before application (unknown
  /// relation, arity mismatch, derived-relation target, eqrel retraction,
  /// ...). A rejected batch mutates and retains nothing.
  std::string Error;
  /// Per-stratum maintenance detail of the apply that published the batch
  /// (every accepted batch is maintained in place).
  inc::MaintenanceReport Maint;
};

/// Cumulative maintenance counters of one session, for the stats command
/// and the Prometheus exporter. Every accepted batch is maintained, so
/// the only fallbacks are scoped Reeval strata.
struct MaintTelemetry {
  std::uint64_t Batches = 0;      ///< maintained batches applied
  std::uint64_t Inserted = 0;     ///< net EDB tuples inserted
  std::uint64_t Deleted = 0;      ///< net EDB tuples retracted
  std::uint64_t Rederived = 0;    ///< DRed over-deletes that survived
  std::uint64_t ReevalStrata = 0; ///< scoped Reeval strata executed
  /// Reeval stratum executions by reason (why the stratum is Reeval).
  std::vector<std::pair<std::string, std::uint64_t>> FallbackReasons;
};

struct SessionOptions {
  /// Per-side engine configuration (backend, threads, stats, ...).
  interp::EngineOptions Engine;
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
  /// (delta_/new_, EDB shadows) are reachable too; servers filter by
  /// declared names.
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
  /// sessions; must outlive them all). Null when \p Program was compiled
  /// without CompileOptions::EmitMaintenance.
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

  /// Applies one mixed insert/retract batch through the maintenance plan.
  /// Every batch — even a pure-insert one — routes through it, so every
  /// stratum's deltas reach the strata above. A rejected batch sets BatchResult::Error
  /// and applies (and retains) nothing.
  BatchResult applyMixed(const inc::MixedBatch &Batch);

  /// Textual variant of applyMixed (error reporting as for
  /// loadFacts(TextBatch); retract rows report as "<retract:relation>").
  BatchResult applyMixed(const MixedTextBatch &Batch,
                         std::vector<FactError> &Errors);

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

  /// Records one scoped Reeval stratum execution and emits the
  /// once-per-session warning line.
  void recordFallback(const std::string &Reason);
  /// Spins until no snapshot pins \p S any more.
  void waitQuiesce(Side &S);

  std::shared_ptr<core::Program> Prog;
  SessionOptions Options;

  std::unique_ptr<Side> Sides[2];
  /// The side snapshots pin. Readers load-acquire; the writer
  /// store-releases after the passive side is fully caught up.
  std::atomic<const Side *> Active;

  /// Writer state, all under WriterMutex. Bounded by live data, never by
  /// batch history.
  std::mutex WriterMutex;
  std::size_t PassiveIdx = 1;
  /// The net change of the last published batch, which the passive side
  /// replays before the next one (left-right alternation keeps it at most
  /// one batch behind). Its CopyFrom pointers name the published side's
  /// relations, which hold the target state as long as WriterMutex is
  /// held.
  inc::ChangeSet Pending;

  /// Maintenance telemetry, recorded only by publishing applies. Guarded
  /// by TelemetryMutex so stats/metrics readers never take WriterMutex.
  mutable std::mutex TelemetryMutex;
  MaintTelemetry Telemetry;
  std::map<std::string, std::uint64_t> FallbackCounts;
  std::atomic<bool> FallbackWarned{false};
};

} // namespace stird::srv

#endif // STIRD_SRV_SESSION_H
