//===- inc/Maintainer.h - Incremental maintenance driver --------*- C++ -*-===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime driver of the incremental maintenance subsystem: stages one
/// mixed insert/retract batch into the per-relation net deltas
/// (delta_ins_E / delta_del_E), then runs the translator's maintenance
/// plan stratum by stratum — the DRed statements through the engine's
/// de-specialized statement executor, the Reeval fallbacks as a scoped
/// snapshot/clear/re-run/diff of that stratum's main statements — and
/// reports what happened per stratum.
///
/// A maintained batch can also leave behind its ChangeSet: the net change
/// it made to every declared relation. replay() applies
/// a ChangeSet to a second engine in the same state as the first was
/// before the batch, running no rule, which is how the serving layer's
/// passive side catches up.
///
/// The driver is deliberately engine-agnostic about tuple ownership: it
/// only touches relations through the virtual RelationWrapper interface,
/// so it works identically over the dynamic and static backends.
///
//===----------------------------------------------------------------------===//

#ifndef STIRD_INC_MAINTAINER_H
#define STIRD_INC_MAINTAINER_H

#include "interp/Engine.h"
#include "ram/Ram.h"

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

namespace stird::inc {

/// One relation's portion of a mixed batch. Within a batch, retractions
/// are applied before insertions: a tuple both retracted and inserted ends
/// up present (and counts as a duplicate, not a change).
struct RelationOps {
  std::string Relation;
  std::vector<DynTuple> Inserts;
  std::vector<DynTuple> Retracts;
};

/// One mixed batch of EDB changes.
using MixedBatch = std::vector<RelationOps>;

/// What one maintained stratum did for a batch.
struct StratumReport {
  ram::Program::MaintStrategy Strategy;
  /// Why the stratum is a Reeval fallback ("" for DRed).
  std::string FallbackReason;
  /// Net derived-tuple changes this stratum emitted downstream.
  std::uint64_t Inserted = 0;
  std::uint64_t Deleted = 0;
  /// DRed only: over-deleted tuples that are in the relation after the
  /// batch, rederived from the survivors or re-inserted by the insertion
  /// phase. A candidate an exit clause, or a clause unfolded through exit
  /// clauses, still derives over the final lower strata is kept by Phase
  /// A, so it is neither over-deleted nor counted here.
  std::uint64_t Rederived = 0;
};

/// Outcome of one maintained batch.
struct MaintenanceReport {
  /// EDB accounting (net semantics, see RelationOps).
  std::uint64_t Inserted = 0;   ///< genuinely new EDB tuples
  std::uint64_t Duplicates = 0; ///< inserts of already-present tuples
  std::uint64_t Deleted = 0;    ///< genuinely removed EDB tuples
  std::uint64_t Missing = 0;    ///< retracts of absent tuples
  /// Per-stratum breakdown, bottom-up, maintained strata only.
  std::vector<StratumReport> Strata;
  /// Number of Reeval-fallback strata that ran.
  std::uint64_t ReevalStrata = 0;
};

/// The net change one maintained batch made to an engine's state, in a
/// form another engine over the same program replays without running any
/// rule. Tuples are flat arity-strided buffers.
struct ChangeSet {
  /// One declared relation's net change: its final delta_del_R and
  /// delta_ins_R. A DRed relation may lose a tuple and regain it in the
  /// same batch, so replay erases before it inserts.
  struct RelationDelta {
    /// Index into the maintainer's relation table (the same for every
    /// maintainer over one program).
    std::size_t Slot = 0;
    std::vector<RamDomain> Deleted;
    std::vector<RamDomain> Inserted;
    /// Set instead of the buffers when the relation lost tuples but has no
    /// per-tuple erase (an eqrel in a Reeval stratum): replay clears the
    /// relation and copies this one, the maintaining engine's, which must
    /// still hold the batch's result when replay runs.
    const interp::RelationWrapper *CopyFrom = nullptr;
  };
  std::vector<RelationDelta> Relations;
};

/// Drives the maintenance plan of one engine. The engine and program must
/// outlive the maintainer; one maintainer per resident engine instance.
class Maintainer {
public:
  /// \p Prog must carry a maintenance plan (ram::Program::hasMaintenance).
  Maintainer(const ram::Program &Prog, interp::Engine &Eng);

  /// Marks the engine's initial run() as done: the maintenance plan keeps
  /// no state beyond the relations themselves, so there is nothing to
  /// seed. Must run exactly once, after that run(), before the first
  /// apply() or replay().
  void bootstrap();

  /// Returns "" when apply() can process \p Batch, else the reason it
  /// cannot (derived-relation target, retraction from a lifted .input
  /// relation, eqrel retraction). Unknown relations (EDB shadows
  /// included) and arity mismatches are also reported here so servers can
  /// reject instead of crashing.
  std::string rejectReason(const MixedBatch &Batch) const;

  /// Stages \p Batch and runs the maintenance plan. The caller must have
  /// checked rejectReason() first. Inserts into a lifted .input relation
  /// stage into its EDB shadow but count against the relation itself.
  /// When \p Changes is non-null it is overwritten with the batch's net
  /// change, harvested just before the epilogue clears the deltas.
  MaintenanceReport apply(const MixedBatch &Batch,
                          ChangeSet *Changes = nullptr);

  /// Applies a ChangeSet harvested by another maintainer over the same
  /// program whose engine was, before that batch, in the state this one
  /// is in now: erases and inserts only, no rule.
  void replay(const ChangeSet &Changes);

private:
  /// One declared relation and the maintenance aux relations replay and
  /// harvest touch.
  struct Tracked {
    interp::RelationWrapper *Full;
    interp::RelationWrapper *Ins;
    interp::RelationWrapper *Del;
  };

  interp::RelationWrapper &rel(const std::string &Name) const;
  void harvest(ChangeSet &Out) const;
  /// Scoped re-evaluation of one Reeval stratum: snapshot, clear, re-run
  /// its main statements, diff into the ins/del deltas.
  void reevalStratum(const ram::Program::MaintStratum &MS);

  const ram::Program &Prog;
  interp::Engine &Eng;
  /// Relations defined by some maintained stratum (everything else
  /// declared is EDB).
  std::unordered_set<std::string> Derived;
  /// The hidden EDB shadows of lifted .input relations: maintained, but
  /// never a batch target.
  std::unordered_set<std::string> Shadows;
  /// Every declared relation, in the program's relation order: the slots
  /// of a ChangeSet.
  std::vector<Tracked> Relations;
  bool Bootstrapped = false;
};

} // namespace stird::inc

#endif // STIRD_INC_MAINTAINER_H
