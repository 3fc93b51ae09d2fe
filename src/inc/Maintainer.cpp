//===- inc/Maintainer.cpp - Incremental maintenance driver --------------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//

#include "inc/Maintainer.h"

#include "util/MiscUtil.h"

#include <cassert>
#include <set>

using namespace stird;
using namespace stird::inc;

Maintainer::Maintainer(const ram::Program &Prog, interp::Engine &Eng)
    : Prog(Prog), Eng(Eng) {
  assert(Prog.hasMaintenance() && "program compiled without a plan");
  for (const auto &MS : Prog.getMaintStrata())
    Derived.insert(MS.Relations.begin(), MS.Relations.end());
  for (const auto &Decl : Prog.getRelations()) {
    const ram::Program::MaintAux *Aux = Prog.getMaintAux(Decl->getName());
    if (!Aux)
      continue;
    if (!Aux->Edb.empty())
      Shadows.insert(Aux->Edb);
    Relations.push_back(
        {&rel(Decl->getName()), &rel(Aux->Ins), &rel(Aux->Del)});
  }
}

interp::RelationWrapper &Maintainer::rel(const std::string &Name) const {
  interp::RelationWrapper *R = Eng.getRelation(Name);
  if (!R)
    fatal("maintenance relation '" + Name + "' missing from engine");
  return *R;
}

void Maintainer::bootstrap() {
  assert(!Bootstrapped && "bootstrap() runs once");
  Bootstrapped = true;
}

std::string Maintainer::rejectReason(const MixedBatch &Batch) const {
  for (const RelationOps &Ops : Batch) {
    // Declared relations all carry a MaintAux entry; anything else (aux
    // relations and EDB shadows included) is not a valid batch target.
    const ram::Program::MaintAux *Aux = Prog.getMaintAux(Ops.Relation);
    if (!Aux || Shadows.count(Ops.Relation))
      return "unknown relation '" + Ops.Relation + "'";
    // A lifted .input relation takes inserts (into its shadow) but keeps
    // its derivations: nothing can retract them.
    if (Derived.count(Ops.Relation) && Aux->Edb.empty())
      return "relation '" + Ops.Relation +
             "' is derived by rules; only EDB relations accept batches";
    if (Derived.count(Ops.Relation) && !Ops.Retracts.empty())
      return "relation '" + Ops.Relation +
             "' is derived by rules; only EDB relations accept retractions";
    const ram::Relation *Decl = Prog.findRelation(Ops.Relation);
    if (Decl->getStructure() == ram::StructureKind::Eqrel &&
        !Ops.Retracts.empty())
      return "cannot retract from equivalence relation '" + Ops.Relation +
             "' (classes cannot be split)";
    for (const DynTuple &Tuple : Ops.Inserts)
      if (Tuple.size() != Decl->getArity())
        return "arity mismatch for relation '" + Ops.Relation + "'";
    for (const DynTuple &Tuple : Ops.Retracts)
      if (Tuple.size() != Decl->getArity())
        return "arity mismatch for relation '" + Ops.Relation + "'";
  }
  return "";
}

MaintenanceReport Maintainer::apply(const MixedBatch &Batch,
                                    ChangeSet *Changes) {
  assert(Bootstrapped && "apply() before bootstrap()");
  MaintenanceReport Report;

  // Stage the net EDB change of the batch into the ins/del deltas:
  // retractions first, then insertions (an insert cancels a staged
  // deletion), duplicates and misses filtered against the live relation.
  // A lifted .input relation stages into its EDB shadow: an insert lands
  // there even when R derives the tuple too, but counts as new only when
  // R lacks it.
  for (const RelationOps &Ops : Batch) {
    const ram::Program::MaintAux *Aux = Prog.getMaintAux(Ops.Relation);
    interp::RelationWrapper &Full = rel(Ops.Relation);
    interp::RelationWrapper *Shadow = nullptr;
    if (!Aux->Edb.empty()) {
      Shadow = &rel(Aux->Edb);
      Aux = Prog.getMaintAux(Aux->Edb);
    }
    interp::RelationWrapper &Ins = rel(Aux->Ins);
    interp::RelationWrapper &Del = rel(Aux->Del);
    for (const DynTuple &Tuple : Ops.Retracts) {
      if (!Full.contains(Tuple.data()) || !Del.insert(Tuple.data()))
        ++Report.Missing;
      else
        ++Report.Deleted;
    }
    for (const DynTuple &Tuple : Ops.Inserts) {
      if (Del.contains(Tuple.data())) {
        Del.erase(Tuple.data());
        --Report.Deleted;
        ++Report.Duplicates;
      } else if (Full.contains(Tuple.data())) {
        if (Shadow && !Shadow->contains(Tuple.data()))
          Ins.insert(Tuple.data());
        ++Report.Duplicates;
      } else if (Ins.insert(Tuple.data())) {
        ++Report.Inserted;
      } else {
        ++Report.Duplicates;
      }
    }
  }

  // EDB prologue, then every stratum bottom-up, exactly once: when a
  // stratum runs, all lower relations are final and the lower deltas
  // describe the net change. The `$` strata are all Reeval and re-run in
  // main order from a restarted counter, minting a cold run's ids.
  Eng.runStatement(*Prog.getMaintPrologue());
  Eng.resetCounter();
  for (const ram::Program::MaintStratum &MS : Prog.getMaintStrata()) {
    if (MS.Strategy == ram::Program::MaintStrategy::Reeval) {
      reevalStratum(MS);
      ++Report.ReevalStrata;
    } else {
      Eng.runStatement(*MS.Stmt);
    }
    // Harvest before the epilogue clears the aux relations. The deltas of
    // lower strata stay live for upper strata to consume; reading sizes
    // does not perturb them.
    StratumReport SR;
    SR.Strategy = MS.Strategy;
    SR.FallbackReason = MS.FallbackReason;
    for (const std::string &Name : MS.Relations) {
      const ram::Program::MaintAux &Aux = *Prog.getMaintAux(Name);
      SR.Inserted += rel(Aux.Ins).size();
      SR.Deleted += rel(Aux.Del).size();
      // delta_del_R is rederive_R minus the tuples R holds after the batch
      // (survivors and re-inserted ones), so the difference of the two
      // sizes is exactly the rederived count.
      if (!Aux.Rederive.empty())
        SR.Rederived += rel(Aux.Rederive).size() - rel(Aux.Del).size();
    }
    Report.Strata.push_back(std::move(SR));
  }
  if (Changes)
    harvest(*Changes);
  if (const ram::Statement *Epi = Prog.getMaintEpilogue())
    Eng.runStatement(*Epi);
  return Report;
}

/// Appends every tuple of \p Rel to \p Out, arity-strided.
static void appendTuples(const interp::RelationWrapper &Rel,
                         std::vector<RamDomain> &Out) {
  Out.reserve(Out.size() + Rel.size() * Rel.getArity());
  Rel.forEach([&](const RamDomain *Tuple) {
    Out.insert(Out.end(), Tuple, Tuple + Rel.getArity());
  });
}

void Maintainer::harvest(ChangeSet &Out) const {
  Out.Relations.clear();
  for (std::size_t Slot = 0; Slot < Relations.size(); ++Slot) {
    const Tracked &T = Relations[Slot];
    if (T.Ins->empty() && T.Del->empty())
      continue;
    ChangeSet::RelationDelta D;
    D.Slot = Slot;
    // An equivalence relation has no per-tuple erase.
    if (T.Full->getKind() == interp::RelKind::Eqrel && !T.Del->empty()) {
      D.CopyFrom = T.Full;
    } else {
      appendTuples(*T.Del, D.Deleted);
      appendTuples(*T.Ins, D.Inserted);
    }
    Out.Relations.push_back(std::move(D));
  }
}

void Maintainer::replay(const ChangeSet &Changes) {
  assert(Bootstrapped && "replay() before bootstrap()");
  for (const ChangeSet::RelationDelta &D : Changes.Relations) {
    assert(D.Slot < Relations.size() && "change set of another program");
    interp::RelationWrapper &Full = *Relations[D.Slot].Full;
    if (D.CopyFrom) {
      Full.clear();
      Full.insertAll(*D.CopyFrom);
      continue;
    }
    const std::size_t Arity = Full.getArity();
    for (std::size_t I = 0; I < D.Deleted.size(); I += Arity)
      Full.erase(D.Deleted.data() + I);
    for (std::size_t I = 0; I < D.Inserted.size(); I += Arity)
      Full.insert(D.Inserted.data() + I);
  }
}

void Maintainer::reevalStratum(const ram::Program::MaintStratum &MS) {
  // Scoped fallback: snapshot the stratum's relations, clear them, re-run
  // exactly this stratum's slice of the main program (its trailing
  // statements leave the semi-naive scratch relations empty again), then
  // diff old vs new into the ins/del deltas so downstream strata and the
  // serving telemetry see a precise net change.
  std::vector<std::set<DynTuple>> Old(MS.Relations.size());
  for (std::size_t I = 0; I < MS.Relations.size(); ++I) {
    interp::RelationWrapper &R = rel(MS.Relations[I]);
    R.forEach([&](const RamDomain *Tuple) {
      Old[I].emplace(Tuple, Tuple + R.getArity());
    });
    R.clear();
  }

  const auto &Children =
      static_cast<const ram::Sequence &>(Prog.getMain()).getStatements();
  assert(MS.MainEnd <= Children.size() && "stale main span");
  for (std::size_t I = MS.MainBegin; I < MS.MainEnd; ++I)
    Eng.runStatement(*Children[I]);

  for (std::size_t I = 0; I < MS.Relations.size(); ++I) {
    const ram::Program::MaintAux &Aux = *Prog.getMaintAux(MS.Relations[I]);
    interp::RelationWrapper &R = rel(MS.Relations[I]);
    interp::RelationWrapper &Ins = rel(Aux.Ins);
    interp::RelationWrapper &Del = rel(Aux.Del);
    R.forEach([&](const RamDomain *Tuple) {
      if (!Old[I].count(DynTuple(Tuple, Tuple + R.getArity())))
        Ins.insert(Tuple);
    });
    for (const DynTuple &Tuple : Old[I])
      if (!R.contains(Tuple.data()))
        Del.insert(Tuple.data());
  }
}
