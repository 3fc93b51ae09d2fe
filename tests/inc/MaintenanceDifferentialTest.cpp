//===- tests/inc/MaintenanceDifferentialTest.cpp - Mixed-batch equality -------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The incremental-maintenance differential suite: seeded mixed
/// insert/retract streams replayed through the Maintainer, with exact
/// equality against a one-shot evaluation of the net EDB at EVERY batch
/// prefix. Each subject runs the full matrix of batch splits k in
/// {1, 2, 5, 8}, the four backends and thread counts -j{1, 4}, so DRed
/// (recursive and non-recursive strata) and the scoped Reeval fallback are
/// both exercised on every executor under both sequential and parallel
/// evaluation. Every batch's
/// MaintenanceReport must also equal the StaticLambda -j1 report: the
/// executor and thread count change how a batch runs, never what it did.
/// A replica engine replays every batch's ChangeSet and must equal the
/// maintained engine in every declared relation.
/// The ChangeSet itself must be the batch's net change: per declared
/// relation, disjoint insert and delete sets equal to NEW \ OLD and
/// OLD \ NEW of the oracle, with every StratumReport's Inserted/Deleted
/// equal to their sizes.
///
/// The session leg runs the same streams through EngineSession::applyMixed,
/// where the two left-right sides alternate: one maintains a batch, the
/// other catches up by replaying its change set. After every batch the
/// published side must equal the oracle in every declared relation, and
/// an empty batch must
/// publish the other, replayed side with the same contents.
///
//===----------------------------------------------------------------------===//

#include "inc/Maintainer.h"

#include "core/Program.h"
#include "srv/Session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>

#include <map>
#include <set>
#include <string>
#include <vector>

using namespace stird;

namespace {

core::CompileOptions withMaint() {
  core::CompileOptions Options;
  Options.EmitMaintenance = true;
  return Options;
}

/// Deterministic LCG (same constants as the SIPS suite's generator): the
/// streams must be identical across platforms and reruns.
class Rng {
public:
  explicit Rng(std::uint64_t Seed) : State(Seed * 2862933555777941757ULL + 1) {}
  std::uint64_t next() {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return State >> 33;
  }
  std::uint64_t next(std::uint64_t Bound) { return next() % Bound; }

private:
  std::uint64_t State;
};

/// One EDB relation the stream writes to.
struct EdbSpec {
  std::string Name;
  std::size_t Arity;
  RamDomain Domain; ///< column values drawn from [0, Domain)
  /// An `.input` relation that also has clauses: it takes inserts only.
  bool InsertOnly = false;
};

struct Subject {
  const char *Name;
  const char *Source;
  std::vector<EdbSpec> Edb;
  /// Retractions the subject cannot accept (eqrel EDB): insert-only stream.
  bool InsertOnly = false;
};

/// One op of the stream. Retract=true removes, else inserts.
struct Op {
  std::size_t Rel;
  DynTuple Tuple;
  bool Retract;
};

/// Generates \p N ops: ~40% retractions, biased towards tuples actually
/// present so deletions do real work, with some misses and duplicates left
/// in deliberately.
std::vector<Op> makeStream(const Subject &S, std::uint64_t Seed,
                           std::size_t N) {
  Rng R(Seed);
  std::vector<std::set<DynTuple>> State(S.Edb.size());
  std::vector<Op> Ops;
  for (std::size_t I = 0; I < N; ++I) {
    const std::size_t Rel = R.next(S.Edb.size());
    const EdbSpec &Spec = S.Edb[Rel];
    const bool Retract = !S.InsertOnly && !Spec.InsertOnly &&
                         !State[Rel].empty() && R.next(100) < 40;
    DynTuple Tuple(Spec.Arity);
    if (Retract && R.next(100) < 85) {
      // Retract a present tuple (85% of retractions hit).
      auto It = State[Rel].begin();
      std::advance(It, R.next(State[Rel].size()));
      Tuple = *It;
    } else {
      for (std::size_t Col = 0; Col < Spec.Arity; ++Col)
        Tuple[Col] = static_cast<RamDomain>(R.next(Spec.Domain));
    }
    if (Retract)
      State[Rel].erase(Tuple);
    else
      State[Rel].insert(Tuple);
    Ops.push_back({Rel, std::move(Tuple), Retract});
  }
  return Ops;
}

/// Net EDB contents after a prefix of the stream.
using EdbState = std::vector<std::set<DynTuple>>;

void applyToState(EdbState &State, const std::vector<Op> &Ops,
                  std::size_t Begin, std::size_t End) {
  for (std::size_t I = Begin; I < End; ++I) {
    if (Ops[I].Retract)
      State[Ops[I].Rel].erase(Ops[I].Tuple);
    else
      State[Ops[I].Rel].insert(Ops[I].Tuple);
  }
}

/// Packs one slice of the stream into a MixedBatch (order-preserving: the
/// Maintainer's retract-then-insert semantics match applyToState because
/// makeStream never retracts a tuple it inserted earlier in the same
/// slice... which it can; so the batch keeps per-relation op order by
/// splitting into per-op single-tuple groups when orders interleave).
inc::MixedBatch makeBatch(const Subject &S, const std::vector<Op> &Ops,
                          std::size_t Begin, std::size_t End) {
  // Maintainer semantics are retract-first-then-insert per batch; the
  // stream's semantics are strictly sequential. Reduce the slice to its
  // net effect (last op per tuple wins), which both agree on.
  std::vector<std::map<DynTuple, bool>> Net(S.Edb.size());
  for (std::size_t I = Begin; I < End; ++I)
    Net[Ops[I].Rel][Ops[I].Tuple] = Ops[I].Retract;
  inc::MixedBatch Batch;
  for (std::size_t Rel = 0; Rel < S.Edb.size(); ++Rel) {
    if (Net[Rel].empty())
      continue;
    inc::RelationOps RO;
    RO.Relation = S.Edb[Rel].Name;
    for (const auto &[Tuple, Retract] : Net[Rel])
      (Retract ? RO.Retracts : RO.Inserts).push_back(Tuple);
    Batch.push_back(std::move(RO));
  }
  return Batch;
}

/// One-shot oracle: fresh engine over the same program, net EDB inserted
/// (into the EDB shadow of an `.input` relation with clauses, where its
/// load would land), main program run from scratch.
std::unique_ptr<interp::Engine> runOracle(core::Program &Prog,
                                          const Subject &S,
                                          const EdbState &State) {
  interp::EngineOptions Opts;
  Opts.SuppressIo = true;
  auto Eng = Prog.makeEngine(Opts);
  for (std::size_t Rel = 0; Rel < S.Edb.size(); ++Rel) {
    const std::string &Edb = Prog.getRam().getMaintAux(S.Edb[Rel].Name)->Edb;
    Eng->insertTuples(Edb.empty() ? S.Edb[Rel].Name : Edb,
                      {State[Rel].begin(), State[Rel].end()});
  }
  Eng->run();
  return Eng;
}

const char *backendName(interp::Backend B) {
  switch (B) {
  case interp::Backend::StaticLambda:
    return "StaticLambda";
  case interp::Backend::StaticPlain:
    return "StaticPlain";
  case interp::Backend::DynamicAdapter:
    return "DynamicAdapter";
  case interp::Backend::Legacy:
    return "Legacy";
  }
  return "?";
}

void expectSameReport(const inc::MaintenanceReport &Want,
                      const inc::MaintenanceReport &Got,
                      const std::string &Where) {
  EXPECT_EQ(Want.Inserted, Got.Inserted) << Where;
  EXPECT_EQ(Want.Duplicates, Got.Duplicates) << Where;
  EXPECT_EQ(Want.Deleted, Got.Deleted) << Where;
  EXPECT_EQ(Want.Missing, Got.Missing) << Where;
  EXPECT_EQ(Want.ReevalStrata, Got.ReevalStrata) << Where;
  ASSERT_EQ(Want.Strata.size(), Got.Strata.size()) << Where;
  for (std::size_t I = 0; I < Want.Strata.size(); ++I) {
    const inc::StratumReport &A = Want.Strata[I];
    const inc::StratumReport &B = Got.Strata[I];
    EXPECT_EQ(A.Strategy, B.Strategy) << Where << " stratum " << I;
    EXPECT_EQ(A.Inserted, B.Inserted) << Where << " stratum " << I;
    EXPECT_EQ(A.Deleted, B.Deleted) << Where << " stratum " << I;
    EXPECT_EQ(A.Rederived, B.Rederived) << Where << " stratum " << I;
  }
}

/// Each declared relation's tuples.
using TupleSets = std::map<std::string, std::set<DynTuple>>;

TupleSets
contentsOf(const std::vector<std::string> &Names,
           const std::function<const interp::RelationWrapper *(
               const std::string &)> &Lookup) {
  TupleSets Out;
  for (const std::string &Name : Names) {
    const interp::RelationWrapper *Rel = Lookup(Name);
    EXPECT_NE(Rel, nullptr) << Name;
    if (!Rel)
      continue;
    std::set<DynTuple> &Rows = Out[Name];
    Rel->forEach([&](const RamDomain *Tuple) {
      Rows.emplace(Tuple, Tuple + Rel->getArity());
    });
  }
  return Out;
}

TupleSets tupleSetsOf(const interp::Engine &Eng,
                      const std::vector<std::string> &Relations) {
  return contentsOf(Relations, [&](const std::string &Name) {
    return Eng.getRelation(Name);
  });
}

std::vector<std::string> declaredRelations(const core::Program &Prog) {
  std::vector<std::string> Names;
  for (const auto &Decl : Prog.getAst().Relations)
    Names.push_back(Decl->getName());
  return Names;
}

void expectSameContents(const TupleSets &Want, const TupleSets &Got,
                        const std::string &Where) {
  for (const auto &[Name, Rows] : Want) {
    auto It = Got.find(Name);
    ASSERT_NE(It, Got.end()) << Where << " relation=" << Name;
    EXPECT_EQ(Rows, It->second) << Where << " relation=" << Name;
  }
}

std::set<DynTuple> minus(const std::set<DynTuple> &A,
                         const std::set<DynTuple> &B) {
  std::set<DynTuple> Out;
  std::set_difference(A.begin(), A.end(), B.begin(), B.end(),
                      std::inserter(Out, Out.end()));
  return Out;
}

/// Checks one batch's net change against the oracle: for every declared
/// relation the harvested insert and delete sets are disjoint and equal
/// NEW \ OLD and OLD \ NEW, and every stratum reports their sizes.
void expectNetChange(const ram::Program &Ram, const inc::ChangeSet &Changes,
                     const inc::MaintenanceReport &Report,
                     const TupleSets &Old, const TupleSets &New,
                     const std::string &Where) {
  // ChangeSet slots follow the maintained relations in program order.
  std::vector<const ram::Relation *> Slots;
  for (const auto &Rel : Ram.getRelations())
    if (Ram.getMaintAux(Rel->getName()))
      Slots.push_back(Rel.get());
  std::map<std::string, std::pair<std::set<DynTuple>, std::set<DynTuple>>>
      Harvested;
  std::set<std::string> Copied;
  for (const inc::ChangeSet::RelationDelta &D : Changes.Relations) {
    ASSERT_LT(D.Slot, Slots.size()) << Where;
    const ram::Relation &Rel = *Slots[D.Slot];
    if (D.CopyFrom) {
      Copied.insert(Rel.getName());
      continue;
    }
    auto Unpack = [&](const std::vector<RamDomain> &Flat,
                      std::set<DynTuple> &Out) {
      for (std::size_t I = 0; I < Flat.size(); I += Rel.getArity())
        Out.insert(DynTuple(Flat.begin() + I,
                            Flat.begin() + I + Rel.getArity()));
    };
    auto &[Ins, Del] = Harvested[Rel.getName()];
    Unpack(D.Inserted, Ins);
    Unpack(D.Deleted, Del);
  }
  for (const auto &[Rel, Tuples] : New) {
    const std::set<DynTuple> &Before = Old.at(Rel);
    if (Copied.count(Rel))
      continue;
    const auto &[Ins, Del] = Harvested[Rel];
    EXPECT_EQ(minus(Ins, Del), Ins)
        << Where << " relation=" << Rel << ": inserted and deleted at once";
    EXPECT_EQ(Ins, minus(Tuples, Before)) << Where << " relation=" << Rel;
    EXPECT_EQ(Del, minus(Before, Tuples)) << Where << " relation=" << Rel;
  }
  const auto &Strata = Ram.getMaintStrata();
  ASSERT_EQ(Strata.size(), Report.Strata.size()) << Where;
  for (std::size_t I = 0; I < Strata.size(); ++I) {
    std::size_t Inserted = 0, Deleted = 0;
    for (const std::string &Rel : Strata[I].Relations) {
      Inserted += minus(New.at(Rel), Old.at(Rel)).size();
      Deleted += minus(Old.at(Rel), New.at(Rel)).size();
    }
    EXPECT_EQ(Report.Strata[I].Inserted, Inserted)
        << Where << " stratum " << I;
    EXPECT_EQ(Report.Strata[I].Deleted, Deleted) << Where << " stratum " << I;
  }
}

void runSubject(const Subject &S, std::uint64_t Seed, std::size_t NumOps) {
  auto Prog = core::Program::fromSource(S.Source, nullptr, withMaint());
  ASSERT_NE(Prog, nullptr) << S.Name;
  ASSERT_TRUE(Prog->getRam().hasMaintenance()) << S.Name;

  const std::vector<Op> Ops = makeStream(S, Seed, NumOps);
  const std::vector<std::string> Relations = declaredRelations(*Prog);

  for (std::size_t K :
       {std::size_t(1), std::size_t(2), std::size_t(5), std::size_t(8)}) {
    // The StaticLambda -j1 reports, one per batch; it runs first.
    std::vector<inc::MaintenanceReport> Reference;
    for (interp::Backend B :
         {interp::Backend::StaticLambda, interp::Backend::StaticPlain,
          interp::Backend::DynamicAdapter, interp::Backend::Legacy}) {
      for (std::size_t J : {std::size_t(1), std::size_t(4)}) {
        const std::string Config = std::string(S.Name) + " " +
                                   backendName(B) + " k=" +
                                   std::to_string(K) + " j=" +
                                   std::to_string(J);
        interp::EngineOptions Opts;
        Opts.TheBackend = B;
        Opts.SuppressIo = true;
        Opts.NumThreads = J;
        auto Eng = Prog->makeEngine(Opts);
        Eng->run();
        inc::Maintainer Maint(Prog->getRam(), *Eng);
        Maint.bootstrap();
        // Replays every batch's change set and must stay equal to Eng.
        // (A session never observes a replayed
        // side before maintaining a batch on it, and a Reeval stratum
        // recomputes itself then, so only this check sees the replay of
        // an eqrel.)
        auto Replica = Prog->makeEngine(Opts);
        Replica->run();
        inc::Maintainer ReplicaMaint(Prog->getRam(), *Replica);
        ReplicaMaint.bootstrap();
        inc::ChangeSet Changes;
        const bool IsReference = Reference.empty();
        TupleSets Old = tupleSetsOf(*Eng, Relations);

        EdbState State(S.Edb.size());
        const std::size_t PerBatch = (NumOps + K - 1) / K;
        std::size_t BatchIndex = 0;
        for (std::size_t Begin = 0; Begin < NumOps;
             Begin += PerBatch, ++BatchIndex) {
          const std::size_t End = std::min(NumOps, Begin + PerBatch);
          inc::MixedBatch Batch = makeBatch(S, Ops, Begin, End);
          ASSERT_EQ(Maint.rejectReason(Batch), "") << Config;
          inc::MaintenanceReport Report = Maint.apply(Batch, &Changes);
          ReplicaMaint.replay(Changes);
          applyToState(State, Ops, Begin, End);
          const std::string Where =
              Config + " prefix=[0," + std::to_string(End) + ")";
          if (IsReference) {
            Reference.push_back(std::move(Report));
          } else {
            ASSERT_LT(BatchIndex, Reference.size()) << Where;
            expectSameReport(Reference[BatchIndex], Report, Where);
          }

          auto Oracle = runOracle(*Prog, S, State);
          for (const std::string &Rel : Relations)
            ASSERT_EQ(Eng->getTuples(Rel), Oracle->getTuples(Rel))
                << Where << " relation=" << Rel;
          TupleSets New = tupleSetsOf(*Oracle, Relations);
          expectNetChange(Prog->getRam(), Changes,
                          IsReference ? Reference.back() : Report, Old, New,
                          Where);
          Old = std::move(New);
          expectSameContents(tupleSetsOf(*Eng, Relations),
                             tupleSetsOf(*Replica, Relations),
                             Where + " replica");
        }
      }
    }
  }
}

void runSessionSubject(const Subject &S, std::uint64_t Seed,
                       std::size_t NumOps) {
  std::shared_ptr<core::Program> Prog =
      core::Program::fromSource(S.Source, nullptr, withMaint());
  ASSERT_NE(Prog, nullptr) << S.Name;
  ASSERT_TRUE(Prog->getRam().hasMaintenance()) << S.Name;

  const std::vector<Op> Ops = makeStream(S, Seed, NumOps);
  const std::vector<std::string> Compared = declaredRelations(*Prog);
  // The eqrel-derived relations must lose tuples somewhere in the stream
  // so the replay's copy-from-published path runs.
  std::vector<std::string> DerivedEqrels;
  for (const auto &Decl : Prog->getAst().Relations) {
    const std::string &Name = Decl->getName();
    if (Prog->getRam().findRelation(Name)->getStructure() ==
            ram::StructureKind::Eqrel &&
        std::none_of(S.Edb.begin(), S.Edb.end(),
                     [&](const EdbSpec &E) { return E.Name == Name; }))
      DerivedEqrels.push_back(Name);
  }

  constexpr std::size_t NumBatches = 8;
  const std::size_t PerBatch = (NumOps + NumBatches - 1) / NumBatches;
  for (interp::Backend B :
       {interp::Backend::StaticLambda, interp::Backend::StaticPlain,
        interp::Backend::DynamicAdapter, interp::Backend::Legacy}) {
    for (std::size_t J : {std::size_t(1), std::size_t(4)}) {
      const std::string Config = std::string(S.Name) + " session " +
                                 backendName(B) + " j=" + std::to_string(J);
      srv::SessionOptions Options;
      Options.Engine.TheBackend = B;
      Options.Engine.NumThreads = J;
      auto Session = srv::EngineSession::create(Prog, Options);
      ASSERT_NE(Session, nullptr) << Config;

      EdbState State(S.Edb.size());
      std::size_t EqrelShrinks = 0;
      TupleSets Previous;
      for (std::size_t Begin = 0, Index = 0; Begin < NumOps;
           Begin += PerBatch, ++Index) {
        const std::size_t End = std::min(NumOps, Begin + PerBatch);
        const srv::BatchResult R =
            Session->applyMixed(makeBatch(S, Ops, Begin, End));
        ASSERT_EQ(R.Error, "") << Config;
        applyToState(State, Ops, Begin, End);
        const std::string Where =
            Config + " prefix=[0," + std::to_string(End) + ")";

        auto Oracle = runOracle(*Prog, S, State);
        const TupleSets Want = tupleSetsOf(*Oracle, Compared);
        for (const std::string &Name : DerivedEqrels)
          if (Previous.count(Name) &&
              std::any_of(Previous.at(Name).begin(),
                          Previous.at(Name).end(), [&](const DynTuple &Row) {
                            return !Want.at(Name).count(Row);
                          }))
            ++EqrelShrinks;
        Previous = Want;

        TupleSets Got;
        {
          srv::Snapshot Published = Session->snapshot();
          Got = contentsOf(Compared, [&](const std::string &Name) {
            return Published.relation(Name);
          });
        }
        expectSameContents(Want, Got, Where);

        // One or two empty batches: each publishes the other side after it
        // replayed the previous change set, and the parity keeps the real
        // batches alternating between the sides. (No snapshot may be held
        // here: the second empty batch writes the side it would pin.)
        for (std::size_t Empty = 0; Empty <= Index % 2; ++Empty) {
          const srv::BatchResult E = Session->applyMixed(inc::MixedBatch{});
          ASSERT_EQ(E.Error, "") << Where;
          srv::Snapshot Replayed = Session->snapshot();
          ASSERT_EQ(Replayed.epoch(), R.Epoch + Empty + 1) << Where;
          expectSameContents(
              Got,
              contentsOf(Compared,
                         [&](const std::string &Name) {
                           return Replayed.relation(Name);
                         }),
              Where + " empty batch " + std::to_string(Empty + 1));
        }
      }
      if (!DerivedEqrels.empty())
        EXPECT_GT(EqrelShrinks, 0u)
            << Config << ": the stream never split an equivalence class";
    }
  }
}

//===----------------------------------------------------------------------===//
// Subjects
//===----------------------------------------------------------------------===//

// 1. Non-recursive DRed: joins and unions with shared derivations (a
// tuple derived several ways must survive until its last derivation dies).
const Subject JoinSubject = {
    "join",
    ".decl a(x:number, y:number)\n"
    ".decl b(x:number, y:number)\n"
    ".decl r(x:number, y:number)\n"
    ".decl s(x:number)\n"
    "r(x, z) :- a(x, y), b(y, z).\n"
    "r(x, y) :- a(x, y), a(y, x).\n"
    "s(x) :- r(x, _).\n",
    {{"a", 2, 6}, {"b", 2, 6}},
};

// 2. Non-recursive DRed with stratified negation: deletion of b can
// derive c, and insertion of b can delete c.
const Subject NegationSubject = {
    "negation",
    ".decl a(x:number)\n"
    ".decl b(x:number)\n"
    ".decl c(x:number)\n"
    ".decl d(x:number)\n"
    "c(x) :- a(x), !b(x).\n"
    "d(x) :- c(x), !b(x).\n",
    {{"a", 1, 12}, {"b", 1, 12}},
};

// 3. DRed: transitive closure, the canonical over-delete/rederive case
// (alternative paths must survive a deleted edge).
const Subject TcSubject = {
    "tc",
    ".decl edge(a:number, b:number)\n"
    ".decl path(a:number, b:number)\n"
    "path(x, y) :- edge(x, y).\n"
    "path(x, z) :- path(x, y), edge(y, z).\n",
    {{"edge", 2, 7}},
};

// 4. Recursive DRed below a negation: the recursive stratum's deltas
// cross the negation into the stratum above.
const Subject TcNegSubject = {
    "tc-negation",
    ".decl edge(a:number, b:number)\n"
    ".decl node(a:number)\n"
    ".decl path(a:number, b:number)\n"
    ".decl unreachable(a:number, b:number)\n"
    "path(x, y) :- edge(x, y).\n"
    "path(x, z) :- path(x, y), edge(y, z).\n"
    "unreachable(x, y) :- node(x), node(y), !path(x, y).\n",
    {{"edge", 2, 6}, {"node", 1, 6}},
};

// 5. Doop-like mutual recursion: two relations in one SCC plus constants
// and a non-recursive consumer.
const Subject DoopSubject = {
    "dooplike",
    ".decl new(v:number, o:number)\n"
    ".decl assign(d:number, s:number)\n"
    ".decl load(d:number, s:number)\n"
    ".decl store(d:number, s:number)\n"
    ".decl vpt(v:number, o:number)\n"
    ".decl heap(o:number, p:number)\n"
    ".decl query(v:number)\n"
    "vpt(v, o) :- new(v, o).\n"
    "vpt(d, o) :- assign(d, s), vpt(s, o).\n"
    "heap(o, p) :- store(d, s), vpt(d, o), vpt(s, p).\n"
    "vpt(d, p) :- load(d, s), vpt(s, o), heap(o, p).\n"
    "query(v) :- vpt(v, o), new(_, o).\n",
    {{"new", 2, 5}, {"assign", 2, 5}, {"load", 2, 5}, {"store", 2, 5}},
};

// 6. Aggregates: scoped Reeval fallback for the aggregate stratum, DRed
// for the stratum above it.
const Subject AggregateSubject = {
    "aggregate",
    ".decl item(k:number, v:number)\n"
    ".decl total(s:number)\n"
    ".decl big(s:number)\n"
    "total(s) :- s = sum v : { item(_, v) }.\n"
    "big(s) :- total(s), s > 10.\n",
    {{"item", 2, 9}},
};

// 7. Equivalence relation derived from an ordinary EDB: the eqrel stratum
// re-evaluates, and edge retractions must shrink the closure.
const Subject EqrelSubject = {
    "eqrel",
    ".decl link(a:number, b:number)\n"
    ".decl same(a:number, b:number) eqrel\n"
    ".decl rep(a:number)\n"
    "same(x, y) :- link(x, y).\n"
    "rep(x) :- same(x, _).\n",
    {{"link", 2, 8}},
};

// 8. Wildcard under negation: losing one b(x, _) tuple need not make
// !b(x, _) true, so the deletion seed carries a NOT b guard.
const Subject WildcardNegSubject = {
    "wildcard-negation",
    ".decl a(x:number)\n"
    ".decl b(x:number, y:number)\n"
    ".decl c(x:number)\n"
    "c(x) :- a(x), !b(x, _).\n",
    {{"a", 1, 10}, {"b", 2, 10}},
};

// 9. Functors and constraints in non-recursive rules (typed arguments
// flow through the synthesized versions).
const Subject FunctorSubject = {
    "functor",
    ".decl a(x:number, y:number)\n"
    ".decl r(x:number, y:number)\n"
    ".decl t(x:number)\n"
    "r(x, y + 1) :- a(x, y), x < 4.\n"
    "t(x * 2) :- r(x, y), y != 0.\n",
    {{"a", 2, 8}},
};

// 10. DRed's exit-clause prune: the recursive stratum {r, q} has an
// inline fact, a head-functor exit clause, an exit clause with a
// constraint, and cycles through e and through q, so candidates are kept
// by every kind of exit clause while cyclic-only support must still go.
const Subject ExitPruneSubject = {
    "exit-prune",
    ".decl a(x:number, y:number)\n"
    ".decl e(x:number, y:number)\n"
    ".decl b(x:number)\n"
    ".decl r(x:number, y:number)\n"
    ".decl q(x:number)\n"
    "r(0, 0).\n"
    "r(x + 1, y) :- a(x, y).\n"
    "r(x, z) :- r(x, y), e(y, z).\n"
    "r(y, y) :- q(y).\n"
    "q(y) :- r(_, y), b(y).\n"
    "q(x) :- b(x), x < 2.\n",
    {{"a", 2, 6}, {"e", 2, 6}, {"b", 1, 6}},
};

// 11. `.input` relations that also have clauses, lifted into EDB shadows:
// e has an inline fact, a rule into it and recursion through it with p
// (the copy clause an exit clause); c is a non-recursive stratum whose
// inserted facts must survive the loss of their derivation from b.
const Subject InputDerivedSubject = {
    "input-derived",
    ".decl a(x:number, y:number)\n"
    ".decl b(x:number)\n"
    ".decl e(x:number, y:number)\n"
    ".input e\n"
    ".decl p(x:number, y:number)\n"
    ".decl c(x:number)\n"
    ".input c\n"
    ".decl d(x:number)\n"
    "e(0, 1).\n"
    "e(x, y) :- a(x, y), x < y.\n"
    "p(x, y) :- e(x, y).\n"
    "p(x, z) :- p(x, y), e(y, z).\n"
    "e(y, x) :- p(x, y), b(x).\n"
    "c(x) :- b(x).\n"
    "d(x) :- c(x), !b(x).\n",
    {{"a", 2, 6}, {"b", 1, 6}, {"e", 2, 6, true}, {"c", 1, 6, true}},
};

// 12. DRed's prune through exit unfoldings: the SCC {e, p} unfolds e
// atoms through e's inline fact, its exit clause with a constraint and a
// negation, and the lifted copy clause (e is an .input relation), but
// not through its head-functor exit clause; p's exit body has a
// wildcard, and p(x, x) :- e(_, x) matches a wildcard against exit
// heads. A non-recursive consumer negates p.
const Subject UnfoldSubject = {
    "unfold",
    ".decl a(x:number, y:number)\n"
    ".decl b(x:number)\n"
    ".decl n(x:number)\n"
    ".decl e(x:number, y:number)\n"
    ".input e\n"
    ".decl p(x:number, y:number)\n"
    ".decl t(x:number)\n"
    "e(0, 1).\n"
    "e(x + 1, y) :- a(x, y), x < 3.\n"
    "e(x, y) :- a(y, x), x < y, !n(y).\n"
    "e(y, x) :- p(x, y), b(x).\n"
    "p(x, y) :- a(x, y), a(y, _).\n"
    "p(x, z) :- p(x, y), e(y, z).\n"
    "p(x, x) :- e(_, x), b(x).\n"
    "t(x) :- b(x), !p(x, x).\n",
    {{"a", 2, 5}, {"b", 1, 5}, {"n", 1, 5}, {"e", 2, 5, true}},
};

// 13. A DRed stratum that over-deletes a tuple, fails to rederive it and
// re-inserts it in one batch, below a DRed stratum that negates it: the
// tuple must be in neither delta, or q derives from !r what r still has
// (seed 12's stream does that on both legs when the deltas overlap).
const Subject ReinsertSubject = {
    "reinsert",
    ".decl a(x:number)\n"
    ".decl e(x:number, y:number)\n"
    ".decl c(x:number)\n"
    ".decl f(x:number, y:number)\n"
    ".decl r(x:number)\n"
    ".decl q(x:number)\n"
    "r(x) :- a(x).\n"
    "r(y) :- r(x), e(x, y).\n"
    "q(x) :- c(x), !r(x).\n"
    "q(y) :- q(x), f(x, y).\n",
    {{"a", 1, 5}, {"e", 2, 5}, {"c", 1, 5}, {"f", 2, 5}},
};

TEST(MaintenanceDifferential, Join) { runSubject(JoinSubject, 11, 120); }
TEST(MaintenanceDifferential, Negation) {
  runSubject(NegationSubject, 22, 120);
}
TEST(MaintenanceDifferential, TransitiveClosure) {
  runSubject(TcSubject, 33, 120);
}
TEST(MaintenanceDifferential, TcUnderNegation) {
  runSubject(TcNegSubject, 44, 100);
}
TEST(MaintenanceDifferential, DoopLike) { runSubject(DoopSubject, 55, 100); }
TEST(MaintenanceDifferential, Aggregate) {
  runSubject(AggregateSubject, 66, 120);
}
TEST(MaintenanceDifferential, Eqrel) { runSubject(EqrelSubject, 77, 100); }
TEST(MaintenanceDifferential, WildcardNegation) {
  runSubject(WildcardNegSubject, 88, 120);
}
TEST(MaintenanceDifferential, Functor) {
  runSubject(FunctorSubject, 99, 120);
}

TEST(MaintenanceDifferential, ExitPrune) {
  runSubject(ExitPruneSubject, 111, 120);
}
TEST(MaintenanceDifferential, InputDerived) {
  runSubject(InputDerivedSubject, 133, 120);
}
TEST(MaintenanceDifferential, Unfold) {
  runSubject(UnfoldSubject, 144, 120);
}
TEST(MaintenanceDifferential, Reinsert) {
  runSubject(ReinsertSubject, 12, 120);
}

// Different seeds shift which tuples collide; a second pass over the two
// structurally hardest subjects.
TEST(MaintenanceDifferential, TcReseeded) { runSubject(TcSubject, 123, 140); }
TEST(MaintenanceDifferential, DoopReseeded) {
  runSubject(DoopSubject, 321, 90);
}

// The session leg: every subject's stream through the left-right session.
TEST(MaintenanceDifferentialSession, Join) {
  runSessionSubject(JoinSubject, 11, 120);
}
TEST(MaintenanceDifferentialSession, Negation) {
  runSessionSubject(NegationSubject, 22, 120);
}
TEST(MaintenanceDifferentialSession, TransitiveClosure) {
  runSessionSubject(TcSubject, 33, 120);
}
TEST(MaintenanceDifferentialSession, TcUnderNegation) {
  runSessionSubject(TcNegSubject, 44, 100);
}
TEST(MaintenanceDifferentialSession, DoopLike) {
  runSessionSubject(DoopSubject, 55, 100);
}
TEST(MaintenanceDifferentialSession, Aggregate) {
  runSessionSubject(AggregateSubject, 66, 120);
}
TEST(MaintenanceDifferentialSession, Eqrel) {
  runSessionSubject(EqrelSubject, 77, 100);
}
TEST(MaintenanceDifferentialSession, WildcardNegation) {
  runSessionSubject(WildcardNegSubject, 88, 120);
}
TEST(MaintenanceDifferentialSession, Functor) {
  runSessionSubject(FunctorSubject, 99, 120);
}
TEST(MaintenanceDifferentialSession, ExitPrune) {
  runSessionSubject(ExitPruneSubject, 111, 120);
}
TEST(MaintenanceDifferentialSession, InputDerived) {
  runSessionSubject(InputDerivedSubject, 133, 120);
}
TEST(MaintenanceDifferentialSession, Unfold) {
  runSessionSubject(UnfoldSubject, 144, 120);
}
TEST(MaintenanceDifferentialSession, Reinsert) {
  runSessionSubject(ReinsertSubject, 12, 120);
}

} // namespace
