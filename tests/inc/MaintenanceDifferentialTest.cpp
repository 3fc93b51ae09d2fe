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
/// {1, 2, 5}, the four backends and thread counts -j{1, 4}, so counting,
/// DRed and the scoped Reeval fallback are all exercised on every executor
/// under both sequential and parallel evaluation. Every batch's
/// MaintenanceReport must also equal the StaticLambda -j1 report: the
/// executor and thread count change how a batch runs, never what it did.
///
//===----------------------------------------------------------------------===//

#include "inc/Maintainer.h"

#include "core/Program.h"

#include <gtest/gtest.h>

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
    const bool Retract =
        !S.InsertOnly && !State[Rel].empty() && R.next(100) < 40;
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

/// One-shot oracle: fresh engine over the same program, net EDB inserted,
/// main program run from scratch.
std::unique_ptr<interp::Engine> runOracle(core::Program &Prog,
                                          const Subject &S,
                                          const EdbState &State) {
  interp::EngineOptions Opts;
  Opts.SuppressIo = true;
  auto Eng = Prog.makeEngine(Opts);
  for (std::size_t Rel = 0; Rel < S.Edb.size(); ++Rel)
    Eng->insertTuples(S.Edb[Rel].Name,
                      {State[Rel].begin(), State[Rel].end()});
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
  EXPECT_EQ(Want.Maintained, Got.Maintained) << Where;
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

void runSubject(const Subject &S, std::uint64_t Seed, std::size_t NumOps) {
  auto Prog = core::Program::fromSource(S.Source, nullptr, withMaint());
  ASSERT_NE(Prog, nullptr) << S.Name;
  ASSERT_TRUE(Prog->getRam().hasMaintenance())
      << S.Name << ": " << Prog->getRam().getMaintIneligibleReason();

  const std::vector<Op> Ops = makeStream(S, Seed, NumOps);
  std::vector<std::string> Relations;
  for (const auto &Decl : Prog->getAst().Relations)
    Relations.push_back(Decl->getName());

  for (std::size_t K : {std::size_t(1), std::size_t(2), std::size_t(5)}) {
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
        const bool IsReference = Reference.empty();

        EdbState State(S.Edb.size());
        const std::size_t PerBatch = (NumOps + K - 1) / K;
        std::size_t BatchIndex = 0;
        for (std::size_t Begin = 0; Begin < NumOps;
             Begin += PerBatch, ++BatchIndex) {
          const std::size_t End = std::min(NumOps, Begin + PerBatch);
          inc::MixedBatch Batch = makeBatch(S, Ops, Begin, End);
          ASSERT_EQ(Maint.rejectReason(Batch), "") << Config;
          inc::MaintenanceReport Report = Maint.apply(Batch);
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
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Subjects
//===----------------------------------------------------------------------===//

// 1. Counting: joins and unions with shared derivations (a tuple derived
// several ways must survive until its last derivation dies).
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

// 2. Counting with stratified negation: deletion of b can derive c, and
// insertion of b can delete c.
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

// 4. DRed below counting-with-negation: recursive stratum feeding a
// negated dependency (count-carrying deltas across the negation).
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

// 6. Aggregates: scoped Reeval fallback for the aggregate stratum, exact
// counting for the stratum above it.
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

// 8. Wildcard under negation: DRed on a non-recursive stratum (the
// counting trigger rewrite is multiplicity-unsound there).
const Subject WildcardNegSubject = {
    "wildcard-negation",
    ".decl a(x:number)\n"
    ".decl b(x:number, y:number)\n"
    ".decl c(x:number)\n"
    "c(x) :- a(x), !b(x, _).\n",
    {{"a", 1, 10}, {"b", 2, 10}},
};

// 9. Functors and constraints in counting rules (typed arguments flow
// through the synthesized versions).
const Subject FunctorSubject = {
    "functor",
    ".decl a(x:number, y:number)\n"
    ".decl r(x:number, y:number)\n"
    ".decl t(x:number)\n"
    "r(x, y + 1) :- a(x, y), x < 4.\n"
    "t(x * 2) :- r(x, y), y != 0.\n",
    {{"a", 2, 8}},
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

// Different seeds shift which tuples collide; a second pass over the two
// structurally hardest subjects.
TEST(MaintenanceDifferential, TcReseeded) { runSubject(TcSubject, 123, 140); }
TEST(MaintenanceDifferential, DoopReseeded) {
  runSubject(DoopSubject, 321, 90);
}

} // namespace
