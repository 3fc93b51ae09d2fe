//===- tests/inc/MaintPlanTest.cpp - Maintenance plan classification ----------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the translator's maintenance plan: per-stratum strategy
/// classification (DRed / scoped Reeval), aux-relation naming, the
/// loop-free shape and exact deletions of a non-recursive stratum,
/// the plan shapes of the classes that once had none (rule-free programs,
/// `$`, `.input` relations with clauses), the guarantee that
/// negation-only programs never fall back to re-evaluation, DRed's prune
/// through exit clauses and exit unfoldings (what it keeps, what it must
/// still delete, and that each check stops at its first witness), the
/// telescoped over-deletion seeds, DRed's disjoint net deltas, and the
/// plan of each version: it opens with its driving atom, and the RAM
/// passes fold and merge it like main.
///
//===----------------------------------------------------------------------===//

#include "inc/Maintainer.h"

#include "core/Program.h"
#include "ram/RamPrinter.h"

#include <gtest/gtest.h>

#include <map>

using namespace stird;

namespace {

core::CompileOptions withMaint() {
  core::CompileOptions Options;
  Options.EmitMaintenance = true;
  return Options;
}

using Strategy = ram::Program::MaintStrategy;

/// Strategy of the stratum defining \p Rel, or nullopt.
const ram::Program::MaintStratum *stratumOf(const ram::Program &Ram,
                                            const std::string &Rel) {
  for (const auto &MS : Ram.getMaintStrata())
    for (const std::string &Name : MS.Relations)
      if (Name == Rel)
        return &MS;
  return nullptr;
}

TEST(MaintPlan, DefaultCompileHasNoMaintenance) {
  auto Prog = core::Program::fromSource(
      ".decl a(x:number)\n.decl b(x:number)\nb(x) :- a(x).");
  ASSERT_NE(Prog, nullptr);
  EXPECT_FALSE(Prog->getRam().hasMaintenance());
  EXPECT_EQ(Prog->getRam().getMaintAux("a"), nullptr);
}

TEST(MaintPlan, NonRecursiveStratumIsLoopFreeDRed) {
  auto Prog = core::Program::fromSource(
      ".decl a(x:number, y:number)\n.decl r(x:number)\n"
      "r(x) :- a(x, _).",
      nullptr, withMaint());
  ASSERT_NE(Prog, nullptr);
  const ram::Program::MaintStratum *MS = stratumOf(Prog->getRam(), "r");
  ASSERT_NE(MS, nullptr);
  EXPECT_EQ(MS->Strategy, Strategy::DRed);
  ASSERT_NE(MS->Stmt, nullptr);
  const ram::Program::MaintAux *Aux = Prog->getRam().getMaintAux("r");
  ASSERT_NE(Aux, nullptr);
  EXPECT_EQ(Aux->Ins, "delta_ins_r");
  EXPECT_EQ(Aux->Del, "delta_del_r");
  EXPECT_EQ(Aux->Rederive, "rederive_r");
  // EDB relations carry their staging deltas and nothing else.
  const ram::Program::MaintAux *EdbAux = Prog->getRam().getMaintAux("a");
  ASSERT_NE(EdbAux, nullptr);
  EXPECT_EQ(EdbAux->Ins, "delta_ins_a");
  EXPECT_TRUE(EdbAux->Rederive.empty());
  // No clause reads r, so no frontier can feed another round: the
  // stratum's statement has no fixpoint loop, and the plan declares no
  // store beside the relations and their deltas.
  const std::string Stmt = ram::print(*MS->Stmt);
  EXPECT_EQ(Stmt.find("LOOP"), std::string::npos) << Stmt;
  for (const auto &Rel : Prog->getRam().getRelations())
    for (const char *Prefix : {"cnt_", "cadd_", "cdec_"})
      EXPECT_NE(Rel->getName().rfind(Prefix, 0), 0u) << Rel->getName();
}

TEST(MaintPlan, RecursiveStratumUsesDRed) {
  auto Prog = core::Program::fromSource(
      ".decl edge(a:number, b:number)\n.decl path(a:number, b:number)\n"
      "path(x, y) :- edge(x, y).\n"
      "path(x, z) :- path(x, y), edge(y, z).\n",
      nullptr, withMaint());
  ASSERT_NE(Prog, nullptr);
  const ram::Program::MaintStratum *MS = stratumOf(Prog->getRam(), "path");
  ASSERT_NE(MS, nullptr);
  EXPECT_EQ(MS->Strategy, Strategy::DRed);
  const ram::Program::MaintAux *Aux = Prog->getRam().getMaintAux("path");
  ASSERT_NE(Aux, nullptr);
  EXPECT_EQ(Aux->Rederive, "rederive_path");
  ASSERT_NE(MS->Stmt, nullptr);
  EXPECT_NE(ram::print(*MS->Stmt).find("LOOP"), std::string::npos);
}

TEST(MaintPlan, NegationOnlyProgramNeverFallsBack) {
  // The acceptance bar: stratified negation alone must be maintained
  // precisely — no Reeval stratum.
  auto Prog = core::Program::fromSource(
      ".decl a(x:number)\n.decl b(x:number)\n.decl c(x:number)\n"
      ".decl d(x:number)\n"
      "c(x) :- a(x), !b(x).\n"
      "d(x) :- c(x), !a(x).\n",
      nullptr, withMaint());
  ASSERT_NE(Prog, nullptr);
  ASSERT_TRUE(Prog->getRam().hasMaintenance());
  for (const auto &MS : Prog->getRam().getMaintStrata())
    EXPECT_NE(MS.Strategy, Strategy::Reeval)
        << "negation-only stratum fell back: " << MS.FallbackReason;
}

TEST(MaintPlan, AggregateStratumFallsBackScoped) {
  auto Prog = core::Program::fromSource(
      ".decl item(k:number, v:number)\n.decl total(s:number)\n"
      ".decl big(s:number)\n"
      "total(s) :- s = sum v : { item(_, v) }.\n"
      "big(s) :- total(s), s > 10.\n",
      nullptr, withMaint());
  ASSERT_NE(Prog, nullptr);
  ASSERT_TRUE(Prog->getRam().hasMaintenance());
  const ram::Program::MaintStratum *Total =
      stratumOf(Prog->getRam(), "total");
  ASSERT_NE(Total, nullptr);
  EXPECT_EQ(Total->Strategy, Strategy::Reeval);
  EXPECT_FALSE(Total->FallbackReason.empty());
  EXPECT_LT(Total->MainBegin, Total->MainEnd);
  // The stratum above the aggregate is still maintained from deltas.
  const ram::Program::MaintStratum *Big = stratumOf(Prog->getRam(), "big");
  ASSERT_NE(Big, nullptr);
  EXPECT_EQ(Big->Strategy, Strategy::DRed);
}

TEST(MaintPlan, EqrelDependencyFallsBackScoped) {
  auto Prog = core::Program::fromSource(
      ".decl link(a:number, b:number)\n"
      ".decl same(a:number, b:number) eqrel\n"
      ".decl rep(a:number)\n"
      "same(x, y) :- link(x, y).\n"
      "rep(x) :- same(x, _).\n",
      nullptr, withMaint());
  ASSERT_NE(Prog, nullptr);
  const ram::Program::MaintStratum *Same = stratumOf(Prog->getRam(), "same");
  ASSERT_NE(Same, nullptr);
  EXPECT_EQ(Same->Strategy, Strategy::Reeval);
  // rep reads the eqrel: conservative Reeval too (union-find deltas are
  // not enumerable as tuple deltas).
  const ram::Program::MaintStratum *Rep = stratumOf(Prog->getRam(), "rep");
  ASSERT_NE(Rep, nullptr);
  EXPECT_EQ(Rep->Strategy, Strategy::Reeval);
}

TEST(MaintPlan, RuleFreeProgramHasPrologueOnlyPlan) {
  auto Prog = core::Program::fromSource(".decl a(x:number)\n", nullptr,
                                        withMaint());
  ASSERT_NE(Prog, nullptr);
  EXPECT_TRUE(Prog->getRam().hasMaintenance());
  EXPECT_TRUE(Prog->getRam().getMaintStrata().empty());
  ASSERT_NE(Prog->getRam().getMaintAux("a"), nullptr);
  EXPECT_NE(Prog->getRam().getMaintPrologue(), nullptr);
}

TEST(MaintPlan, CounterStratumIsReeval) {
  auto Prog = core::Program::fromSource(
      ".decl a(x:number, y:number)\n.decl b(x:number)\n"
      ".decl c(x:number)\n"
      "a($, x) :- b(x).\n"
      "c(x) :- a(x, _).\n",
      nullptr, withMaint());
  ASSERT_NE(Prog, nullptr);
  ASSERT_TRUE(Prog->getRam().hasMaintenance());
  const ram::Program::MaintStratum *A = stratumOf(Prog->getRam(), "a");
  ASSERT_NE(A, nullptr);
  EXPECT_EQ(A->Strategy, Strategy::Reeval);
  EXPECT_NE(A->FallbackReason.find("`$`"), std::string::npos)
      << A->FallbackReason;
  EXPECT_LT(A->MainBegin, A->MainEnd);
  // The stratum above keeps its own strategy and consumes the Reeval diff.
  const ram::Program::MaintStratum *C = stratumOf(Prog->getRam(), "c");
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->Strategy, Strategy::DRed);
}

TEST(MaintPlan, InputDerivedRelationGetsEdbShadow) {
  auto Prog = core::Program::fromSource(
      ".decl a(x:number)\n.decl b(x:number)\n.input b\n"
      "b(x) :- a(x).\n"
      "b(x) :- b(y), a(x), x < y.\n",
      nullptr, withMaint());
  ASSERT_NE(Prog, nullptr);
  const ram::Program &Ram = Prog->getRam();
  ASSERT_TRUE(Ram.hasMaintenance());
  // b loads into its hidden shadow, which reads b's file and is itself a
  // clause-less EDB relation with staging deltas.
  const ram::Program::MaintAux *B = Ram.getMaintAux("b");
  ASSERT_NE(B, nullptr);
  EXPECT_EQ(B->Edb, "b@edb");
  const ram::Relation *Shadow = Ram.findRelation("b@edb");
  ASSERT_NE(Shadow, nullptr);
  EXPECT_TRUE(Shadow->isInput());
  EXPECT_EQ(Shadow->getInputPath(), "b.facts");
  EXPECT_FALSE(Ram.findRelation("b")->isInput());
  const ram::Program::MaintAux *ShadowAux = Ram.getMaintAux("b@edb");
  ASSERT_NE(ShadowAux, nullptr);
  EXPECT_EQ(ShadowAux->Ins, "delta_ins_b@edb");
  EXPECT_TRUE(ShadowAux->Edb.empty());
  EXPECT_EQ(stratumOf(Ram, "b@edb"), nullptr);
  // b is an ordinary recursive (DRed) relation, and the copy clause is
  // one of its exit clauses: the prune checks it in the [keep] version.
  const ram::Program::MaintStratum *MS = stratumOf(Ram, "b");
  ASSERT_NE(MS, nullptr);
  EXPECT_EQ(MS->Strategy, Strategy::DRed);
  const std::string Dump = Prog->dumpRam();
  EXPECT_NE(Dump.find("b(x0) :- new_b(x0), b@edb(x0). [keep]"),
            std::string::npos)
      << Dump;
  // One-shot RAM never mentions the shadow.
  auto OneShot = core::Program::fromSource(
      ".decl a(x:number)\n.decl b(x:number)\n.input b\n"
      "b(x) :- a(x).\n"
      "b(x) :- b(y), a(x), x < y.\n");
  ASSERT_NE(OneShot, nullptr);
  EXPECT_EQ(OneShot->dumpRam().find("@edb"), std::string::npos);
}

TEST(MaintPlan, WildcardUnderNegationSelectsDRed) {
  auto Prog = core::Program::fromSource(
      ".decl a(x:number)\n.decl b(x:number, y:number)\n.decl c(x:number)\n"
      "c(x) :- a(x), !b(x, _).",
      nullptr, withMaint());
  ASSERT_NE(Prog, nullptr);
  const ram::Program::MaintStratum *MS = stratumOf(Prog->getRam(), "c");
  ASSERT_NE(MS, nullptr);
  EXPECT_EQ(MS->Strategy, Strategy::DRed);
}

TEST(MaintPlan, MaintainerRejectsBadBatches) {
  auto Prog = core::Program::fromSource(
      ".decl link(a:number, b:number)\n"
      ".decl same(a:number, b:number) eqrel\n"
      ".decl derived(x:number)\n"
      "same(x, y) :- link(x, y).\n"
      "derived(x) :- link(x, _).\n",
      nullptr, withMaint());
  ASSERT_NE(Prog, nullptr);
  interp::EngineOptions Opts;
  Opts.SuppressIo = true;
  auto Eng = Prog->makeEngine(Opts);
  Eng->run();
  inc::Maintainer Maint(Prog->getRam(), *Eng);

  inc::MixedBatch DerivedTarget{{"derived", {{1}}, {}}};
  EXPECT_NE(Maint.rejectReason(DerivedTarget), "");
  inc::MixedBatch EqrelRetract{{"same", {}, {{1, 2}}}};
  EXPECT_NE(Maint.rejectReason(EqrelRetract), "");
  inc::MixedBatch Unknown{{"nosuch", {{1}}, {}}};
  EXPECT_NE(Maint.rejectReason(Unknown), "");
  inc::MixedBatch ArityMismatch{{"link", {{1}}, {}}};
  EXPECT_NE(Maint.rejectReason(ArityMismatch), "");
  inc::MixedBatch Fine{{"link", {{1, 2}}, {{3, 4}}}};
  EXPECT_EQ(Maint.rejectReason(Fine), "");
}

TEST(MaintPlan, ReportCountsNetEdbChanges) {
  auto Prog = core::Program::fromSource(
      ".decl a(x:number)\n.decl b(x:number)\nb(x) :- a(x).", nullptr,
      withMaint());
  ASSERT_NE(Prog, nullptr);
  interp::EngineOptions Opts;
  Opts.SuppressIo = true;
  auto Eng = Prog->makeEngine(Opts);
  Eng->insertTuples("a", {{1}, {2}});
  Eng->run();
  inc::Maintainer Maint(Prog->getRam(), *Eng);
  Maint.bootstrap();

  // Insert {2 (dup), 3 (new)}, retract {1 (hit), 9 (miss)}.
  inc::MixedBatch Batch{{"a", {{2}, {3}}, {{1}, {9}}}};
  ASSERT_EQ(Maint.rejectReason(Batch), "");
  inc::MaintenanceReport Report = Maint.apply(Batch);
  EXPECT_EQ(Report.Inserted, 1u);
  EXPECT_EQ(Report.Duplicates, 1u);
  EXPECT_EQ(Report.Deleted, 1u);
  EXPECT_EQ(Report.Missing, 1u);
  EXPECT_EQ(Report.ReevalStrata, 0u);
  EXPECT_EQ(Eng->getTuples("b"),
            (std::vector<DynTuple>{{2}, {3}}));
}

/// The report of the maintained stratum defining \p Rel (Report.Strata
/// follows the plan's stratum order).
const inc::StratumReport &reportOf(const inc::MaintenanceReport &Report,
                                   const ram::Program &Ram,
                                   const std::string &Rel) {
  const ram::Program::MaintStratum *MS = stratumOf(Ram, Rel);
  EXPECT_NE(MS, nullptr) << Rel;
  // at() throws (failing the test) when Rel has no maintained stratum.
  return Report.Strata.at(MS ? MS - Ram.getMaintStrata().data()
                             : Report.Strata.size());
}

/// Builds an engine over \p Prog with \p Facts inserted and run.
std::unique_ptr<interp::Engine>
runWith(core::Program &Prog,
        const std::map<std::string, std::vector<DynTuple>> &Facts) {
  interp::EngineOptions Opts;
  Opts.SuppressIo = true;
  auto Eng = Prog.makeEngine(Opts);
  for (const auto &[Name, Tuples] : Facts)
    Eng->insertTuples(Name, Tuples);
  Eng->run();
  return Eng;
}

TEST(MaintPlan, NonRecursiveStratumDeletesExactly) {
  // r(1) has three derivations: a(1, 2) and a(1, 3) with b absent, and
  // c(1). The batch takes two of them away and every derivation of r(2).
  // Every clause of r is an exit clause, so the prune keeps r(1) as a
  // candidate an exit clause still derives: nothing is over-deleted, and
  // only r(2) leaves.
  auto Prog = core::Program::fromSource(
      ".decl a(x:number, y:number)\n.decl b(y:number)\n"
      ".decl c(x:number)\n.decl r(x:number)\n"
      "r(x) :- a(x, y), !b(y).\n"
      "r(x) :- c(x).\n",
      nullptr, withMaint());
  ASSERT_NE(Prog, nullptr);
  std::map<std::string, std::vector<DynTuple>> Facts = {
      {"a", {{1, 2}, {1, 3}, {2, 5}}}, {"c", {{1}, {2}}}};
  auto Eng = runWith(*Prog, Facts);
  ASSERT_EQ(Eng->getTuples("r"), (std::vector<DynTuple>{{1}, {2}}));
  inc::Maintainer Maint(Prog->getRam(), *Eng);
  Maint.bootstrap();

  inc::MaintenanceReport Report = Maint.apply(inc::MixedBatch{
      {"a", {}, {{1, 2}}}, {"b", {{5}}, {}}, {"c", {}, {{1}, {2}}}});
  const inc::StratumReport &SR = reportOf(Report, Prog->getRam(), "r");
  EXPECT_EQ(SR.Strategy, Strategy::DRed);
  EXPECT_EQ(SR.Deleted, 1u);
  EXPECT_EQ(SR.Inserted, 0u);
  EXPECT_EQ(SR.Rederived, 0u);

  Facts = {{"a", {{1, 3}, {2, 5}}}, {"b", {{5}}}};
  auto Fresh = runWith(*Prog, Facts);
  EXPECT_EQ(Eng->getTuples("r"), (std::vector<DynTuple>{{1}}));
  EXPECT_EQ(Eng->getTuples("r"), Fresh->getTuples("r"));
}

TEST(MaintPlan, OverDeleteSeedsTelescope) {
  // Phase A seeds one group of [odel] versions per first deleted literal
  // D: the literals before D still hold in NEW, and only those after it
  // are split into NEW and delta. Three literals give 4 + 2 + 1 = 7
  // versions, not the 3 * 4 = 12 of splitting every other literal.
  auto Prog = core::Program::fromSource(
      ".decl a(x:number)\n.decl b(x:number)\n.decl c(x:number)\n"
      ".decl r(x:number)\n"
      "r(x) :- a(x), b(x), !c(x).\n",
      nullptr, withMaint());
  ASSERT_NE(Prog, nullptr);
  const ram::Program::MaintStratum *MS = stratumOf(Prog->getRam(), "r");
  ASSERT_NE(MS, nullptr);
  ASSERT_NE(MS->Stmt, nullptr);
  const std::string Stmt = ram::print(*MS->Stmt);
  std::size_t Versions = 0;
  for (std::size_t At = Stmt.find("[odel]"); At != std::string::npos;
       At = Stmt.find("[odel]", At + 1))
    ++Versions;
  EXPECT_EQ(Versions, 7u) << Stmt;

  // One batch takes r(1)'s first and second literals at once, r(2)'s
  // second alone and r(3)'s negation, and makes r(4) derivable.
  auto Eng = runWith(*Prog, {{"a", {{1}, {2}, {3}, {4}}},
                             {"b", {{1}, {2}, {3}, {4}}},
                             {"c", {{4}}}});
  ASSERT_EQ(Eng->getTuples("r"), (std::vector<DynTuple>{{1}, {2}, {3}}));
  inc::Maintainer Maint(Prog->getRam(), *Eng);
  Maint.bootstrap();
  inc::MaintenanceReport Report = Maint.apply(inc::MixedBatch{
      {"a", {}, {{1}}}, {"b", {}, {{1}, {2}}}, {"c", {{3}}, {{4}}}});
  EXPECT_EQ(Eng->getTuples("r"), (std::vector<DynTuple>{{4}}));
  const inc::StratumReport &SR = reportOf(Report, Prog->getRam(), "r");
  EXPECT_EQ(SR.Deleted, 3u);
  EXPECT_EQ(SR.Inserted, 1u);
}

TEST(MaintPlan, ExitDerivableCandidatesAreNotOverDeleted) {
  // A doop-style clique: every relation saturated over {0, 1, 2}, so vpt
  // and heap are full and all mutually supporting.
  auto Prog = core::Program::fromSource(
      ".decl new(v:number, o:number)\n"
      ".decl assign(d:number, s:number)\n"
      ".decl load(d:number, s:number)\n"
      ".decl store(d:number, s:number)\n"
      ".decl vpt(v:number, o:number)\n"
      ".decl heap(o:number, p:number)\n"
      "vpt(v, o) :- new(v, o).\n"
      "vpt(d, o) :- assign(d, s), vpt(s, o).\n"
      "heap(o, p) :- store(d, s), vpt(d, o), vpt(s, p).\n"
      "vpt(d, p) :- load(d, s), vpt(s, o), heap(o, p).\n",
      nullptr, withMaint());
  ASSERT_NE(Prog, nullptr);
  std::vector<DynTuple> All;
  for (RamDomain X = 0; X < 3; ++X)
    for (RamDomain Y = 0; Y < 3; ++Y)
      All.push_back({X, Y});
  std::map<std::string, std::vector<DynTuple>> Facts = {
      {"new", All}, {"assign", All}, {"load", All}, {"store", All}};
  auto Eng = runWith(*Prog, Facts);
  ASSERT_EQ(Eng->getTuples("vpt").size(), 9u);
  ASSERT_EQ(Eng->getTuples("heap").size(), 9u);
  inc::Maintainer Maint(Prog->getRam(), *Eng);
  Maint.bootstrap();

  // Retracting store(0, 0) makes heap(o, p) a candidate for every
  // vpt(0, o), vpt(0, p): all 9 heap tuples. heap has no exit clause, but
  // unfolding its clause's vpt atoms through vpt's exit clause gives
  // heap(o, p) :- store(d, s), new(d, o), new(s, p), which another store
  // still satisfies: every candidate is kept, so none is over-deleted,
  // none reaches vpt through load, and none is rederived.
  inc::MixedBatch Retract{{"store", {}, {{0, 0}}}};
  inc::MaintenanceReport Report = Maint.apply(Retract);
  const inc::StratumReport &SR = reportOf(Report, Prog->getRam(), "vpt");
  EXPECT_EQ(SR.Strategy, Strategy::DRed);
  EXPECT_EQ(SR.Rederived, 0u);
  EXPECT_EQ(SR.Deleted, 0u);
  EXPECT_EQ(SR.Inserted, 0u);

  Facts["store"].erase(Facts["store"].begin());
  auto Fresh = runWith(*Prog, Facts);
  for (const char *Rel : {"vpt", "heap"})
    EXPECT_EQ(Eng->getTuples(Rel), Fresh->getTuples(Rel)) << Rel;
}

/// Sum of the dispatches of the rule versions whose label ends in \p Suffix.
std::uint64_t dispatchesOf(const interp::Engine &Eng,
                           const std::string &Suffix) {
  std::uint64_t Sum = 0;
  for (const interp::RuleProfile &Rule : Eng.getProfiler().rules())
    if (Rule.Label.size() >= Suffix.size() &&
        Rule.Label.compare(Rule.Label.size() - Suffix.size(), Suffix.size(),
                           Suffix) == 0)
      Sum += Rule.Dispatches;
  return Sum;
}

/// The [keep] dispatches per heap candidate when store(0, 0) is retracted
/// from the doop-style clique saturated over {0, .., Width - 1}.
double keepDispatchesPerCandidate(RamDomain Width) {
  auto Prog = core::Program::fromSource(
      ".decl new(v:number, o:number)\n"
      ".decl assign(d:number, s:number)\n"
      ".decl load(d:number, s:number)\n"
      ".decl store(d:number, s:number)\n"
      ".decl vpt(v:number, o:number)\n"
      ".decl heap(o:number, p:number)\n"
      "vpt(v, o) :- new(v, o).\n"
      "vpt(d, o) :- assign(d, s), vpt(s, o).\n"
      "heap(o, p) :- store(d, s), vpt(d, o), vpt(s, p).\n"
      "vpt(d, p) :- load(d, s), vpt(s, o), heap(o, p).\n",
      nullptr, withMaint());
  EXPECT_NE(Prog, nullptr);
  if (!Prog)
    return 0;
  std::vector<DynTuple> All;
  for (RamDomain X = 0; X < Width; ++X)
    for (RamDomain Y = 0; Y < Width; ++Y)
      All.push_back({X, Y});
  auto Eng = runWith(*Prog, {{"new", All},
                             {"assign", All},
                             {"load", All},
                             {"store", All}});
  inc::Maintainer Maint(Prog->getRam(), *Eng);
  Maint.bootstrap();
  inc::MaintenanceReport Report =
      Maint.apply(inc::MixedBatch{{"store", {}, {{0, 0}}}});
  const inc::StratumReport &SR = reportOf(Report, Prog->getRam(), "heap");
  EXPECT_EQ(SR.Deleted + SR.Rederived, 0u) << "width " << Width;
  return static_cast<double>(dispatchesOf(*Eng, " [keep]")) /
         static_cast<double>(Width * Width);
}

TEST(MaintPlan, KeepChecksStopAtTheFirstWitness) {
  // Every heap(o, p) candidate has Width^2 witnesses (d, s). Enumerating
  // them all grows the per-candidate work about 4x from width 4 to width
  // 8; stopping at the first leaves one lookup per remaining d, about 2x.
  const double Narrow = keepDispatchesPerCandidate(4);
  const double Wide = keepDispatchesPerCandidate(8);
  ASSERT_GT(Narrow, 0.0);
  EXPECT_LT(Wide, 3.0 * Narrow) << Narrow << " -> " << Wide;
}

TEST(MaintPlan, UnfoldingNeverReadsTheScc) {
  // q(x) :- p(x) is q's SCC clause; unfolding p(x) :- q(x), a(x) through
  // it would check p(1) against p(1) itself, still un-erased, and keep it.
  // Only q's exit clause q(x) :- b(x) may stand in for q(x).
  auto Prog = core::Program::fromSource(
      ".decl a(x:number)\n.decl b(x:number)\n.decl c(x:number)\n"
      ".decl p(x:number)\n.decl q(x:number)\n"
      "p(x) :- c(x).\n"
      "p(x) :- q(x), a(x).\n"
      "q(x) :- b(x).\n"
      "q(x) :- p(x).\n",
      nullptr, withMaint());
  ASSERT_NE(Prog, nullptr);
  auto Eng = runWith(*Prog, {{"a", {{1}}}, {"b", {{1}}}, {"c", {{1}}}});
  ASSERT_EQ(Eng->getTuples("p"), (std::vector<DynTuple>{{1}}));
  inc::Maintainer Maint(Prog->getRam(), *Eng);
  Maint.bootstrap();

  inc::MaintenanceReport Report =
      Maint.apply(inc::MixedBatch{{"b", {}, {{1}}}, {"c", {}, {{1}}}});
  EXPECT_TRUE(Eng->getTuples("p").empty());
  EXPECT_TRUE(Eng->getTuples("q").empty());
  const inc::StratumReport &SR = reportOf(Report, Prog->getRam(), "p");
  EXPECT_EQ(SR.Deleted, 2u);
  EXPECT_EQ(SR.Rederived, 0u);
}

TEST(MaintPlan, ReinsertedTupleIsNeitherDeletedNorInserted) {
  // Retracting a(1) over-deletes r(1) and r(2); r(2) is not rederived
  // from the survivors but re-inserted through the new a(4), e(4, 3),
  // e(3, 2). It is in r before and after the batch, so it must be in
  // neither delta: q's DRed stratum would read it as a deletion of r,
  // seed !r(2) and derive q(2) from c(2).
  auto Prog = core::Program::fromSource(
      ".decl a(x:number)\n.decl e(x:number, y:number)\n"
      ".decl c(x:number)\n.decl f(x:number, y:number)\n"
      ".decl r(x:number)\n.decl q(x:number)\n"
      "r(x) :- a(x).\n"
      "r(y) :- r(x), e(x, y).\n"
      "q(x) :- c(x), !r(x).\n"
      "q(y) :- q(x), f(x, y).\n",
      nullptr, withMaint());
  ASSERT_NE(Prog, nullptr);
  auto Eng = runWith(*Prog, {{"a", {{1}}},
                             {"e", {{1, 2}, {4, 3}, {3, 2}}},
                             {"c", {{2}}}});
  ASSERT_EQ(Eng->getTuples("r"), (std::vector<DynTuple>{{1}, {2}}));
  inc::Maintainer Maint(Prog->getRam(), *Eng);
  Maint.bootstrap();

  inc::MaintenanceReport Report =
      Maint.apply(inc::MixedBatch{{"a", {{4}}, {{1}}}});
  EXPECT_EQ(Eng->getTuples("r"),
            (std::vector<DynTuple>{{2}, {3}, {4}}));
  EXPECT_TRUE(Eng->getTuples("q").empty());
  const inc::StratumReport &SR = reportOf(Report, Prog->getRam(), "r");
  EXPECT_EQ(SR.Inserted, 2u);
  EXPECT_EQ(SR.Deleted, 1u);
  EXPECT_EQ(SR.Rederived, 1u);
}

TEST(MaintPlan, CyclicOnlySupportIsStillDeleted) {
  // p(1) and p(2) support each other through the e cycle; b(1) is their
  // only exit. Checking the recursive clause over the un-erased state
  // would keep p(1) (from p(2), e(2, 1)), which is no longer derivable.
  auto Prog = core::Program::fromSource(
      ".decl b(x:number)\n.decl e(x:number, y:number)\n.decl p(x:number)\n"
      "p(x) :- b(x).\n"
      "p(y) :- p(x), e(x, y).\n",
      nullptr, withMaint());
  ASSERT_NE(Prog, nullptr);
  auto Eng = runWith(*Prog, {{"b", {{1}}}, {"e", {{1, 2}, {2, 1}}}});
  ASSERT_EQ(Eng->getTuples("p"), (std::vector<DynTuple>{{1}, {2}}));
  inc::Maintainer Maint(Prog->getRam(), *Eng);
  Maint.bootstrap();

  inc::MixedBatch Retract{{"b", {}, {{1}}}};
  inc::MaintenanceReport Report = Maint.apply(Retract);
  EXPECT_TRUE(Eng->getTuples("p").empty());
  const inc::StratumReport &SR = reportOf(Report, Prog->getRam(), "p");
  EXPECT_EQ(SR.Deleted, 2u);
  EXPECT_EQ(SR.Rederived, 0u);
}

/// Every rule timer under \p Stmt.
void collectTimers(const ram::Statement &Stmt,
                   std::vector<const ram::LogTimer *> &Out) {
  switch (Stmt.getKind()) {
  case ram::Statement::Kind::Sequence:
    for (const auto &Child :
         static_cast<const ram::Sequence &>(Stmt).getStatements())
      collectTimers(*Child, Out);
    return;
  case ram::Statement::Kind::Loop:
    collectTimers(static_cast<const ram::Loop &>(Stmt).getBody(), Out);
    return;
  case ram::Statement::Kind::LogTimer:
    Out.push_back(static_cast<const ram::LogTimer *>(&Stmt));
    return;
  default:
    return;
  }
}

TEST(MaintPlan, VersionsOpenWithTheirDrivingAtom) {
  // Max-bound alone would open most versions with c(_, 1), its constant
  // column outranking the unbound delta pivot or candidate; each batch
  // would then range over c instead of its own change.
  auto Prog = core::Program::fromSource(
      ".decl a(x:number, y:number)\n.decl b(x:number, y:number)\n"
      ".decl c(x:number, y:number)\n.decl out(x:number, y:number)\n"
      "out(x, w) :- a(x, y), b(y, w), c(w, 1).",
      nullptr, withMaint());
  ASSERT_NE(Prog, nullptr);
  std::vector<const ram::LogTimer *> Timers;
  for (const auto &MS : Prog->getRam().getMaintStrata())
    if (MS.Stmt)
      collectTimers(*MS.Stmt, Timers);
  ASSERT_EQ(Timers.size(), 11u);
  for (const ram::LogTimer *Timer : Timers) {
    const std::vector<int> &Order = Timer->getInfo().AtomOrder;
    ASSERT_FALSE(Order.empty()) << Timer->getLabel();
    EXPECT_EQ(Order[0], 0) << Timer->getLabel();
    EXPECT_EQ(Timer->getInfo().Sips, "max-bound") << Timer->getLabel();
  }
}

TEST(MaintPlan, MaintenanceStatementsAreFoldedAndMerged) {
  // The RAM passes rewrite every maintenance statement as they rewrite
  // main: 1 + 9 folds, and the constraints and the semi-naive guard merge
  // into the one filter a fused condition runs.
  auto Prog = core::Program::fromSource(
      ".decl a(x:number, y:number)\n.decl r(x:number, y:number)\n"
      "r(x, y) :- a(x, y), x < y, y < 1 + 9.",
      nullptr, withMaint());
  ASSERT_NE(Prog, nullptr);
  const std::string Dump = Prog->dumpRam();
  EXPECT_EQ(Dump.find("add(1, 9)"), std::string::npos) << Dump;
  const std::size_t Ins =
      Dump.find("TIMER \"r(x, y) :- delta_ins_a(x, y), x < y, y < (1 + 9). "
                "[ins]\"\n");
  ASSERT_NE(Ins, std::string::npos) << Dump;
  const std::string Version =
      Dump.substr(Ins, Dump.find("END TIMER", Ins) - Ins);
  EXPECT_NE(Version.find("      FOR t0 IN delta_ins_a\n"
                         "        IF (((t0.0 < t0.1) AND (t0.1 < 10)) AND "
                         "(NOT ((t0.0,t0.1) IN r)))\n"
                         "          INSERT (t0.0,t0.1) INTO new_r\n"),
            std::string::npos)
      << Version;
}

} // namespace
