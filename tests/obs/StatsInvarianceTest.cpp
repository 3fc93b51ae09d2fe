//===- tests/obs/StatsInvarianceTest.cpp - Counter thread-invariance -----------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Observability attribution under work-stealing: morsel and rule jobs
/// record into job-private StatsBlocks and delta samples that merge at the
/// job barrier, so every counter total must be identical no matter how many
/// threads ran or which thread executed (or stole) which morsel. The tests
/// run a skewed transitive closure — a hub vertex owning most edges, the
/// shape that maximizes stealing — at -j1 and -j8 (morsel size 1, so a
/// -j8 run really cuts hundreds of morsels) and demand equality of every
/// RelationStats field and every per-rule profile total on both executors
/// — after a one-shot run, and after a maintained mixed batch, which runs
/// through the same morsel and rule-job runners.
///
//===----------------------------------------------------------------------===//

#include "core/Program.h"
#include "inc/Maintainer.h"
#include "interp/Engine.h"
#include "obs/Stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace stird;
using namespace stird::interp;

namespace {

/// Skewed TC plus an independent same-stratum relation: `near` reads only
/// edge, so the generator may group its rule with path's as concurrent
/// jobs — covering the rule-job merge path as well as the morsel one.
constexpr const char *SkewedTcSource = R"(
.decl edge(a:number, b:number)
.decl path(a:number, b:number)
.decl near(a:number, b:number)
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
near(x, z) :- edge(x, y), edge(y, z).
)";

/// A finished run. The program must outlive the engine (the engine
/// references its RAM relations), so both ride together.
struct TcRun {
  std::unique_ptr<core::Program> Prog;
  std::unique_ptr<Engine> E;
};

TcRun runSkewedTc(Backend TheBackend, std::size_t NumThreads,
                  const core::CompileOptions &Compile = {}) {
  TcRun R;
  R.Prog = core::Program::fromSource(SkewedTcSource, nullptr, Compile);
  EXPECT_NE(R.Prog, nullptr);
  if (!R.Prog)
    return R;
  EngineOptions Options;
  Options.TheBackend = TheBackend;
  Options.NumThreads = NumThreads;
  Options.MorselSize = 1; // maximize morsel count and steal opportunities
  Options.EchoPrintSize = false;
  R.E = R.Prog->makeEngine(Options);
  std::vector<DynTuple> Edges;
  for (RamDomain I = 1; I <= 90; ++I)
    Edges.push_back({0, I}); // the hub owns ~90% of the edges
  for (RamDomain I = 1; I <= 10; ++I)
    Edges.push_back({I, I + 1});
  R.E->insertTuples("edge", Edges);
  R.E->run();
  return R;
}

/// Relation name -> counters, so the comparison is independent of StatsId
/// assignment order.
std::map<std::string, obs::RelationStats> statsByName(const Engine &E) {
  std::map<std::string, obs::RelationStats> Out;
  const obs::StatsBlock &Stats = E.getStats();
  const auto &Rels = E.getStatsRelations();
  for (std::size_t I = 0; I < Rels.size() && I < Stats.size(); ++I)
    Out[Rels[I]->getName()] = Stats[I];
  return Out;
}

void expectEqualStats(const std::string &Rel, const obs::RelationStats &A,
                      const obs::RelationStats &B) {
  EXPECT_EQ(A.Inserts, B.Inserts) << Rel;
  EXPECT_EQ(A.InsertsNew, B.InsertsNew) << Rel;
  EXPECT_EQ(A.Contains, B.Contains) << Rel;
  EXPECT_EQ(A.Scans, B.Scans) << Rel;
  EXPECT_EQ(A.ScanTuples, B.ScanTuples) << Rel;
  EXPECT_EQ(A.IndexScans, B.IndexScans) << Rel;
  EXPECT_EQ(A.IndexScanHits, B.IndexScanHits) << Rel;
  EXPECT_EQ(A.IndexScanTuples, B.IndexScanTuples) << Rel;
  EXPECT_EQ(A.Reorders, B.Reorders) << Rel;
  EXPECT_EQ(A.PeakSize, B.PeakSize) << Rel;
  // v2 access-pattern counters: classified once per search initiation on
  // the issuing thread, so they are exactly thread-count-invariant even
  // though the scans themselves fan out across morsels.
  EXPECT_EQ(A.PointLookups, B.PointLookups) << Rel;
  EXPECT_EQ(A.RangeScans, B.RangeScans) << Rel;
}

/// Same answers first — counter equality over diverged relations would be
/// meaningless — then every counter of every relation.
void expectSameAnswersAndStats(const Engine &Sequential,
                               const Engine &Parallel) {
  for (const char *Rel : {"path", "near"})
    EXPECT_EQ(Sequential.getTuples(Rel), Parallel.getTuples(Rel)) << Rel;
  const auto SeqStats = statsByName(Sequential);
  const auto ParStats = statsByName(Parallel);
  ASSERT_EQ(SeqStats.size(), ParStats.size());
  for (const auto &[Rel, A] : SeqStats) {
    ASSERT_TRUE(ParStats.count(Rel)) << Rel;
    expectEqualStats(Rel, A, ParStats.at(Rel));
  }
}

/// Delta samples merge to the same totals regardless of which thread
/// produced which tuples; wall time is the one legitimate variance.
void expectSameRuleProfiles(const Engine &Sequential,
                            const Engine &Parallel) {
  const auto SeqRules = Sequential.getProfiler().rules();
  ASSERT_FALSE(SeqRules.empty());
  for (const RuleProfile &Seq : SeqRules) {
    const std::optional<RuleProfile> Par =
        Parallel.getProfiler().find(Seq.Label);
    ASSERT_TRUE(Par.has_value()) << Seq.Label;
    EXPECT_EQ(Seq.Invocations, Par->Invocations) << Seq.Label;
    EXPECT_EQ(Seq.DeltaTuples, Par->DeltaTuples) << Seq.Label;
    EXPECT_EQ(Seq.Iterations.size(), Par->Iterations.size()) << Seq.Label;
    for (std::size_t I = 0;
         I < Seq.Iterations.size() && I < Par->Iterations.size(); ++I)
      EXPECT_EQ(Seq.Iterations[I].DeltaTuples, Par->Iterations[I].DeltaTuples)
          << Seq.Label << " iteration " << I;
  }
}

TEST(StatsInvarianceTest, CountersMatchAcrossThreadCounts) {
  for (Backend TheBackend :
       {Backend::DynamicAdapter, Backend::StaticLambda}) {
    const TcRun Seq = runSkewedTc(TheBackend, 1);
    const TcRun Par = runSkewedTc(TheBackend, 8);
    ASSERT_NE(Seq.E, nullptr);
    ASSERT_NE(Par.E, nullptr);
    expectSameAnswersAndStats(*Seq.E, *Par.E);

    // The workload actually exercised the counters being compared. The
    // recursive rule probes path with a bounded prefix (range scans) and
    // the counters never exceed the searches that initiated them.
    const auto SeqStats = statsByName(*Seq.E);
    EXPECT_GT(SeqStats.at("path").InsertsNew, 100u);
    EXPECT_GT(SeqStats.at("near").InsertsNew, 0u);
    EXPECT_GT(SeqStats.at("edge").RangeScans, 0u);
    for (const auto &[Rel, A] : SeqStats)
      EXPECT_LE(A.PointLookups + A.RangeScans, A.IndexScans + A.Contains)
          << Rel;
  }
}

TEST(StatsInvarianceTest, RuleProfilesMatchAcrossThreadCounts) {
  for (Backend TheBackend :
       {Backend::DynamicAdapter, Backend::StaticLambda}) {
    const TcRun SeqRun = runSkewedTc(TheBackend, 1);
    const TcRun ParRun = runSkewedTc(TheBackend, 8);
    ASSERT_NE(SeqRun.E, nullptr);
    ASSERT_NE(ParRun.E, nullptr);
    expectSameRuleProfiles(*SeqRun.E, *ParRun.E);
  }
}

TEST(StatsInvarianceTest, MaintainedBatchMatchesAcrossThreadCounts) {
  // A mixed batch on the skewed TC: retracting hub edges over-deletes most
  // of path, the inserted chain edges extend it, and the non-recursive
  // near loses and gains tuples.
  inc::MixedBatch Batch(1);
  Batch[0].Relation = "edge";
  for (RamDomain I = 1; I <= 30; ++I)
    Batch[0].Retracts.push_back({0, I});
  for (RamDomain I = 11; I <= 20; ++I)
    Batch[0].Inserts.push_back({I, I + 1});
  core::CompileOptions Compile;
  Compile.EmitMaintenance = true;
  for (Backend TheBackend :
       {Backend::DynamicAdapter, Backend::StaticLambda}) {
    TcRun Seq = runSkewedTc(TheBackend, 1, Compile);
    TcRun Par = runSkewedTc(TheBackend, 8, Compile);
    ASSERT_NE(Seq.E, nullptr);
    ASSERT_NE(Par.E, nullptr);
    inc::MaintenanceReport Reports[2];
    TcRun *Runs[2] = {&Seq, &Par};
    for (std::size_t I = 0; I < 2; ++I) {
      ASSERT_TRUE(Runs[I]->Prog->getRam().hasMaintenance());
      inc::Maintainer Maint(Runs[I]->Prog->getRam(), *Runs[I]->E);
      Maint.bootstrap();
      ASSERT_EQ(Maint.rejectReason(Batch), "");
      Reports[I] = Maint.apply(Batch);
    }
    EXPECT_EQ(Reports[0].Deleted, 30u);
    EXPECT_EQ(Reports[0].Inserted, 10u);
    expectSameAnswersAndStats(*Seq.E, *Par.E);
    expectSameRuleProfiles(*Seq.E, *Par.E);
  }
}

} // namespace
