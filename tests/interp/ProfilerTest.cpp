//===- tests/interp/ProfilerTest.cpp - Per-rule profiler tests -----------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Direct tests of the Profiler accumulator plus engine-level checks that
/// per-rule timing/iteration counts are recorded for every rule version,
/// and that profiling composes with multi-threaded evaluation: dispatch
/// counts are merged at the partition barrier inside the timed window, so
/// the per-rule numbers must come out identical at every thread count.
/// A resident engine's maintained batches add to the rule totals but keep
/// no iteration samples, so the profiler stays bounded however many
/// batches it serves.
///
//===----------------------------------------------------------------------===//

#include "core/Program.h"
#include "inc/Maintainer.h"
#include "interp/Profiler.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace stird;
using namespace stird::interp;

namespace {

TEST(ProfilerTest, RegisterRuleIsIdempotent) {
  Profiler Prof;
  std::size_t A = Prof.registerRule("r(x) :- e(x).");
  std::size_t B = Prof.registerRule("s(x) :- f(x).");
  EXPECT_NE(A, B);
  EXPECT_EQ(Prof.registerRule("r(x) :- e(x)."), A);
  EXPECT_EQ(Prof.registerRule("s(x) :- f(x)."), B);
  EXPECT_EQ(Prof.rules().size(), 2u);
}

TEST(ProfilerTest, RecordAccumulates) {
  Profiler Prof;
  std::size_t Id = Prof.registerRule("rule");
  Prof.record(Id, 0.5, 100, 7);
  Prof.record(Id, 0.25, 40, 2);
  Prof.record(Id, 0.25, 2);
  std::optional<RuleProfile> Profile = Prof.find("rule");
  ASSERT_TRUE(Profile.has_value());
  EXPECT_EQ(Profile->Label, "rule");
  EXPECT_DOUBLE_EQ(Profile->Seconds, 1.0);
  EXPECT_EQ(Profile->Invocations, 3u);
  EXPECT_EQ(Profile->Dispatches, 142u);
  EXPECT_EQ(Profile->DeltaTuples, 9u);
  // Every execution is kept as an iteration sample, in order.
  ASSERT_EQ(Profile->Iterations.size(), 3u);
  EXPECT_EQ(Profile->Iterations[0].DeltaTuples, 7u);
  EXPECT_EQ(Profile->Iterations[1].DeltaTuples, 2u);
  EXPECT_EQ(Profile->Iterations[2].DeltaTuples, 0u);
}

TEST(ProfilerTest, SamplingOffKeepsTotalsOnly) {
  Profiler Prof;
  std::size_t Id = Prof.registerRule("rule");
  Prof.record(Id, 0.5, 100, 7);
  Prof.setSampling(false);
  Prof.record(Id, 0.25, 40, 2);
  Prof.setSampling(true);
  std::optional<RuleProfile> Profile = Prof.find("rule");
  ASSERT_TRUE(Profile.has_value());
  EXPECT_EQ(Profile->Invocations, 2u);
  EXPECT_EQ(Profile->Dispatches, 140u);
  EXPECT_EQ(Profile->DeltaTuples, 9u);
  ASSERT_EQ(Profile->Iterations.size(), 1u);
  EXPECT_EQ(Profile->Iterations[0].DeltaTuples, 7u);
}

TEST(ProfilerTest, FindUnknownLabelIsEmpty) {
  Profiler Prof;
  Prof.registerRule("known");
  EXPECT_FALSE(Prof.find("unknown").has_value());
  ASSERT_TRUE(Prof.find("known").has_value());
  EXPECT_EQ(Prof.find("known")->Invocations, 0u);
}

TEST(ProfilerTest, RegisterRuleKeepsMetadata) {
  Profiler Prof;
  RuleMeta Meta;
  Meta.Stratum = 2;
  Meta.Relation = "path";
  Meta.Version = 1;
  Meta.Recursive = true;
  std::size_t Id = Prof.registerRule("path... [v1]", Meta);
  // Re-registration keeps the first metadata.
  EXPECT_EQ(Prof.registerRule("path... [v1]"), Id);
  std::optional<RuleProfile> Profile = Prof.find("path... [v1]");
  ASSERT_TRUE(Profile.has_value());
  EXPECT_EQ(Profile->Meta.Stratum, 2);
  EXPECT_EQ(Profile->Meta.Relation, "path");
  EXPECT_EQ(Profile->Meta.Version, 1);
  EXPECT_TRUE(Profile->Meta.Recursive);
}

constexpr const char *TcSource = R"(
.decl edge(a:number, b:number)
.decl path(a:number, b:number)
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
)";

std::vector<DynTuple> chainEdges(RamDomain Length) {
  std::vector<DynTuple> Edges;
  for (RamDomain I = 0; I < Length; ++I)
    Edges.push_back({I, I + 1});
  return Edges;
}

/// Runs the transitive closure and returns the engine's profiler output as
/// (label, invocations, dispatches) — Seconds is wall time and excluded.
std::vector<std::tuple<std::string, std::uint64_t, std::uint64_t>>
runProfiled(std::size_t NumThreads, Backend TheBackend) {
  auto Prog = core::Program::fromSource(TcSource);
  EXPECT_NE(Prog, nullptr);
  if (!Prog)
    return {};
  EngineOptions Options;
  Options.TheBackend = TheBackend;
  Options.NumThreads = NumThreads;
  auto Engine = Prog->makeEngine(Options);
  Engine->insertTuples("edge", chainEdges(40));
  Engine->run();
  std::vector<std::tuple<std::string, std::uint64_t, std::uint64_t>> Result;
  for (const RuleProfile &Rule : Engine->getProfiler().rules())
    Result.emplace_back(Rule.Label, Rule.Invocations, Rule.Dispatches);
  return Result;
}

TEST(ProfilerTest, EngineRecordsEveryRuleVersion) {
  auto Profiles = runProfiled(1, Backend::StaticLambda);
  ASSERT_FALSE(Profiles.empty());
  bool SawBase = false, SawRecursive = false;
  for (const auto &[Label, Invocations, Dispatches] : Profiles) {
    EXPECT_GT(Invocations, 0u) << Label;
    EXPECT_GT(Dispatches, 0u) << Label;
    if (Label.find("path(x, y) :- edge(x, y)") != std::string::npos)
      SawBase = true;
    if (Label.find("path(x, z) :- path(x, y), edge(y, z)") !=
        std::string::npos) {
      SawRecursive = true;
      // Semi-naive evaluation re-times the recursive rule every loop
      // iteration: a 40-chain needs many rounds to reach the fixpoint.
      EXPECT_GT(Invocations, 10u);
    }
  }
  EXPECT_TRUE(SawBase);
  EXPECT_TRUE(SawRecursive);
}

TEST(ProfilerTest, MaintainedBatchesKeepNoSamples) {
  core::CompileOptions Compile;
  Compile.EmitMaintenance = true;
  auto Prog = core::Program::fromSource(TcSource, nullptr, Compile);
  ASSERT_NE(Prog, nullptr);
  EngineOptions Options;
  Options.SuppressIo = true;
  auto Engine = Prog->makeEngine(Options);
  Engine->insertTuples("edge", chainEdges(8));
  Engine->run();
  auto Totals = [&] {
    std::pair<std::uint64_t, std::uint64_t> Sum;
    for (const RuleProfile &Rule : Engine->getProfiler().rules()) {
      Sum.first += Rule.Invocations;
      Sum.second += Rule.Iterations.size();
    }
    return Sum;
  };
  const auto [RunInvocations, RunSamples] = Totals();
  ASSERT_GT(RunSamples, 0u);
  EXPECT_EQ(RunInvocations, RunSamples);

  // Each batch cuts the chain in the middle or mends it again.
  inc::Maintainer Maint(Prog->getRam(), *Engine);
  Maint.bootstrap();
  for (int I = 0; I < 1000; ++I) {
    inc::MixedBatch Batch{{"edge", {}, {}}};
    (I % 2 ? Batch[0].Inserts : Batch[0].Retracts).push_back({4, 5});
    Maint.apply(Batch);
  }
  const auto [Invocations, Samples] = Totals();
  EXPECT_GT(Invocations, RunInvocations + 1000);
  EXPECT_EQ(Samples, RunSamples);
}

TEST(ProfilerTest, ConcurrentRecordLosesNothing) {
  // record() must be safe to call from parallel sections; Invocations,
  // Dispatches and Seconds are guarded by one mutex, so concurrent
  // recording loses no updates and tears none. Run under ThreadSanitizer
  // via the `sanitize` ctest label.
  Profiler Prof;
  const std::size_t IdA = Prof.registerRule("rule-a");
  const std::size_t IdB = Prof.registerRule("rule-b");
  constexpr int NumThreads = 4, PerThread = 2000;
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&Prof, IdA, IdB] {
      for (int I = 0; I < PerThread; ++I)
        Prof.record(I % 2 ? IdA : IdB, 0.001, 3);
    });
  for (auto &Thread : Threads)
    Thread.join();
  for (const std::size_t Id : {IdA, IdB}) {
    // rules() returns a snapshot copy; keep it alive past this expression.
    const RuleProfile Profile = Prof.rules()[Id];
    EXPECT_EQ(Profile.Invocations,
              static_cast<std::uint64_t>(NumThreads * PerThread / 2));
    EXPECT_EQ(Profile.Dispatches,
              static_cast<std::uint64_t>(NumThreads * PerThread / 2 * 3));
    EXPECT_NEAR(Profile.Seconds, NumThreads * PerThread / 2 * 0.001, 1e-6);
  }
}

TEST(ProfilerTest, SecondsAdvanceMonotonically) {
  Profiler Prof;
  std::size_t Id = Prof.registerRule("timed");
  Prof.record(Id, 0.0, 0);
  double After = Prof.rules()[Id].Seconds;
  Prof.record(Id, 0.125, 0);
  EXPECT_GT(Prof.rules()[Id].Seconds, After);
}

/// The profiling-under-threads contract: per-rule invocation and dispatch
/// counts must be identical at -j1, -j2 and -j4 on every backend, because
/// workers count dispatches into private counters merged at the barrier
/// (no torn updates, no lost counts) before LogTimer reads them.
TEST(ProfilerTest, CountsAreThreadCountInvariant) {
  for (Backend TheBackend :
       {Backend::StaticLambda, Backend::StaticPlain,
        Backend::DynamicAdapter, Backend::Legacy}) {
    auto Reference = runProfiled(1, TheBackend);
    ASSERT_FALSE(Reference.empty());
    for (std::size_t NumThreads : {2u, 4u})
      EXPECT_EQ(runProfiled(NumThreads, TheBackend), Reference)
          << "thread count " << NumThreads << " changed the profile";
  }
}

} // namespace
