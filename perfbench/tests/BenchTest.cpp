//===- perfbench/tests/BenchTest.cpp - Tests of the benchmark itself ----------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//

#include "Phases.h"

#include "obs/Json.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>

using namespace perfbench;

namespace {

std::vector<double> ramp(std::size_t N) {
  std::vector<double> V;
  for (std::size_t I = 0; I < N; ++I)
    V.push_back(static_cast<double>(N - I));
  return V;
}

TEST(PercentileTest, RefusesTailsWithFewerThanTenSamplesBeyond) {
  EXPECT_FALSE(percentile(ramp(999), 0.99));
  ASSERT_TRUE(percentile(ramp(1000), 0.99));
  EXPECT_EQ(*percentile(ramp(1000), 0.99), 990.0);
  EXPECT_FALSE(percentile(ramp(19), 0.5));
  ASSERT_TRUE(percentile(ramp(20), 0.5));
  EXPECT_EQ(*percentile(ramp(20), 0.5), 10.0);
  EXPECT_FALSE(percentile({}, 0.5));

  // A refused tail reports 0 and fails the run.
  RunResult R;
  EXPECT_EQ(tailMetric(R, "write_p99_ms", ramp(999), 0.99, "ms").Value, 0.0);
  EXPECT_EQ(R.Failed, 1u);
  const Metric M = tailMetric(R, "write_p99_ms", ramp(1000), 0.99, "ms");
  EXPECT_EQ(M.Value, 990.0);
  EXPECT_EQ(M.Samples, 1000u);
  EXPECT_EQ(R.Failed, 1u);
}

TEST(FailRatioTest, RefusalsAndWrongAnswersCountAsFailures) {
  // An "overloaded" refusal, an error reply and a wrong answer are all
  // rejected by the reply check, and each failure counts once.
  EXPECT_FALSE(queryReplyValid(
      R"({"ok":false,"error":"server overloaded","micros":1})", 3));
  EXPECT_FALSE(queryReplyValid(R"({"ok":false,"error":"unknown relation"})",
                               3));
  EXPECT_FALSE(queryReplyValid(
      R"({"ok":true,"tuples":[[1,2]],"count":2,"epoch":3})", 3));
  EXPECT_FALSE(queryReplyValid(
      R"({"ok":true,"tuples":[[1,2]],"count":1,"epoch":2})", 3));
  EXPECT_TRUE(queryReplyValid(
      R"({"ok":true,"tuples":[[1,2]],"count":1,"epoch":3})", 3));
  RunResult R;
  R.Attempted = 8;
  R.fail("refused");
  R.fail("wrong");
  EXPECT_EQ(R.Failed, 2u);
  EXPECT_DOUBLE_EQ(failRatio(R.Failed, R.Attempted), 0.25);
  EXPECT_DOUBLE_EQ(failRatio(0, 0), 0.0);
}

TEST(InputsTest, SameSeedSameInputsOtherSeedOtherInputs) {
  for (const std::string &Name : workloadNames()) {
    const Workload A = *makeWorkload(Name, 5), B = *makeWorkload(Name, 5),
                   C = *makeWorkload(Name, 6);
    ASSERT_EQ(A.OneShot.size(), B.OneShot.size());
    bool Differs = false;
    for (std::size_t I = 0; I < A.OneShot.size(); ++I) {
      EXPECT_EQ(A.OneShot[I].Source, B.OneShot[I].Source);
      EXPECT_EQ(A.OneShot[I].Facts, B.OneShot[I].Facts);
      Differs |= A.OneShot[I].Facts != C.OneShot[I].Facts;
    }
    EXPECT_TRUE(Differs) << Name;
    Rng RA(A.StreamSeed), RB(B.StreamSeed), RC(C.StreamSeed);
    EXPECT_EQ(initialEdb(A.Served, RA), initialEdb(B.Served, RB));
    EXPECT_NE(initialEdb(A.Served, RA), initialEdb(C.Served, RC)) << Name;
  }
  EXPECT_FALSE(makeWorkload("no-such-workload", 1));
}

TEST(InputsTest, DefaultSeedReproducesTheBenchSuite) {
  const Workload W = *makeWorkload("fig15-exec", DefaultSeed);
  const std::vector<stird::bench::Workload> Bench =
      stird::bench::allSuites();
  ASSERT_EQ(W.OneShot.size(), Bench.size());
  ASSERT_EQ(fig15ProgramNames().size(), Bench.size());
  for (std::size_t I = 0; I < Bench.size(); ++I) {
    EXPECT_EQ(W.OneShot[I].Name, Bench[I].Name);
    EXPECT_EQ(fig15ProgramNames()[I], Bench[I].Name);
    EXPECT_EQ(W.OneShot[I].Facts, Bench[I].Facts) << Bench[I].Name;
  }
}

TEST(TracerTest, SelfTimeSubtractsChildrenAndChildrenInheritRequestIds) {
  Tracer T(true);
  {
    Scope Outer(&T, "a.outer", 7);
    Scope Inner(&T, "b.inner");
  }
  ASSERT_EQ(T.spans().size(), 2u);
  EXPECT_EQ(T.spans()[1].Parent, 0);
  EXPECT_EQ(T.spans()[1].RequestId, 7u);
  const auto Self = T.selfSeconds();
  EXPECT_GE(Self.at("a.outer"), 0.0);
  EXPECT_TRUE(stird::obs::json::parse(T.chromeJson()).has_value());
  Tracer Off(false);
  { Scope S(&Off, "x.y"); }
  EXPECT_TRUE(Off.spans().empty());
}

/// The shortest run of \p Workload at \p Seed (its fewest passes and
/// batches) in a scratch work dir.
RunResult tinyRun(const std::string &Workload, std::uint64_t Seed,
                  bool Trace) {
  RunConfig C;
  C.Workload = Workload;
  C.Seed = Seed;
  C.Seconds = 0.01;
  C.Trace = Trace;
  C.WorkDir = "test-work"; // under the build directory the tests run in
  Tracer T(Trace);
  return runWorkload(C, T);
}

std::set<std::string>
names(const std::vector<std::pair<std::string, std::string>> &List) {
  std::set<std::string> Out;
  for (const auto &[Name, Unit] : List)
    Out.insert(Name);
  return Out;
}

template <typename Map> std::set<std::string> keys(const Map &M) {
  std::set<std::string> Out;
  for (const auto &[K, V] : M)
    Out.insert(K);
  return Out;
}

TEST(RunTest, ExactCountsRepeatAndSeedsKeepTheMetricNames) {
  const RunResult A = tinyRun("bigprog-compile", 3, true);
  const RunResult B = tinyRun("bigprog-compile", 3, true);
  const RunResult C = tinyRun("bigprog-compile", 4, true);
  for (const RunResult *R : {&A, &B, &C}) {
    EXPECT_EQ(R->Failed, 0u) << (R->Errors.empty() ? "" : R->Errors[0]);
    EXPECT_EQ(keys(R->PerLayer), names(perLayerNames()));
  }
  for (const char *Exact :
       {"interp.dispatches", "der.inserts", "der.point_lookups",
        "der.range_scans", "der.tuples_visited", "inc.reeval_strata",
        "inc.derived_changes", "inc.rederive_ratio"})
    EXPECT_EQ(A.PerLayer.at(Exact).Value, B.PerLayer.at(Exact).Value)
        << Exact;
  EXPECT_GT(A.PerLayer.at("interp.dispatches").Value, 0);

  // Even the shortest untraced run sends enough requests for its p99s.
  const RunResult Plain = tinyRun("bigprog-compile", 2, false);
  EXPECT_EQ(Plain.Failed, 0u)
      << (Plain.Errors.empty() ? "" : Plain.Errors[0]);
  EXPECT_EQ(keys(Plain.EndToEnd), names(endToEndNames()));
  for (const auto &[Name, M] : Plain.EndToEnd)
    EXPECT_GT(M.Value, 0) << Name;
}

TEST(SynthTest, AProgramWithoutBinaryIsAFailedOperation) {
  Workload W;
  W.OneShot.push_back({"broken", "not a datalog program", {}});
  RunResult R;
  EXPECT_FALSE(stiOverSynth(W, {"test-work/broken"}, {{"broken", 1.0}},
                            "test-work/synth", {}, R));
  EXPECT_EQ(R.Attempted, 1u);
  EXPECT_EQ(R.Failed, 1u);
}

TEST(ReferencesTest, CommittedReferencesCoverTheDefaultSeed) {
  const char *Path = std::getenv("PERFBENCH_REFS");
  if (!Path)
    GTEST_SKIP() << "PERFBENCH_REFS not set";
  const std::optional<References> Refs = readReferences(Path);
  ASSERT_TRUE(Refs);
  for (const std::string &Name : workloadNames()) {
    const Workload W = *makeWorkload(Name, DefaultSeed);
    for (const OneShotProgram &P : W.OneShot)
      EXPECT_TRUE(Refs->count(P.Name)) << P.Name;
  }
}

TEST(BenchmarkJsonTest, MirrorsTheMetricsAndWorkloads) {
  const char *Path = std::getenv("PERFBENCH_BENCHMARK_JSON");
  if (!Path)
    GTEST_SKIP() << "PERFBENCH_BENCHMARK_JSON not set";
  std::ifstream In(Path);
  std::stringstream Text;
  Text << In.rdbuf();
  const auto Doc = stird::obs::json::parse(Text.str());
  ASSERT_TRUE(Doc);
  auto listed = [&](const char *Key) {
    std::set<std::string> Out;
    for (const auto &Item : Doc->find(Key)->asArray())
      Out.insert(Item.find("name")->asString());
    return Out;
  };
  EXPECT_EQ(listed("end_to_end"), names(endToEndNames()));
  EXPECT_EQ(listed("per_layer"), names(perLayerNames()));
  // bigprog-compile runs on request but is not in the listed set.
  EXPECT_EQ(listed("workloads"),
            (std::set<std::string>{"fig15-exec", "serve-mixed"}));
  for (const std::string &Name : listed("workloads"))
    EXPECT_TRUE(makeWorkload(Name, DefaultSeed)) << Name;
}

} // namespace
