//===- tests/interp/OptimizationTest.cpp - STI optimization tests --------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Invariant 6 of DESIGN.md: none of the paper's optimizations may change
/// results — only dispatch counts and time. Each test runs the same program
/// with an optimization toggled and compares contents and counters.
///
//===----------------------------------------------------------------------===//

#include "core/Program.h"
#include "interp/Engine.h"
#include "support/ProgramGen.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace stird;
using namespace stird::interp;

namespace {

/// A program whose joins exercise non-identity index orders, constants,
/// tuple elements and arithmetic filters.
const char *JoinProgram = R"(
  .decl e(a:number, b:number)
  .decl f(a:number, b:number)
  .decl out(a:number, b:number)
  .decl tc(a:number, b:number)
  out(x, z) :- e(x, y), f(z, y), x + y * 2 < 60, z != 3.
  tc(x, y) :- e(x, y).
  tc(x, z) :- tc(x, y), e(y, z).
)";

std::vector<DynTuple> edges() {
  std::vector<DynTuple> Result;
  for (RamDomain I = 0; I < 30; ++I)
    Result.push_back({I, (I * 7) % 30});
  return Result;
}

struct RunResult {
  std::vector<DynTuple> Out;
  std::vector<DynTuple> Tc;
  std::uint64_t Dispatches;
};

RunResult runWith(EngineOptions Options) {
  std::vector<std::string> Errors;
  auto Prog = core::Program::fromSource(JoinProgram, &Errors);
  EXPECT_NE(Prog, nullptr) << (Errors.empty() ? "" : Errors[0]);
  auto E = Prog->makeEngine(Options);
  E->insertTuples("e", edges());
  E->insertTuples("f", edges());
  E->run();
  return {E->getTuples("out"), E->getTuples("tc"), E->getNumDispatches()};
}

TEST(OptimizationTest, SuperInstructionsPreserveResultsAndCutDispatches) {
  EngineOptions With;
  With.SuperInstructions = true;
  EngineOptions Without;
  Without.SuperInstructions = false;

  RunResult A = runWith(With);
  RunResult B = runWith(Without);
  EXPECT_EQ(A.Out, B.Out);
  EXPECT_EQ(A.Tc, B.Tc);
  // Folding constants/tuple-elements must eliminate dispatches (Fig 19).
  EXPECT_LT(A.Dispatches, B.Dispatches);
}

TEST(OptimizationTest, StaticReorderingPreservesResults) {
  EngineOptions With;
  With.StaticReordering = true;
  EngineOptions Without;
  Without.StaticReordering = false;

  RunResult A = runWith(With);
  RunResult B = runWith(Without);
  EXPECT_EQ(A.Out, B.Out);
  EXPECT_EQ(A.Tc, B.Tc);
}

TEST(OptimizationTest, FusedConditionsPreserveResultsAndCutDispatches) {
  EngineOptions With;
  With.FuseConditions = true;
  EngineOptions Without;
  Without.FuseConditions = false;

  RunResult A = runWith(With);
  RunResult B = runWith(Without);
  EXPECT_EQ(A.Out, B.Out);
  EXPECT_EQ(A.Tc, B.Tc);
  // The arithmetic filter collapses into one micro-program dispatch.
  EXPECT_LT(A.Dispatches, B.Dispatches);
}

/// Micro-operations over every fused condition of \p Source's default
/// tree.
std::size_t fusedMicroOps(const std::string &Source) {
  auto Prog = core::Program::fromSource(Source);
  const std::string Tree = Prog->makeEngine(EngineOptions{})->dumpTree();
  const std::string Marker = "FusedCondition [";
  std::size_t Ops = 0;
  for (std::size_t At = Tree.find(Marker); At != std::string::npos;
       At = Tree.find(Marker, At + 1))
    Ops += std::stoul(Tree.substr(At + Marker.size()));
  return Ops;
}

TEST(OptimizationTest, GeneratedArithmeticChainsAgreeFusedAndUnfused) {
  // Generated programs with arithmetic filter chains over INT_MIN,
  // INT_MAX, -1 and 0: the fused micro-program, the unfused STI tree, the
  // dynamic adapter and the legacy interpreter agree on every relation.
  std::size_t ChainsFused = 0;
  for (std::uint64_t Seed = 1; Seed <= 60; ++Seed) {
    const testgen::GeneratedProgram P =
        testgen::generateProgram(Seed, /*ArithChains=*/true);
    std::vector<std::string> Errors;
    auto Prog = core::Program::fromSource(P.Source, &Errors);
    ASSERT_NE(Prog, nullptr) << "seed " << Seed << ": "
                             << (Errors.empty() ? "" : Errors[0]) << "\n"
                             << P.Source;
    auto Run = [&](Backend TheBackend, bool Fuse) {
      EngineOptions Options;
      Options.TheBackend = TheBackend;
      Options.FuseConditions = Fuse;
      Options.EchoPrintSize = false;
      auto E = Prog->makeEngine(Options);
      E->run();
      std::vector<std::vector<DynTuple>> Contents;
      for (const std::string &Rel : P.Relations) {
        Contents.push_back(E->getTuples(Rel));
        std::sort(Contents.back().begin(), Contents.back().end());
      }
      return Contents;
    };
    const auto Fused = Run(Backend::StaticLambda, true);
    EXPECT_EQ(Fused, Run(Backend::StaticLambda, false))
        << "seed " << Seed << "\n" << P.Source;
    EXPECT_EQ(Fused, Run(Backend::DynamicAdapter, true))
        << "seed " << Seed << "\n" << P.Source;
    EXPECT_EQ(Fused, Run(Backend::Legacy, true))
        << "seed " << Seed << "\n" << P.Source;
    if (fusedMicroOps(P.Source) >
        fusedMicroOps(testgen::generateProgram(Seed).Source))
      ++ChainsFused;
  }
  // Most programs draw a chain, and their chains run fused.
  EXPECT_GE(ChainsFused, 30u);
}

TEST(OptimizationTest, AllOptimizationCombinationsAgree) {
  std::vector<DynTuple> ReferenceOut, ReferenceTc;
  bool First = true;
  for (int Super = 0; Super <= 1; ++Super)
    for (int Reorder = 0; Reorder <= 1; ++Reorder)
      for (int Fuse = 0; Fuse <= 1; ++Fuse) {
        EngineOptions Options;
        Options.SuperInstructions = Super != 0;
        Options.StaticReordering = Reorder != 0;
        Options.FuseConditions = Fuse != 0;
        RunResult Result = runWith(Options);
        if (First) {
          ReferenceOut = Result.Out;
          ReferenceTc = Result.Tc;
          First = false;
          EXPECT_FALSE(ReferenceOut.empty());
          EXPECT_FALSE(ReferenceTc.empty());
          continue;
        }
        EXPECT_EQ(Result.Out, ReferenceOut)
            << "super=" << Super << " reorder=" << Reorder
            << " fuse=" << Fuse;
        EXPECT_EQ(Result.Tc, ReferenceTc);
      }
}

TEST(OptimizationTest, LambdaAndPlainStaticEnginesAgree) {
  EngineOptions Lambda;
  Lambda.TheBackend = Backend::StaticLambda;
  EngineOptions Plain;
  Plain.TheBackend = Backend::StaticPlain;

  RunResult A = runWith(Lambda);
  RunResult B = runWith(Plain);
  EXPECT_EQ(A.Out, B.Out);
  EXPECT_EQ(A.Tc, B.Tc);
  // Identical trees: identical dispatch counts.
  EXPECT_EQ(A.Dispatches, B.Dispatches);
}

TEST(OptimizationTest, DispatchCountsAreDeterministic) {
  EngineOptions Options;
  RunResult A = runWith(Options);
  RunResult B = runWith(Options);
  EXPECT_EQ(A.Dispatches, B.Dispatches);
}

TEST(OptimizationTest, AggregateThroughFlippedIndexHonorsReordering) {
  // The aggregate binds e's *second* column, forcing a non-identity index;
  // with static reordering the target expression must be rewritten to the
  // encoded position, without it the scanned tuple is decoded. Both must
  // agree with the hand-computed sums.
  const char *Source = R"(
    .decl e(a:number, b:number)
    .decl n(x:number)
    .decl out(x:number, s:number)
    out(x, s) :- n(x), s = sum a : { e(a, x) }.
  )";
  auto Run = [&](bool Reorder) {
    std::vector<std::string> Errors;
    auto Prog = core::Program::fromSource(Source, &Errors);
    EXPECT_NE(Prog, nullptr) << (Errors.empty() ? "" : Errors[0]);
    EngineOptions Options;
    Options.StaticReordering = Reorder;
    auto E = Prog->makeEngine(Options);
    E->insertTuples("n", {{1}, {2}, {3}});
    E->insertTuples("e", {{10, 1}, {20, 1}, {5, 2}, {7, 9}});
    E->run();
    return E->getTuples("out");
  };
  auto With = Run(true);
  auto Without = Run(false);
  EXPECT_EQ(With, Without);
  EXPECT_EQ(With, (std::vector<DynTuple>{{1, 30}, {2, 5}, {3, 0}}));
}

TEST(OptimizationTest, FusionSkipsFloatConditions) {
  // Float comparisons are not fusible; results must still be right.
  const char *FloatProgram = R"(
    .decl f(x:float, y:float)
    .decl out(x:float)
    out(x) :- f(x, y), x > y.
  )";
  std::vector<std::string> Errors;
  auto Prog = core::Program::fromSource(FloatProgram, &Errors);
  ASSERT_NE(Prog, nullptr) << (Errors.empty() ? "" : Errors[0]);
  EngineOptions Options;
  Options.FuseConditions = true;
  auto E = Prog->makeEngine(Options);
  E->insertTuples("f",
                  {{ramBitCast<RamDomain>(RamFloat(2.5f)),
                    ramBitCast<RamDomain>(RamFloat(1.5f))},
                   {ramBitCast<RamDomain>(RamFloat(0.5f)),
                    ramBitCast<RamDomain>(RamFloat(1.5f))}});
  E->run();
  auto Out = E->getTuples("out");
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_FLOAT_EQ(ramBitCast<RamFloat>(Out[0][0]), 2.5f);
}

} // namespace
