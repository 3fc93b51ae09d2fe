//===- tests/translate/DifferentialSipsTest.cpp - Thread-count invariance ------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// For 100 seeded random programs covering recursion, negation, constants,
/// repeated variables and constraints, the parallel run (-j4) must produce
/// exactly the same relation contents as the sequential one (-j1). No other
/// suite runs these programs at -j4: the substrate battery covers the first
/// 20, the scheduler battery its own skewed generator. The suite keeps the
/// name it had when it also varied the join-order strategy.
///
//===----------------------------------------------------------------------===//

#include "core/Program.h"
#include "interp/Engine.h"
#include "support/ProgramGen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace stird;

namespace {

/// Relation name -> sorted tuples. Generated programs are all-number, so
/// raw RamDomain comparison is exact (no symbol-ordinal ambiguity).
using Contents =
    std::vector<std::pair<std::string, std::vector<DynTuple>>>;

Contents run(const testgen::GeneratedProgram &P, std::size_t NumThreads) {
  std::vector<std::string> Errors;
  auto Prog = core::Program::fromSource(P.Source, &Errors);
  EXPECT_NE(Prog, nullptr) << "seed " << P.Seed << ": "
                           << (Errors.empty() ? "compile failed" : Errors[0])
                           << "\n"
                           << P.Source;
  if (!Prog)
    return {};

  interp::EngineOptions Options;
  Options.NumThreads = NumThreads;
  Options.EchoPrintSize = false;
  auto Engine = Prog->makeEngine(Options);
  Engine->run();

  Contents Out;
  for (const std::string &Name : P.Relations) {
    std::vector<DynTuple> Tuples = Engine->getTuples(Name);
    std::sort(Tuples.begin(), Tuples.end());
    Out.emplace_back(Name, std::move(Tuples));
  }
  return Out;
}

class DifferentialSipsTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(DifferentialSipsTest, AllStrategiesAndThreadCountsAgree) {
  const testgen::GeneratedProgram P = testgen::generateProgram(GetParam());
  const Contents Reference = run(P, 1);
  if (Reference.empty())
    return; // compile failure already reported
  EXPECT_EQ(run(P, 4), Reference)
      << "seed " << P.Seed << " at -j4\n" << P.Source;
}

INSTANTIATE_TEST_SUITE_P(RandomPrograms, DifferentialSipsTest,
                         ::testing::Range<std::uint64_t>(1, 101));

} // namespace
