//===- tests/core/CrossEngineTest.cpp - Cross-backend equivalence --------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Invariant 1 of DESIGN.md: the STI (both register variants, and the
/// lambda variant without condition fusion), the dynamic-adapter
/// interpreter and the legacy interpreter must compute identical relation
/// contents for every program in the corpus. The synthesized-code path is
/// covered by tests/synth.
///
//===----------------------------------------------------------------------===//

#include "core/Program.h"
#include "interp/Engine.h"

#include <gtest/gtest.h>

#include <limits>
#include <random>

using namespace stird;
using namespace stird::interp;

namespace {

struct CorpusEntry {
  const char *Name;
  const char *Source;
  /// Relations whose contents are compared.
  std::vector<const char *> Outputs;
  /// Input relation -> tuples.
  std::vector<std::pair<const char *, std::vector<DynTuple>>> Inputs;
  /// Exact contents of each output relation, when the entry pins them
  /// (empty: the reference STI run is the only oracle).
  std::vector<std::vector<DynTuple>> Expected = {};
};

std::vector<DynTuple> randomPairs(std::size_t Count, RamDomain Range,
                                  unsigned Seed) {
  std::mt19937 Rng(Seed);
  std::uniform_int_distribution<RamDomain> Dist(0, Range);
  std::vector<DynTuple> Result;
  for (std::size_t I = 0; I < Count; ++I)
    Result.push_back({Dist(Rng), Dist(Rng)});
  return Result;
}

const CorpusEntry *corpus() {
  static const std::vector<CorpusEntry> Entries = [] {
    std::vector<CorpusEntry> Result;
    Result.push_back(
        {"transitive_closure",
         ".decl e(a:number, b:number)\n.decl p(a:number, b:number)\n"
         "p(x, y) :- e(x, y).\np(x, z) :- p(x, y), e(y, z).",
         {"p"},
         {{"e", randomPairs(60, 25, 1)}}});
    Result.push_back(
        {"negation_and_filters",
         ".decl e(a:number, b:number)\n.decl blocked(a:number)\n"
         ".decl r(a:number, b:number)\n"
         "r(x, y) :- e(x, y), !blocked(y), x < y + 5, x != 7.",
         {"r"},
         {{"e", randomPairs(80, 30, 2)},
          {"blocked", {{1}, {5}, {9}, {13}}}}});
    Result.push_back(
        {"multi_index_join",
         ".decl e(a:number, b:number)\n.decl f(a:number, b:number)\n"
         ".decl j(a:number, b:number, c:number)\n"
         "j(x, y, z) :- e(x, y), f(z, y), e(y, z).",
         {"j"},
         {{"e", randomPairs(50, 12, 3)}, {"f", randomPairs(50, 12, 4)}}});
    Result.push_back(
        {"aggregates",
         ".decl e(a:number, b:number)\n.decl n(a:number)\n"
         ".decl deg(a:number, c:number, s:number)\n"
         "n(x) :- e(x, _).\n"
         "deg(x, c, s) :- n(x), c = count : { e(x, _) }, "
         "s = sum y : { e(x, y) }.",
         {"deg"},
         {{"e", randomPairs(70, 15, 5)}}});
    Result.push_back(
        {"mutual_recursion",
         ".decl s(a:number, b:number)\n.decl ev(x:number)\n"
         ".decl od(x:number)\n"
         "ev(0).\nod(y) :- ev(x), s(x, y).\nev(y) :- od(x), s(x, y).",
         {"ev", "od"},
         {{"s", [] {
            auto Pairs = randomPairs(100, 40, 6);
            // Guarantee the fixpoint leaves the seed fact.
            Pairs.push_back({0, 1});
            Pairs.push_back({1, 2});
            return Pairs;
          }()}}});
    Result.push_back(
        {"eqrel_closure",
         ".decl link(a:number, b:number)\n"
         ".decl same(a:number, b:number) eqrel\n"
         ".decl rep(a:number, b:number)\n"
         "same(a, b) :- link(a, b).\n"
         "rep(a, b) :- same(a, b), a < b.",
         {"same", "rep"},
         {{"link", randomPairs(40, 20, 7)}}});
    Result.push_back(
        {"brie_backed",
         ".decl e(a:number, b:number) brie\n"
         ".decl p(a:number, b:number) brie\n"
         "p(x, y) :- e(x, y).\np(x, z) :- p(x, y), e(y, z).",
         {"p"},
         {{"e", randomPairs(50, 20, 8)}}});
    Result.push_back(
        {"arithmetic_heavy",
         ".decl v(a:number, b:number)\n.decl w(a:number, b:number)\n"
         "w(x * 2 + 1, y) :- v(x, y), (x band 7) != 3, "
         "x * x + y * y < 900.",
         {"w"},
         {{"v", randomPairs(90, 28, 9)}}});
    // Signed division, modulo and negation wrap in two's complement: the
    // operand pairs that trap in C++ (INT_MIN / -1, INT_MIN % -1) have
    // defined results, also when the constant folder evaluates them.
    constexpr RamDomain IntMin = std::numeric_limits<RamDomain>::min();
    Result.push_back(
        {"int_min_wrap",
         ".decl s(x:number)\n.decl q(a:number, b:number, c:number)\n"
         ".decl z(x:number)\n"
         "q(x / -1, x % -1, -x) :- s(x), x / -1 != 5.\n"
         "z(v) :- v = (-2147483647 - 1) / -1.",
         {"q", "z"},
         {{"s", {{IntMin}, {-6}, {7}}}},
         {{{IntMin, 0, IntMin}, {-7, 0, -7}, {6, 0, 6}}, {{IntMin}}}});
    // vpc-style filter chains over the edge values: the fused micro-program
    // and the tree evaluator must wrap identically (divWrap/modWrap,
    // two's-complement Add/Mul, shift counts masked with & 31).
    constexpr RamDomain IntMax = std::numeric_limits<RamDomain>::max();
    Result.push_back(
        {"filter_chain_extremes",
         ".decl s(x:number)\n.decl dv(x:number)\n.decl sh(x:number)\n"
         ".decl bx(x:number)\n.decl ov(x:number)\n"
         "dv(x) :- s(x), x / -1 = x, x % -1 = 0, -x = x, x != 0.\n"
         "sh(x) :- s(x), x bshl 32 = x, x bshr -1 = x bshr 31, "
         "(x bshl 1) bshr 1 != x.\n"
         "bx(x) :- s(x), (x bxor -1) band 3 = 2, x bor 1 != 0.\n"
         "ov(x) :- s(x), x * 2 / 2 != x, x + 1 < x.",
         {"dv", "sh", "bx", "ov"},
         {{"s", {{IntMin}, {-1}, {0}, {1}, {5}, {IntMax}}}},
         {{{IntMin}}, {{IntMin}, {IntMax}}, {{1}, {5}}, {{IntMax}}}});
    return Result;
  }();
  return Entries.data();
}
constexpr std::size_t CorpusSize = 10;

class CrossEngineTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

/// Index 4 is the lambda STI again, with condition fusion switched off.
constexpr int UnfusedIndex = 4;

Backend backendOf(int Index) {
  switch (Index) {
  case 0:
    return Backend::StaticLambda;
  case 1:
    return Backend::StaticPlain;
  case 2:
    return Backend::DynamicAdapter;
  case 3:
    return Backend::Legacy;
  default:
    return Backend::StaticLambda;
  }
}

const char *backendName(int Index) {
  switch (Index) {
  case 0:
    return "StaticLambda";
  case 1:
    return "StaticPlain";
  case 2:
    return "DynamicAdapter";
  case 3:
    return "Legacy";
  default:
    return "StaticLambdaUnfused";
  }
}

std::vector<std::vector<DynTuple>> runOn(const CorpusEntry &Entry,
                                         Backend TheBackend,
                                         bool FuseConditions = true) {
  std::vector<std::string> Errors;
  auto Prog = core::Program::fromSource(Entry.Source, &Errors);
  EXPECT_NE(Prog, nullptr)
      << Entry.Name << ": " << (Errors.empty() ? "" : Errors[0]);
  if (!Prog)
    return {};
  EngineOptions Options;
  Options.TheBackend = TheBackend;
  Options.FuseConditions = FuseConditions;
  auto E = Prog->makeEngine(Options);
  for (const auto &[Rel, Tuples] : Entry.Inputs)
    E->insertTuples(Rel, Tuples);
  E->run();
  std::vector<std::vector<DynTuple>> Result;
  for (const char *Rel : Entry.Outputs)
    Result.push_back(E->getTuples(Rel));
  return Result;
}

TEST_P(CrossEngineTest, BackendMatchesReferenceSti) {
  auto [ProgramIndex, BackendIndex] = GetParam();
  const CorpusEntry &Entry = corpus()[ProgramIndex];
  auto Reference = runOn(Entry, Backend::StaticLambda);
  for (const auto &Tuples : Reference)
    EXPECT_FALSE(Tuples.empty())
        << Entry.Name << ": corpus entry produced no tuples";
  if (!Entry.Expected.empty()) {
    EXPECT_EQ(Reference, Entry.Expected) << Entry.Name;
  }
  auto Other = runOn(Entry, backendOf(BackendIndex),
                     BackendIndex != UnfusedIndex);
  ASSERT_EQ(Reference.size(), Other.size());
  for (std::size_t I = 0; I < Reference.size(); ++I)
    EXPECT_EQ(Reference[I], Other[I])
        << Entry.Name << " relation " << Entry.Outputs[I] << " differs on "
        << backendName(BackendIndex);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, CrossEngineTest,
    ::testing::Combine(::testing::Range(0, static_cast<int>(CorpusSize)),
                       ::testing::Range(1, UnfusedIndex + 1)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>> &Info) {
      return std::string(corpus()[std::get<0>(Info.param)].Name) + "_vs_" +
             backendName(std::get<1>(Info.param));
    });

/// Random-program sweep: random chain/filter rule sets over random edges
/// must agree between the STI and the dynamic adapter.
class RandomProgramTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomProgramTest, RandomRuleSetsAgreeAcrossBackends) {
  const unsigned Seed = static_cast<unsigned>(GetParam());
  std::mt19937 Rng(Seed);
  std::uniform_int_distribution<int> Pick(0, 2);
  std::uniform_int_distribution<RamDomain> Const(0, 9);

  std::string Source =
      ".decl e(a:number, b:number)\n.decl r0(a:number, b:number)\n"
      "r0(x, y) :- e(x, y).\n";
  int NumRels = 1 + static_cast<int>(Rng() % 4);
  for (int I = 1; I <= NumRels; ++I) {
    std::string Rel = "r" + std::to_string(I);
    std::string Prev = "r" + std::to_string(I - 1);
    Source += ".decl " + Rel + "(a:number, b:number)\n";
    switch (Pick(Rng)) {
    case 0: // join with e
      Source += Rel + "(x, z) :- " + Prev + "(x, y), e(y, z).\n";
      break;
    case 1: // filter
      Source += Rel + "(x, y) :- " + Prev + "(x, y), x + y > " +
                std::to_string(Const(Rng)) + ".\n";
      break;
    default: // arithmetic head
      Source += Rel + "(y, x + " + std::to_string(Const(Rng)) + ") :- " +
                Prev + "(x, y).\n";
      break;
    }
  }
  std::string Last = "r" + std::to_string(NumRels);

  auto Tuples = randomPairs(60, 20, Seed * 31 + 5);
  auto Run = [&](Backend TheBackend) {
    std::vector<std::string> Errors;
    auto Prog = core::Program::fromSource(Source, &Errors);
    EXPECT_NE(Prog, nullptr) << (Errors.empty() ? "" : Errors[0]);
    if (!Prog)
      return std::vector<DynTuple>{};
    EngineOptions Options;
    Options.TheBackend = TheBackend;
    auto E = Prog->makeEngine(Options);
    E->insertTuples("e", Tuples);
    E->run();
    return E->getTuples(Last);
  };

  auto Sti = Run(Backend::StaticLambda);
  auto Dynamic = Run(Backend::DynamicAdapter);
  auto Legacy = Run(Backend::Legacy);
  EXPECT_EQ(Sti, Dynamic);
  EXPECT_EQ(Sti, Legacy);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomProgramTest,
                         ::testing::Range(0, 15));

} // namespace
