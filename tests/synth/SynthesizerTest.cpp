//===- tests/synth/SynthesizerTest.cpp - Synthesized-code tests ----------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validates the compiled execution path: the synthesizer's generated C++
/// must compile with the system compiler and produce exactly the
/// interpreter's results. These tests invoke g++ and therefore dominate the
/// suite's runtime; they share one compiled binary per program.
///
//===----------------------------------------------------------------------===//

#include "synth/CppSynthesizer.h"

#include "core/Program.h"
#include "synth/CompilerDriver.h"
#include "util/Csv.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>

using namespace stird;

namespace {

/// Writes fact files for the inputs, synthesizes + compiles + runs the
/// program, and returns the parsed report.
struct SynthFixture {
  std::unique_ptr<core::Program> Prog;
  synth::RunOutcome Outcome;
  std::string Dir;

  static SynthFixture build(const std::string &Name,
                            const std::string &Source,
                            const std::map<std::string, std::string> &Facts) {
    SynthFixture F;
    F.Dir = ::testing::TempDir() + "/synth_" + Name;
    std::filesystem::create_directories(F.Dir);
    for (const auto &[File, Content] : Facts) {
      std::ofstream Out(F.Dir + "/" + File);
      Out << Content;
    }
    std::vector<std::string> Errors;
    F.Prog = core::Program::fromSource(Source, &Errors);
    EXPECT_NE(F.Prog, nullptr) << (Errors.empty() ? "" : Errors[0]);
    if (!F.Prog)
      return F;

    std::string Cpp = synth::synthesize(
        F.Prog->getRam(), F.Prog->getIndexes(), F.Prog->getSymbolTable());
    auto Compiled = synth::compileSynthesized(Cpp, F.Dir, Name);
    EXPECT_TRUE(Compiled.has_value()) << "generated code failed to compile";
    if (!Compiled)
      return F;
    EXPECT_GT(Compiled->CompileSeconds, 0.0);
    F.Outcome = synth::runSynthesized(Compiled->BinaryPath, F.Dir, F.Dir);
    EXPECT_EQ(F.Outcome.ExitCode, 0);
    return F;
  }
};

TEST(SynthesizerTest, TransitiveClosureMatchesInterpreter) {
  const std::string Source =
      ".decl edge(a:number, b:number)\n.decl path(a:number, b:number)\n"
      ".input edge\n.output path\n"
      "path(x, y) :- edge(x, y).\n"
      "path(x, z) :- path(x, y), edge(y, z).";
  std::string Facts;
  for (int I = 0; I < 30; ++I)
    Facts += std::to_string(I % 17) + "\t" + std::to_string((I * 5) % 17) +
             "\n";
  SynthFixture F =
      SynthFixture::build("tc", Source, {{"edge.facts", Facts}});
  ASSERT_NE(F.Prog, nullptr);

  // Interpreter reference.
  interp::EngineOptions Options;
  Options.FactDir = F.Dir;
  Options.OutputDir = F.Dir + "/interp_out";
  std::filesystem::create_directories(Options.OutputDir);
  auto E = F.Prog->makeEngine(Options);
  E->run();
  auto Expected = E->getTuples("path");

  EXPECT_EQ(F.Outcome.RelationSizes.at("path"), Expected.size());
  EXPECT_GT(F.Outcome.RuntimeSeconds, 0.0);

  // The output files must be byte-identical (both sorted).
  std::ifstream A(F.Dir + "/path.csv");
  std::ifstream B(Options.OutputDir + "/path.csv");
  ASSERT_TRUE(A.good());
  ASSERT_TRUE(B.good());
  std::string LineA, LineB;
  std::size_t Lines = 0;
  while (std::getline(A, LineA)) {
    ASSERT_TRUE(static_cast<bool>(std::getline(B, LineB)));
    EXPECT_EQ(LineA, LineB);
    ++Lines;
  }
  EXPECT_FALSE(static_cast<bool>(std::getline(B, LineB)));
  EXPECT_EQ(Lines, Expected.size());
}

TEST(SynthesizerTest, FullFeatureProgramMatchesInterpreter) {
  // Negation, aggregates, strings, arithmetic, multiple indexes and an
  // equivalence relation in one program.
  const std::string Source = R"(
    .decl e(a:number, b:number)
    .decl blocked(a:number)
    .decl name(a:number, s:symbol)
    .input e
    .input blocked
    .input name
    .decl r(a:number, b:number)
    r(x, y) :- e(x, y), !blocked(y), x + y < 40.
    .decl rev(a:number, b:number)
    rev(y, x) :- e(x, y), e(y, x).
    .decl deg(a:number, n:number)
    deg(x, n) :- e(x, _), n = count : { e(x, _) }.
    .decl tagged(a:number, s:symbol)
    tagged(x, cat(s, "!")) :- name(x, s), e(x, _).
    .decl same(a:number, b:number) eqrel
    same(a, b) :- rev(a, b).
    .decl s(x:number)
    .input s
    .decl q(a:number, b:number, c:number)
    q(x / -1, x % -1, -x) :- s(x), x / -1 != 5.
    .decl z(x:number)
    z(v) :- v = (-2147483647 - 1) / -1.
    .output r
    .output deg
    .output tagged
    .output q
    .output z
    .printsize same
  )";
  std::string EdgeFacts, BlockedFacts, NameFacts;
  for (int I = 0; I < 40; ++I)
    EdgeFacts += std::to_string(I % 13) + "\t" +
                 std::to_string((I * 3 + 1) % 13) + "\n";
  BlockedFacts = "1\n4\n9\n";
  for (int I = 0; I < 13; ++I)
    NameFacts += std::to_string(I) + "\tnode" + std::to_string(I) + "\n";
  SynthFixture F = SynthFixture::build("full", Source,
                                       {{"e.facts", EdgeFacts},
                                        {"blocked.facts", BlockedFacts},
                                        {"name.facts", NameFacts},
                                        {"s.facts", "-2147483648\n-6\n7\n"}});
  ASSERT_NE(F.Prog, nullptr);

  interp::EngineOptions Options;
  Options.FactDir = F.Dir;
  Options.OutputDir = F.Dir + "/interp_out";
  std::filesystem::create_directories(Options.OutputDir);
  auto E = F.Prog->makeEngine(Options);
  E->run();

  for (const char *Rel : {"r", "deg", "tagged", "same", "rev", "q", "z"}) {
    ASSERT_TRUE(F.Outcome.RelationSizes.count(Rel)) << Rel;
    EXPECT_EQ(F.Outcome.RelationSizes.at(Rel), E->getTuples(Rel).size())
        << "relation " << Rel;
  }

  // Output files byte-identical.
  for (const char *File :
       {"r.csv", "deg.csv", "tagged.csv", "q.csv", "z.csv"}) {
    std::ifstream A(F.Dir + "/" + File);
    std::ifstream B(Options.OutputDir + "/" + File);
    ASSERT_TRUE(A.good()) << File;
    ASSERT_TRUE(B.good()) << File;
    std::string ContentA((std::istreambuf_iterator<char>(A)),
                         std::istreambuf_iterator<char>());
    std::string ContentB((std::istreambuf_iterator<char>(B)),
                         std::istreambuf_iterator<char>());
    EXPECT_EQ(ContentA, ContentB) << File;
  }

  // INT_MIN / -1, INT_MIN % -1 and -INT_MIN wrap instead of trapping, in
  // the generated code and in the constant folder alike.
  std::ifstream Q(F.Dir + "/q.csv");
  EXPECT_EQ(std::string((std::istreambuf_iterator<char>(Q)),
                        std::istreambuf_iterator<char>()),
            "-2147483648\t0\t-2147483648\n-7\t0\t-7\n6\t0\t6\n");
  std::ifstream Z(F.Dir + "/z.csv");
  EXPECT_EQ(std::string((std::istreambuf_iterator<char>(Z)),
                        std::istreambuf_iterator<char>()),
            "-2147483648\n");

  // Per-rule profile records exist for the recursive program.
  EXPECT_FALSE(F.Outcome.RuleSeconds.empty());
}

TEST(SynthesizerTest, BrieFloatUnsignedProgramMatchesInterpreter) {
  // Exercises the synthesizer's Brie code path (prefixBegin ranges) and
  // the float/unsigned bit-cast plumbing end to end.
  const std::string Source = R"(
    .decl edge(a:number, b:number) brie
    .decl path(a:number, b:number) brie
    .input edge
    path(x, y) :- edge(x, y).
    path(x, z) :- path(x, y), edge(y, z).

    .decl reading(sensor:unsigned, value:float)
    .input reading
    .decl hot(sensor:unsigned, value:float)
    hot(s, v) :- reading(s, v), v > 20.5, s >= 2000000000u.
    .output path
    .output hot
  )";
  std::string EdgeFacts;
  for (int I = 0; I < 25; ++I)
    EdgeFacts += std::to_string(I % 9) + "\t" +
                 std::to_string((I * 4 + 2) % 9) + "\n";
  const std::string ReadingFacts = "1000\t25.5\n"
                                   "3000000000\t25.5\n"
                                   "3000000001\t-4.25\n"
                                   "3000000002\t20.5\n";
  SynthFixture F = SynthFixture::build(
      "brie_float", Source,
      {{"edge.facts", EdgeFacts}, {"reading.facts", ReadingFacts}});
  ASSERT_NE(F.Prog, nullptr);

  interp::EngineOptions Options;
  Options.FactDir = F.Dir;
  Options.OutputDir = F.Dir + "/interp_out";
  std::filesystem::create_directories(Options.OutputDir);
  auto E = F.Prog->makeEngine(Options);
  E->run();

  ASSERT_TRUE(F.Outcome.RelationSizes.count("path"));
  EXPECT_EQ(F.Outcome.RelationSizes.at("path"),
            E->getTuples("path").size());
  ASSERT_TRUE(F.Outcome.RelationSizes.count("hot"));
  EXPECT_EQ(F.Outcome.RelationSizes.at("hot"), 1u);
  EXPECT_EQ(E->getTuples("hot").size(), 1u);

  for (const char *File : {"path.csv", "hot.csv"}) {
    std::ifstream A(F.Dir + "/" + File);
    std::ifstream B(Options.OutputDir + "/" + File);
    ASSERT_TRUE(A.good()) << File;
    ASSERT_TRUE(B.good()) << File;
    std::string ContentA((std::istreambuf_iterator<char>(A)),
                         std::istreambuf_iterator<char>());
    std::string ContentB((std::istreambuf_iterator<char>(B)),
                         std::istreambuf_iterator<char>());
    EXPECT_EQ(ContentA, ContentB) << File;
  }
}

} // namespace
