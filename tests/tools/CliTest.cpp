//===- tests/tools/CliTest.cpp - Command-line driver tests ---------------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end tests of the `stird` driver binary: runs it as a subprocess
/// over real .dl and fact files and checks outputs, dumps and exit codes
/// (and, for the shared flags, `stird-serve`'s too).
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <sys/wait.h>

#ifndef STIRD_TOOL_PATH
#error "STIRD_TOOL_PATH must point at the stird driver binary"
#endif
#ifndef STIRD_SERVE_TOOL_PATH
#error "STIRD_SERVE_TOOL_PATH must point at the stird-serve binary"
#endif

namespace {

struct CommandResult {
  int ExitCode = 0;
  std::string Output; // stdout + stderr
};

/// Runs \p Command with stdout and stderr captured in \p Dir.
CommandResult runCommand(const std::string &Command, const std::string &Dir) {
  const std::string OutPath = Dir + "/cli.out";
  CommandResult Result;
  Result.ExitCode =
      std::system((Command + " > " + OutPath + " 2>&1").c_str());
  std::ifstream In(OutPath);
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  Result.Output = Buffer.str();
  return Result;
}

CommandResult runTool(const std::string &Args, const std::string &Dir) {
  return runCommand(std::string(STIRD_TOOL_PATH) + " " + Args, Dir);
}

/// A scratch directory with the transitive-closure program and facts.
std::string makeFixture(const std::string &Name) {
  const std::string Dir = ::testing::TempDir() + "/cli_" + Name;
  std::filesystem::create_directories(Dir);
  std::ofstream(Dir + "/tc.dl") << ".decl edge(a:number, b:number)\n"
                                   ".decl path(a:number, b:number)\n"
                                   ".input edge\n.output path\n"
                                   ".printsize path\n"
                                   "path(x, y) :- edge(x, y).\n"
                                   "path(x, z) :- path(x, y), edge(y, z).\n";
  std::ofstream(Dir + "/edge.facts") << "1\t2\n2\t3\n3\t4\n";
  return Dir;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

TEST(CliTest, RunsProgramAndWritesOutputs) {
  std::string Dir = makeFixture("run");
  CommandResult Result =
      runTool(Dir + "/tc.dl -F " + Dir + " -D " + Dir, Dir);
  EXPECT_EQ(Result.ExitCode, 0) << Result.Output;
  EXPECT_NE(Result.Output.find("path\t6"), std::string::npos)
      << Result.Output;
  EXPECT_EQ(readFile(Dir + "/path.csv"),
            "1\t2\n1\t3\n1\t4\n2\t3\n2\t4\n3\t4\n");
}

TEST(CliTest, AllBackendsAgree) {
  for (const char *Backend : {"sti", "sti-plain", "dynamic", "legacy"}) {
    std::string Dir = makeFixture(std::string("backend_") + Backend);
    CommandResult Result = runTool(Dir + "/tc.dl -F " + Dir + " -D " + Dir +
                                       " --backend " + Backend,
                                   Dir);
    EXPECT_EQ(Result.ExitCode, 0) << Backend << ": " << Result.Output;
    EXPECT_EQ(readFile(Dir + "/path.csv"),
              "1\t2\n1\t3\n1\t4\n2\t3\n2\t4\n3\t4\n")
        << Backend;
  }
}

TEST(CliTest, DumpRamAndDumpTree) {
  std::string Dir = makeFixture("dumps");
  CommandResult Ram = runTool(Dir + "/tc.dl --dump-ram", Dir);
  EXPECT_EQ(Ram.ExitCode, 0);
  EXPECT_NE(Ram.Output.find("LOOP"), std::string::npos);
  EXPECT_NE(Ram.Output.find("SWAP (delta_path, new_path)"),
            std::string::npos);

  CommandResult Tree = runTool(Dir + "/tc.dl --dump-tree", Dir);
  EXPECT_EQ(Tree.ExitCode, 0);
  EXPECT_NE(Tree.Output.find("IndexScan_Btree_2"), std::string::npos);

  CommandResult DynTree =
      runTool(Dir + "/tc.dl --dump-tree --backend dynamic", Dir);
  EXPECT_NE(DynTree.Output.find("GenericIndexScan"), std::string::npos);
}

TEST(CliTest, ProfileReportsRules) {
  std::string Dir = makeFixture("profile");
  CommandResult Result =
      runTool(Dir + "/tc.dl -F " + Dir + " -D " + Dir + " --profile", Dir);
  EXPECT_EQ(Result.ExitCode, 0);
  EXPECT_NE(Result.Output.find("path(x, z) :- path(x, y), edge(y, z). [v0]"),
            std::string::npos)
      << Result.Output;
}

TEST(CliTest, SynthesizeWritesCompilableSource) {
  std::string Dir = makeFixture("synth");
  CommandResult Result =
      runTool(Dir + "/tc.dl --synthesize " + Dir + "/gen.cpp", Dir);
  EXPECT_EQ(Result.ExitCode, 0) << Result.Output;
  std::string Generated = readFile(Dir + "/gen.cpp");
  EXPECT_NE(Generated.find("stird::BTreeSet<2>"), std::string::npos);
  EXPECT_NE(Generated.find("int main("), std::string::npos);
}

TEST(CliTest, ErrorsExitNonZero) {
  std::string Dir = makeFixture("errors");
  CommandResult Missing = runTool("/nonexistent/prog.dl", Dir);
  EXPECT_NE(Missing.ExitCode, 0);

  std::ofstream(Dir + "/bad.dl") << ".decl a(x:number)\na(y) :- a(x).\n";
  CommandResult Semantic = runTool(Dir + "/bad.dl", Dir);
  EXPECT_NE(Semantic.ExitCode, 0);
  EXPECT_NE(Semantic.Output.find("ungrounded"), std::string::npos);

  CommandResult BadFlag = runTool(Dir + "/bad.dl --backend warp", Dir);
  EXPECT_NE(BadFlag.ExitCode, 0);
}

TEST(CliTest, DeclarationsOutsideThePortfolioAreCompileErrors) {
  // A structure/arity pair the pre-compiled portfolio lacks must be
  // rejected at compile time with exit status 1, never reach the relation
  // factory and abort the process.
  std::string Dir = makeFixture("portfolio");
  std::string Wide = ".decl r(";
  for (int I = 0; I < 9; ++I)
    Wide += (I ? ", c" : "c") + std::to_string(I) + ":number";
  std::ofstream(Dir + "/wide_brie.dl")
      << Wide << ") brie\nr(1, 2, 3, 4, 5, 6, 7, 8, 9).\n";
  std::ofstream(Dir + "/art.dl") << ".decl r(a:number) art\nr(1).\n";
  for (const char *Prog : {"wide_brie.dl", "art.dl"}) {
    CommandResult Result = runTool(Dir + "/" + Prog + " -D " + Dir, Dir);
    ASSERT_TRUE(WIFEXITED(Result.ExitCode))
        << Prog << " died by a signal: " << Result.Output;
    EXPECT_EQ(WEXITSTATUS(Result.ExitCode), 1) << Prog << ": " << Result.Output;
    EXPECT_NE(Result.Output.find("error:"), std::string::npos)
        << Prog << ": " << Result.Output;
  }
}

TEST(CliTest, ThreadCountFlagVariants) {
  // -j N, -j 0 and -j auto all run to completion with identical output;
  // 0 and "auto" expand to the hardware thread count, make-style.
  for (const char *Jobs : {"1", "4", "0", "auto"}) {
    std::string Dir = makeFixture(std::string("jobs_") + Jobs);
    CommandResult Result = runTool(
        Dir + "/tc.dl -F " + Dir + " -D " + Dir + " -j " + Jobs, Dir);
    EXPECT_EQ(Result.ExitCode, 0) << "-j " << Jobs << ": " << Result.Output;
    EXPECT_EQ(readFile(Dir + "/path.csv"),
              "1\t2\n1\t3\n1\t4\n2\t3\n2\t4\n3\t4\n")
        << "-j " << Jobs;
  }
}

TEST(CliTest, ThreadCountFlagRejectsGarbage) {
  std::string Dir = makeFixture("jobs_bad");
  for (const char *Jobs : {"-3", "two", "4x", ""}) {
    CommandResult Result = runTool(
        Dir + "/tc.dl -F " + Dir + " -j '" + Jobs + "'", Dir);
    EXPECT_NE(Result.ExitCode, 0) << "-j '" << Jobs << "' was accepted";
    EXPECT_NE(Result.Output.find("invalid thread count"), std::string::npos)
        << "-j '" << Jobs << "': " << Result.Output;
    EXPECT_NE(Result.Output.find("usage:"), std::string::npos);
  }
}

TEST(CliTest, IntMinDivisionWrapsInsteadOfTrapping) {
  // INT_MIN / -1 and INT_MIN % -1 raise SIGFPE in C++; the engine defines
  // them (two's-complement wrap), in rule bodies, fused filters and the
  // constant folder alike.
  std::string Dir = makeFixture("int_min");
  std::ofstream(Dir + "/wrap.dl")
      << ".decl s(x:number)\n"
         ".decl q(a:number, b:number, c:number)\n"
         ".decl z(x:number)\n"
         "s(-2147483648).\n"
         "q(x / -1, x % -1, -x) :- s(x), x / -1 != 5.\n"
         "z(v) :- v = (-2147483647 - 1) / -1.\n"
         ".output q\n.output z\n";
  for (const char *Backend : {"sti", "sti-plain", "dynamic", "legacy"}) {
    for (const char *Fuse : {"", " --no-fuse-conditions"}) {
      std::filesystem::remove(Dir + "/q.csv");
      std::filesystem::remove(Dir + "/z.csv");
      CommandResult Result = runTool(Dir + "/wrap.dl -D " + Dir +
                                         " --backend " + Backend + Fuse,
                                     Dir);
      EXPECT_EQ(Result.ExitCode, 0) << Backend << Fuse << Result.Output;
      EXPECT_EQ(readFile(Dir + "/q.csv"), "-2147483648\t0\t-2147483648\n")
          << Backend << Fuse;
      EXPECT_EQ(readFile(Dir + "/z.csv"), "-2147483648\n") << Backend << Fuse;
    }
  }
}

TEST(CliTest, AblationFlagsAccepted) {
  std::string Dir = makeFixture("flags");
  CommandResult Result = runTool(
      Dir + "/tc.dl -F " + Dir + " -D " + Dir +
          " --no-super --no-reorder --no-fuse-conditions",
      Dir);
  EXPECT_EQ(Result.ExitCode, 0) << Result.Output;
  EXPECT_EQ(readFile(Dir + "/path.csv"),
            "1\t2\n1\t3\n1\t4\n2\t3\n2\t4\n3\t4\n");
}

TEST(CliTest, SipsAndFeedbackAreUnknownOptions) {
  // Join order is not a user choice: rule bodies keep source order and
  // maintenance versions are planned max-bound, so neither tool takes the
  // planning flags.
  std::string Dir = makeFixture("planning_flags");
  for (const char *Tool : {STIRD_TOOL_PATH, STIRD_SERVE_TOOL_PATH}) {
    for (const std::string Flag : {"--sips=max-bound", "--feedback=p.json"}) {
      CommandResult Result =
          runCommand(std::string(Tool) + " " + Dir + "/tc.dl " + Flag, Dir);
      ASSERT_TRUE(WIFEXITED(Result.ExitCode)) << Tool << " " << Flag;
      EXPECT_EQ(WEXITSTATUS(Result.ExitCode), 1)
          << Tool << " " << Flag << ": " << Result.Output;
      const std::string Name = Flag.substr(0, Flag.find('='));
      EXPECT_NE(Result.Output.find("unknown option '" + Name + "'"),
                std::string::npos)
          << Tool << " " << Flag << ": " << Result.Output;
    }
  }
}

} // namespace
