//===- tests/interp/NodePrinterTest.cpp - Tree dump tests ----------------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//

#include "interp/NodePrinter.h"

#include "core/Program.h"

#include <gtest/gtest.h>

using namespace stird;
using namespace stird::interp;

namespace {

std::string dumpFor(const char *Source, EngineOptions Options = {}) {
  auto Prog = core::Program::fromSource(Source);
  EXPECT_NE(Prog, nullptr);
  auto Engine = Prog->makeEngine(Options);
  return Engine->dumpTree();
}

const char *JoinProgram =
    ".decl e(a:number, b:number)\n.decl p(a:number, b:number)\n"
    "p(x, y) :- e(x, y).\np(x, z) :- p(x, y), e(y, z).";

TEST(NodePrinterTest, StiTreeShowsSpecializedOpcodes) {
  std::string Tree = dumpFor(JoinProgram);
  EXPECT_NE(Tree.find("Scan_Btree_2"), std::string::npos);
  EXPECT_NE(Tree.find("IndexScan_Btree_2"), std::string::npos);
  EXPECT_NE(Tree.find("Project_Btree_2"), std::string::npos);
  EXPECT_NE(Tree.find("Existence_Btree_2"), std::string::npos);
  EXPECT_NE(Tree.find("Loop"), std::string::npos);
  // No generic opcodes in a specialized tree.
  EXPECT_EQ(Tree.find("GenericScan"), std::string::npos);
}

TEST(NodePrinterTest, DynamicTreeShowsGenericOpcodes) {
  EngineOptions Options;
  Options.TheBackend = Backend::DynamicAdapter;
  std::string Tree = dumpFor(JoinProgram, Options);
  EXPECT_NE(Tree.find("GenericScan"), std::string::npos);
  EXPECT_NE(Tree.find("GenericIndexScan"), std::string::npos);
  EXPECT_EQ(Tree.find("Scan_Btree_2"), std::string::npos);
}

TEST(NodePrinterTest, SuperInstructionSlotsAreShown) {
  std::string Tree = dumpFor(
      ".decl a(x:number)\n.decl b(x:number, y:number)\n"
      "b(x, 7) :- a(x).");
  // The insert folds slot 1 to the constant 7 and slot 0 to a tuple read.
  EXPECT_NE(Tree.find("1=const:7"), std::string::npos);
  EXPECT_NE(Tree.find("0=t0.0"), std::string::npos);

  EngineOptions NoSuper;
  NoSuper.SuperInstructions = false;
  std::string Plain = dumpFor(
      ".decl a(x:number)\n.decl b(x:number, y:number)\n"
      "b(x, 7) :- a(x).",
      NoSuper);
  // Without super-instructions every slot dispatches generically.
  EXPECT_EQ(Plain.find("const:7"), std::string::npos);
  EXPECT_NE(Plain.find("=expr"), std::string::npos);
}

TEST(NodePrinterTest, FusedConditionShowsMicroOpCount) {
  const char *Source = ".decl a(x:number, y:number)\n.decl b(x:number)\n"
                       "b(x) :- a(x, y), x + y * 2 < 100, x != y.";
  std::string Tree = dumpFor(Source);
  EXPECT_NE(Tree.find("FusedCondition ["), std::string::npos);
  EXPECT_NE(Tree.find("micro-ops]"), std::string::npos);
  // The ablation prints the filter as its node tree.
  EngineOptions Unfused;
  Unfused.FuseConditions = false;
  std::string Plain = dumpFor(Source, Unfused);
  EXPECT_EQ(Plain.find("FusedCondition"), std::string::npos);
  EXPECT_NE(Plain.find("Constraint"), std::string::npos);
}

/// One kitchen-sink program whose generated tree touches every structural
/// node kind, dumped on both the specialized and the generic backends.
const char *KitchenSink = R"(
  .decl edge(a:number, b:number)
  .decl item(x:number)
  .decl path(a:number, b:number)
  .decl same(a:number, b:number) eqrel
  .decl tagged(id:number, x:number)
  .decl labeled(s:symbol)
  .decl blocked(x:number)
  .decl cnt(n:number)
  .decl from_one(b:number)
  .input edge
  .output path
  .printsize path
  path(x, y) :- edge(x, y).
  path(x, z) :- path(x, y), edge(y, z).
  same(a, b) :- edge(a, b).
  tagged($, x) :- item(x).
  labeled(cat("p", to_string(x))) :- item(x).
  blocked(x) :- item(x), !edge(x, x), x < 50.
  cnt(n) :- n = count : { item(_) }.
  from_one(b) :- edge(1, b).
)";

TEST(NodePrinterTest, EveryStructuralNodeKindPrints) {
  // `x < 50` prints as a FusedCondition by default and as a Constraint
  // without fusion; every other kind prints the same either way.
  EngineOptions Unfused;
  Unfused.FuseConditions = false;
  std::string Tree = dumpFor(KitchenSink, Unfused);
  EXPECT_NE(dumpFor(KitchenSink).find("FusedCondition"), std::string::npos);
  for (const char *Token :
       {"Sequence", "Loop", "Exit", "Query", "Clear", "SwapRel", "Merge",
        "Io", "LogTimer", "Filter", "Negation", "Constraint",
        "EmptinessCheck", "Constant", "TupleElement", "Intrinsic",
        "AutoIncrement"})
    EXPECT_NE(Tree.find(Token), std::string::npos) << "missing " << Token;
  // Specialized relational opcodes for btree and eqrel relations.
  for (const char *Token : {"Scan_Btree_2", "IndexScan_Btree_2",
                            "Project_Btree_2", "Project_Eqrel_2",
                            "Existence_Btree_2", "Aggregate_Btree_1"})
    EXPECT_NE(Tree.find(Token), std::string::npos) << "missing " << Token;
  // Query nodes carry their frame size.
  EXPECT_NE(Tree.find("tuples="), std::string::npos);
}

TEST(NodePrinterTest, GenericNodeKindsPrint) {
  EngineOptions Options;
  Options.TheBackend = Backend::DynamicAdapter;
  std::string Tree = dumpFor(KitchenSink, Options);
  for (const char *Token :
       {"GenericScan", "GenericIndexScan", "GenericProject",
        "GenericExistence", "GenericAggregate"})
    EXPECT_NE(Tree.find(Token), std::string::npos) << "missing " << Token;
}

TEST(NodePrinterTest, ParallelNodeKindsPrint) {
  // At -j4 eligible query roots become parallel scans; both flavors must
  // announce themselves in the dump (they execute differently, so a dump
  // that hides them would misrepresent the plan).
  EngineOptions Options;
  Options.NumThreads = 4;
  std::string Tree = dumpFor(KitchenSink, Options);
  EXPECT_NE(Tree.find("ParallelScan"), std::string::npos);
  EXPECT_NE(Tree.find("ParallelIndexScan"), std::string::npos);
  // Parallel scans still print their relation and tuple id.
  EXPECT_NE(Tree.find("ParallelScan rel="), std::string::npos);
  // Pairwise-independent rules in a stratum are grouped under a
  // ParallelSequence and run as concurrent scheduler jobs.
  EXPECT_NE(Tree.find("ParallelSequence"), std::string::npos);
}

TEST(NodePrinterTest, EveryOpcodeHasAName) {
  // Smoke-check the macro-generated name table.
  EXPECT_STREQ(nodeTypeName(NodeType::Scan_Btree_1), "Scan_Btree_1");
  EXPECT_STREQ(nodeTypeName(NodeType::Aggregate_Brie_8),
               "Aggregate_Brie_8");
  EXPECT_STREQ(nodeTypeName(NodeType::Existence_Eqrel_2),
               "Existence_Eqrel_2");
  EXPECT_STREQ(nodeTypeName(NodeType::Filter), "Filter");
}

} // namespace
