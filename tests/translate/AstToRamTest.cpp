//===- tests/translate/AstToRamTest.cpp - Translation tests --------------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//

#include "translate/AstToRam.h"

#include "ast/Parser.h"
#include "ast/SemanticAnalysis.h"
#include "ram/RamPrinter.h"

#include <gtest/gtest.h>

using namespace stird;
using namespace stird::translate;

namespace {

struct Translation {
  std::unique_ptr<ast::Program> Ast;
  std::unique_ptr<ram::Program> Ram;
  // Held by pointer: the concurrency-safe SymbolTable is neither copyable
  // nor movable, but this fixture is returned by value.
  std::unique_ptr<SymbolTable> SymbolsPtr = std::make_unique<SymbolTable>();
  SymbolTable &symbols() { return *SymbolsPtr; }
};

Translation translateSource(const std::string &Source,
                            const TranslationOptions &Options = {}) {
  Translation Result;
  auto Parsed = ast::parseProgram(Source);
  EXPECT_TRUE(Parsed.succeeded())
      << (Parsed.Errors.empty() ? "" : Parsed.Errors[0]);
  Result.Ast = std::move(Parsed.Prog);
  auto Info = ast::analyze(*Result.Ast);
  EXPECT_TRUE(Info.succeeded())
      << (Info.Errors.empty() ? "" : Info.Errors[0]);
  auto Translated =
      translateToRam(*Result.Ast, Info, Result.symbols(), Options);
  EXPECT_TRUE(Translated.succeeded())
      << (Translated.Errors.empty() ? "" : Translated.Errors[0]);
  Result.Ram = std::move(Translated.Prog);
  return Result;
}

TEST(AstToRamTest, NonRecursiveRuleBecomesScanAndProject) {
  auto T = translateSource(".decl a(x:number)\n.decl b(x:number)\n"
                           "b(x) :- a(x).");
  std::string Text = ram::print(*T.Ram);
  EXPECT_NE(Text.find("FOR t0 IN a"), std::string::npos);
  EXPECT_NE(Text.find("INSERT (t0.0) INTO b"), std::string::npos);
  // Non-recursive: no loop.
  EXPECT_EQ(Text.find("LOOP"), std::string::npos);
}

TEST(AstToRamTest, RecursiveRuleProducesSemiNaiveLoop) {
  auto T = translateSource(
      ".decl e(a:number, b:number)\n.decl p(a:number, b:number)\n"
      "p(x, y) :- e(x, y).\np(x, z) :- p(x, y), e(y, z).");
  std::string Text = ram::print(*T.Ram);
  // Fig 3 shape: delta initialization, loop, exit on empty new, merge,
  // swap, clear.
  EXPECT_NE(Text.find("MERGE p INTO delta_p"), std::string::npos);
  EXPECT_NE(Text.find("LOOP"), std::string::npos);
  EXPECT_NE(Text.find("FOR t0 IN delta_p"), std::string::npos);
  EXPECT_NE(Text.find("BREAK (new_p = EMPTY)"), std::string::npos);
  EXPECT_NE(Text.find("MERGE new_p INTO p"), std::string::npos);
  EXPECT_NE(Text.find("SWAP (delta_p, new_p)"), std::string::npos);
  EXPECT_NE(Text.find("CLEAR new_p"), std::string::npos);
  // The recursive version guards against rederiving known tuples.
  EXPECT_NE(Text.find("IF (NOT ((t0.0,t1.1) IN p))"), std::string::npos);
}

TEST(AstToRamTest, MutualRecursionCreatesVersionsPerDelta) {
  auto T = translateSource(
      ".decl e(a:number, b:number)\n"
      ".decl odd(a:number)\n.decl even(a:number)\n"
      "even(0).\n"
      "odd(y) :- even(x), e(x, y).\n"
      "even(y) :- odd(x), e(x, y).");
  std::string Text = ram::print(*T.Ram);
  EXPECT_NE(Text.find("delta_odd"), std::string::npos);
  EXPECT_NE(Text.find("delta_even"), std::string::npos);
  // Exit waits for both new relations to drain.
  EXPECT_NE(Text.find("BREAK ((new_odd = EMPTY) AND (new_even = EMPTY))"),
            std::string::npos);
}

TEST(AstToRamTest, NegationBecomesNotExists) {
  auto T = translateSource(
      ".decl a(x:number)\n.decl b(x:number)\n.decl c(x:number)\n"
      "c(x) :- a(x), !b(x).");
  std::string Text = ram::print(*T.Ram);
  EXPECT_NE(Text.find("IF (NOT ((t0.0) IN b))"), std::string::npos);
}

TEST(AstToRamTest, ConstantsInAtomsBecomeIndexScans) {
  auto T = translateSource(
      ".decl e(a:number, b:number)\n.decl r(x:number)\n"
      "r(y) :- e(42, y).");
  std::string Text = ram::print(*T.Ram);
  EXPECT_NE(Text.find("ON INDEX"), std::string::npos);
  EXPECT_NE(Text.find("42"), std::string::npos);
}

TEST(AstToRamTest, BoundVariableCreatesJoinIndexScan) {
  auto T = translateSource(
      ".decl e(a:number, b:number)\n.decl p(a:number, b:number)\n"
      "p(x, z) :- e(x, y), e(y, z).");
  std::string Text = ram::print(*T.Ram);
  // Second scan is an index scan keyed on the first scan's output.
  EXPECT_NE(Text.find("FOR t1 IN e ON INDEX"), std::string::npos);
}

TEST(AstToRamTest, EqualityBindingInlinesExpression) {
  auto T = translateSource(".decl a(x:number)\n.decl b(x:number)\n"
                           "b(y) :- a(x), y = x + 1.");
  std::string Text = ram::print(*T.Ram);
  EXPECT_NE(Text.find("INSERT (add(t0.0, 1)) INTO b"), std::string::npos);
}

TEST(AstToRamTest, RepeatedVariableInAtomBecomesSelfFilter) {
  auto T = translateSource(".decl e(a:number, b:number)\n.decl r(x:number)\n"
                           "r(x) :- e(x, x).");
  std::string Text = ram::print(*T.Ram);
  EXPECT_NE(Text.find("IF (t0.1 = t0.0)"), std::string::npos);
}

TEST(AstToRamTest, FactsBecomeInsertQueries) {
  auto T = translateSource(".decl a(x:number, s:symbol)\na(1, \"hi\").");
  std::string Text = ram::print(*T.Ram);
  // The symbol is interned; its ordinal appears in the insert.
  RamDomain Ordinal = T.symbols().lookup("hi");
  ASSERT_GE(Ordinal, 0);
  EXPECT_NE(Text.find("INSERT (1," + std::to_string(Ordinal) + ") INTO a"),
            std::string::npos);
}

TEST(AstToRamTest, IoDirectivesEmitLoadsAndStores) {
  auto T = translateSource(".decl in(x:number)\n.decl out(x:number)\n"
                           ".input in\n.output out\n.printsize out\n"
                           "out(x) :- in(x).");
  std::string Text = ram::print(*T.Ram);
  EXPECT_NE(Text.find("LOAD in"), std::string::npos);
  EXPECT_NE(Text.find("STORE out"), std::string::npos);
  EXPECT_NE(Text.find("PRINTSIZE out"), std::string::npos);
  // Loads precede the rule; stores follow it.
  EXPECT_LT(Text.find("LOAD in"), Text.find("QUERY"));
  EXPECT_GT(Text.find("STORE out"), Text.find("QUERY"));
}

TEST(AstToRamTest, ProfilingWrapsRulesInTimers) {
  auto T = translateSource(".decl a(x:number)\n.decl b(x:number)\n"
                           "b(x) :- a(x).");
  std::string Text = ram::print(*T.Ram);
  EXPECT_NE(Text.find("TIMER \"b(x) :- a(x).\""), std::string::npos);
}

TEST(AstToRamTest, EmptinessPrechecksEmitted) {
  auto T = translateSource(".decl a(x:number)\n.decl b(x:number)\n"
                           "b(x) :- a(x).");
  std::string Text = ram::print(*T.Ram);
  EXPECT_NE(Text.find("IF (NOT (a = EMPTY))"), std::string::npos);
}

TEST(AstToRamTest, AggregateBecomesAggregateOperation) {
  auto T = translateSource(
      ".decl e(a:number, b:number)\n.decl c(n:number)\n"
      "c(n) :- n = count : { e(_, _) }.");
  std::string Text = ram::print(*T.Ram);
  EXPECT_NE(Text.find("AGGREGATE OVER e"), std::string::npos);
}

TEST(AstToRamTest, AggregateWithInjectedVariable) {
  auto T = translateSource(
      ".decl e(a:number, b:number)\n.decl s(a:number, total:number)\n"
      ".decl n(a:number)\n"
      "s(x, t) :- n(x), t = sum y : { e(x, y) }.");
  std::string Text = ram::print(*T.Ram);
  // The aggregate pattern binds the injected x (column 0 of e).
  EXPECT_NE(Text.find("AGGREGATE OVER e ON (t0.0,_)"), std::string::npos);
  EXPECT_NE(Text.find("VALUE t1.1"), std::string::npos);
}

TEST(AstToRamTest, EqrelSccUsesNaiveEvaluation) {
  auto T = translateSource(
      ".decl pair(a:number, b:number)\n"
      ".decl eq(a:number, b:number) eqrel\n"
      "eq(a, b) :- pair(a, b).\n"
      "eq(a, c) :- eq(a, b), pair(b, c).");
  std::string Text = ram::print(*T.Ram);
  // Naive mode: no delta relation, but still a fixpoint loop with new_.
  EXPECT_EQ(Text.find("delta_eq"), std::string::npos);
  EXPECT_NE(Text.find("new_eq"), std::string::npos);
  EXPECT_NE(Text.find("LOOP"), std::string::npos);
}

TEST(AstToRamTest, CounterBecomesAutoIncrement) {
  auto T = translateSource(".decl a(x:number)\n.decl b(id:number, x:number)\n"
                           "b($, x) :- a(x).");
  std::string Text = ram::print(*T.Ram);
  EXPECT_NE(Text.find("autoinc()"), std::string::npos);
}

TEST(AstToRamTest, SemanticErrorsPropagate) {
  auto Parsed = ast::parseProgram(".decl a(x:number)\na(y) :- a(x).");
  ASSERT_TRUE(Parsed.succeeded());
  auto Info = ast::analyze(*Parsed.Prog);
  ASSERT_FALSE(Info.succeeded());
  SymbolTable Symbols;
  auto Translated = translateToRam(*Parsed.Prog, Info, Symbols);
  EXPECT_FALSE(Translated.succeeded());
  EXPECT_EQ(Translated.Prog, nullptr);
}

} // namespace
