//===- tests/ast/ParserTest.cpp - Parser tests ---------------------------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//

#include "ast/Parser.h"

#include <gtest/gtest.h>

using namespace stird;
using namespace stird::ast;

namespace {

std::unique_ptr<Program> parseOk(const std::string &Source) {
  ParseResult Result = parseProgram(Source);
  EXPECT_TRUE(Result.succeeded())
      << (Result.Errors.empty() ? "" : Result.Errors[0]);
  return std::move(Result.Prog);
}

TEST(ParserTest, RelationDeclaration) {
  auto Prog = parseOk(".decl edge(a:number, b:number)");
  ASSERT_EQ(Prog->Relations.size(), 1u);
  const RelationDecl &Rel = *Prog->Relations[0];
  EXPECT_EQ(Rel.getName(), "edge");
  ASSERT_EQ(Rel.getArity(), 2u);
  EXPECT_EQ(Rel.getAttributes()[0].Name, "a");
  EXPECT_EQ(Rel.getAttributes()[0].Type, TypeKind::Number);
  EXPECT_EQ(Rel.getStructure(), StructureKind::Btree);
}

TEST(ParserTest, AllAttributeTypes) {
  auto Prog = parseOk(".decl r(a:number, b:unsigned, c:float, d:symbol)");
  const auto &Attrs = Prog->Relations[0]->getAttributes();
  EXPECT_EQ(Attrs[0].Type, TypeKind::Number);
  EXPECT_EQ(Attrs[1].Type, TypeKind::Unsigned);
  EXPECT_EQ(Attrs[2].Type, TypeKind::Float);
  EXPECT_EQ(Attrs[3].Type, TypeKind::Symbol);
}

TEST(ParserTest, StructureQualifiers) {
  auto Prog = parseOk(".decl a(x:number) brie\n"
                      ".decl b(x:number, y:number) eqrel\n"
                      ".decl c(x:number) btree");
  EXPECT_EQ(Prog->Relations[0]->getStructure(), StructureKind::Brie);
  EXPECT_EQ(Prog->Relations[1]->getStructure(), StructureKind::Eqrel);
  EXPECT_EQ(Prog->Relations[2]->getStructure(), StructureKind::Btree);
}

TEST(ParserTest, QualifierNamedRelationStartsTheNextClause) {
  // brie followed by '(' opens an atom: it is a clause head, not r's
  // qualifier.
  auto Prog = parseOk(".decl brie(x:number)\n"
                      ".decl r(x:number)\n"
                      "brie(1).");
  EXPECT_EQ(Prog->Relations[1]->getStructure(), StructureKind::Btree);
  ASSERT_EQ(Prog->Clauses.size(), 1u);
  EXPECT_EQ(Prog->Clauses[0]->getHead().getName(), "brie");
}

TEST(ParserTest, ErrorUnknownQualifierNamesItself) {
  ParseResult Result = parseProgram(".decl r(a:number) art\nr(1).");
  ASSERT_EQ(Result.Errors.size(), 1u);
  EXPECT_EQ(Result.Errors[0], "line 1:19: unknown structure qualifier 'art'");
}

TEST(ParserTest, ErrorQualifierArityNamesTheDeclaration) {
  ParseResult Eqrel = parseProgram(".decl e(a:number) eqrel\ne(1).");
  ASSERT_EQ(Eqrel.Errors.size(), 1u);
  EXPECT_EQ(Eqrel.Errors[0], "line 1:7: eqrel relation 'e' must be binary");
  std::string Wide = "\n.decl wide(";
  for (int I = 0; I < 9; ++I)
    Wide += (I ? ", a" : "a") + std::to_string(I) + ":number";
  ParseResult Brie = parseProgram(Wide + ") brie\nwide(1, 2, 3).");
  ASSERT_FALSE(Brie.Errors.empty());
  EXPECT_EQ(Brie.Errors[0].rfind("line 2:7: brie relation 'wide'", 0), 0u)
      << Brie.Errors[0];
}

TEST(ParserTest, IoDirectives) {
  auto Prog = parseOk(".decl e(a:number)\n.input e\n.output e(\"out.csv\")\n"
                      ".printsize e");
  const RelationDecl &Rel = *Prog->Relations[0];
  EXPECT_TRUE(Rel.isInput());
  EXPECT_TRUE(Rel.isOutput());
  EXPECT_TRUE(Rel.isPrintSize());
  EXPECT_EQ(Rel.getOutputPath(), "out.csv");
  EXPECT_TRUE(Rel.getInputPath().empty());
}

TEST(ParserTest, FactAndRule) {
  auto Prog = parseOk(".decl e(a:number, b:number)\n"
                      ".decl p(a:number, b:number)\n"
                      "e(1, 2).\n"
                      "p(x, y) :- e(x, y).\n"
                      "p(x, z) :- p(x, y), e(y, z).");
  ASSERT_EQ(Prog->Clauses.size(), 3u);
  EXPECT_TRUE(Prog->Clauses[0]->isFact());
  EXPECT_FALSE(Prog->Clauses[1]->isFact());
  EXPECT_EQ(Prog->Clauses[2]->getBody().size(), 2u);
  EXPECT_EQ(Prog->Clauses[2]->toString(),
            "p(x, z) :- p(x, y), e(y, z).");
}

TEST(ParserTest, NegationAndConstraints) {
  auto Prog = parseOk(".decl a(x:number)\n.decl b(x:number)\n"
                      "a(x) :- b(x), !a(x), x < 10, x != 3.");
  const auto &Body = Prog->Clauses[0]->getBody();
  ASSERT_EQ(Body.size(), 4u);
  EXPECT_EQ(Body[0]->getKind(), Literal::Kind::Atom);
  EXPECT_EQ(Body[1]->getKind(), Literal::Kind::Negation);
  EXPECT_EQ(Body[2]->getKind(), Literal::Kind::Constraint);
  EXPECT_EQ(static_cast<const Constraint &>(*Body[2]).getOp(),
            ConstraintOp::Lt);
  EXPECT_EQ(static_cast<const Constraint &>(*Body[3]).getOp(),
            ConstraintOp::Ne);
}

TEST(ParserTest, ArithmeticPrecedence) {
  auto Prog = parseOk(".decl a(x:number)\n.decl b(x:number)\n"
                      "a(x + 2 * 3) :- b(x).");
  const Argument &Head = *Prog->Clauses[0]->getHead().getArgs()[0];
  // x + (2 * 3), not (x + 2) * 3.
  EXPECT_EQ(Head.toString(), "(x + (2 * 3))");
}

TEST(ParserTest, PowerIsRightAssociative) {
  auto Prog = parseOk(".decl a(x:number)\n.decl b(x:number)\n"
                      "a(x ^ 2 ^ 3) :- b(x).");
  EXPECT_EQ(Prog->Clauses[0]->getHead().getArgs()[0]->toString(),
            "(x ^ (2 ^ 3))");
}

TEST(ParserTest, WordOperators) {
  auto Prog = parseOk(".decl a(x:number)\n.decl b(x:number)\n"
                      "a(x band 3 bor 1) :- b(x).");
  // band binds tighter than bor.
  EXPECT_EQ(Prog->Clauses[0]->getHead().getArgs()[0]->toString(),
            "((x band 3) bor 1)");
}

TEST(ParserTest, UnaryMinusFoldsIntoLiterals) {
  auto Prog = parseOk(".decl a(x:number)\na(-5).");
  const Argument &Arg = *Prog->Clauses[0]->getHead().getArgs()[0];
  ASSERT_EQ(Arg.getKind(), Argument::Kind::NumberConstant);
  EXPECT_EQ(static_cast<const NumberConstant &>(Arg).getValue(), -5);
}

TEST(ParserTest, NamedFunctors) {
  auto Prog = parseOk(
      ".decl a(s:symbol)\n.decl b(s:symbol)\n"
      "a(cat(s, \"x\")) :- b(s), strlen(s) > 2.");
  const Argument &Head = *Prog->Clauses[0]->getHead().getArgs()[0];
  ASSERT_EQ(Head.getKind(), Argument::Kind::Functor);
  EXPECT_EQ(static_cast<const Functor &>(Head).getOp(), FunctorOp::Cat);
}

TEST(ParserTest, MinMaxAsFunctorsAndAggregates) {
  // With '(': binary functor. Without: aggregate.
  auto Prog = parseOk(".decl a(x:number)\n.decl b(x:number)\n"
                      "a(min(x, 3)) :- b(x).\n"
                      "a(m) :- b(_), m = min y : { b(y) }.");
  const Argument &F = *Prog->Clauses[0]->getHead().getArgs()[0];
  ASSERT_EQ(F.getKind(), Argument::Kind::Functor);
  EXPECT_EQ(static_cast<const Functor &>(F).getOp(), FunctorOp::Min);

  const auto &Body = Prog->Clauses[1]->getBody();
  const auto &Eq = static_cast<const Constraint &>(*Body[1]);
  ASSERT_EQ(Eq.getRhs().getKind(), Argument::Kind::Aggregator);
  EXPECT_EQ(static_cast<const Aggregator &>(Eq.getRhs()).getOp(),
            AggregateOp::Min);
}

TEST(ParserTest, CountAggregate) {
  auto Prog = parseOk(".decl e(a:number, b:number)\n.decl c(n:number)\n"
                      "c(n) :- n = count : { e(_, _) }.");
  const auto &Eq =
      static_cast<const Constraint &>(*Prog->Clauses[0]->getBody()[0]);
  const auto &Agg = static_cast<const Aggregator &>(Eq.getRhs());
  EXPECT_EQ(Agg.getOp(), AggregateOp::Count);
  EXPECT_EQ(Agg.getTarget(), nullptr);
  EXPECT_EQ(Agg.getBody().size(), 1u);
}

TEST(ParserTest, CounterArgument) {
  auto Prog = parseOk(".decl a(x:number, y:number)\n.decl b(x:number)\n"
                      "a($, x) :- b(x).");
  EXPECT_EQ(Prog->Clauses[0]->getHead().getArgs()[0]->getKind(),
            Argument::Kind::Counter);
}

TEST(ParserTest, ErrorUndeclaredIoTarget) {
  ParseResult Result = parseProgram(".input nosuch");
  ASSERT_FALSE(Result.succeeded());
  EXPECT_NE(Result.Errors[0].find("undeclared"), std::string::npos);
}

TEST(ParserTest, ErrorMissingDot) {
  ParseResult Result =
      parseProgram(".decl a(x:number)\na(1)\na(2).");
  EXPECT_FALSE(Result.succeeded());
}

TEST(ParserTest, ErrorEqrelArity) {
  ParseResult Result = parseProgram(".decl e(a:number) eqrel");
  ASSERT_FALSE(Result.succeeded());
  EXPECT_NE(Result.Errors[0].find("binary"), std::string::npos);
}

TEST(ParserTest, ErrorArityLimit) {
  std::string Decl = ".decl wide(";
  for (int I = 0; I < 17; ++I) {
    if (I)
      Decl += ", ";
    Decl += "a" + std::to_string(I) + ":number";
  }
  Decl += ")";
  ParseResult Result = parseProgram(Decl);
  ASSERT_FALSE(Result.succeeded());
  EXPECT_NE(Result.Errors[0].find("maximum supported arity"),
            std::string::npos);
}

TEST(ParserTest, ErrorBrieArityLimit) {
  // Brie covers arities 1-8; a wider brie must fail here, not in the
  // relation factory.
  auto brieDecl = [](int Arity) {
    std::string Decl = ".decl wide(";
    for (int I = 0; I < Arity; ++I)
      Decl += (I ? ", a" : "a") + std::to_string(I) + ":number";
    return Decl + ") brie";
  };
  EXPECT_TRUE(parseProgram(brieDecl(8)).succeeded());
  ParseResult Result = parseProgram(brieDecl(9));
  ASSERT_FALSE(Result.succeeded());
  EXPECT_NE(Result.Errors[0].find("maximum supported brie arity 8"),
            std::string::npos)
      << Result.Errors[0];
}

TEST(ParserTest, ErrorRedefinition) {
  ParseResult Result =
      parseProgram(".decl a(x:number)\n.decl a(y:number)");
  ASSERT_FALSE(Result.succeeded());
  EXPECT_NE(Result.Errors[0].find("redefinition"), std::string::npos);
}

TEST(ParserTest, RecoveryProducesMultipleErrors) {
  ParseResult Result = parseProgram(".decl a(x:number)\n"
                                    "a( :- .\n"
                                    "a(1)\n"
                                    ".decl a(x:number)");
  EXPECT_GE(Result.Errors.size(), 2u);
}

TEST(ParserTest, ClauseRoundTripsThroughToString) {
  const std::string Text =
      "unsafe(y) :- unsafe(x), edge(x, y), !protect(y).";
  auto Prog = parseOk(".decl unsafe(a:number)\n"
                      ".decl edge(a:number, b:number)\n"
                      ".decl protect(a:number)\n" +
                      Text);
  EXPECT_EQ(Prog->Clauses[0]->toString(), Text);
}

} // namespace
