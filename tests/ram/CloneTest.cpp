//===- tests/ram/CloneTest.cpp - Deep-clone audit ------------------------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The clone audit: every RAM node kind must survive clone() byte for byte
/// under the printer, over a kitchen-sink program exercising recursion
/// (Loop/Exit/Swap/MergeInto), negation (Negation/ExistenceCheck),
/// aggregates, constants and compound arguments (Intrinsic), IO directives
/// and printsize, and the planner's LogTimer annotations.
///
//===----------------------------------------------------------------------===//

#include "ram/Clone.h"

#include "core/Program.h"
#include "ram/RamPrinter.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace stird;

namespace {

/// Recursion, nonlinear recursion, negation, aggregates, arithmetic,
/// constants, repeated variables, wildcards, IO — one of everything the
/// translator can emit.
constexpr const char *KitchenSink = R"(
.decl edge(a:number, b:number)
.decl path(a:number, b:number)
.decl blocked(a:number)
.decl safe(a:number, b:number)
.decl stats(n:number, total:number)
.decl same(a:number)
.input edge
.output path
.printsize safe

blocked(3).
blocked(5).

path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), path(y, z).
safe(x, y) :- path(x, y), !blocked(y), x != y.
same(x) :- edge(x, x).
stats(n, t) :- n = count : { path(_, _) }, t = sum y : { edge(3, y) }.
)";

std::shared_ptr<core::Program> compile(const char *Source) {
  std::vector<std::string> Errors;
  auto Prog = core::Program::fromSource(Source, &Errors);
  EXPECT_NE(Prog, nullptr) << (Errors.empty() ? "" : Errors[0]);
  return Prog;
}

TEST(CloneTest, StatementCloneRoundTripsThroughPrinter) {
  auto Prog = compile(KitchenSink);
  ASSERT_NE(Prog, nullptr);
  const ram::Statement &Main = Prog->getRam().getMain();
  ram::StmtPtr Copy = ram::clone(Main);
  EXPECT_EQ(ram::print(Main), ram::print(*Copy));
}

} // namespace
