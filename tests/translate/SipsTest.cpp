//===- tests/translate/SipsTest.cpp - Join-order planning tests ----------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The max-bound planner in isolation (orderAtoms over hand-built
/// descriptors) and end to end: golden RAM text for one 3-atom join, whose
/// main-program rule keeps source order while its maintenance versions
/// open with their driving atom and order the rest max-bound.
///
//===----------------------------------------------------------------------===//

#include "translate/Sips.h"

#include "core/Program.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace stird;
using namespace stird::translate;

namespace {

//===----------------------------------------------------------------------===//
// orderAtoms unit tests
//===----------------------------------------------------------------------===//

SipsAtom atom(std::vector<std::string> Vars) {
  SipsAtom A;
  for (std::string &Var : Vars) {
    SipsColumn Col;
    if (!Var.empty()) {
      Col.Vars = {Var};
      Col.Binds = Var;
    } else {
      Col.Ground = true; // a constant column
    }
    A.Columns.push_back(std::move(Col));
  }
  return A;
}

TEST(SipsOrderTest, MaxBoundFloatsGroundAtomsForward) {
  // a(x, y), b(y, w), c(w, <const>): c starts with one ground column, so
  // max-bound opens with it, then chains through the shared variables.
  std::vector<SipsAtom> Atoms = {atom({"x", "y"}), atom({"y", "w"}),
                                 atom({"w", ""})};
  EXPECT_EQ(orderAtoms(Atoms), (std::vector<std::size_t>{2, 1, 0}));
}

TEST(SipsOrderTest, MaxBoundBreaksTiesBySourceIndex) {
  std::vector<SipsAtom> Atoms = {atom({"x"}), atom({"y"}), atom({"z"})};
  EXPECT_EQ(orderAtoms(Atoms), (std::vector<std::size_t>{0, 1, 2}));
}

TEST(SipsOrderTest, EqualityClosureGroundsDerivedVariables) {
  // With `y = <const>` in the body, the atom over y is effectively fully
  // bound and floats ahead of the unbound one.
  std::vector<SipsAtom> Atoms = {atom({"x"}), atom({"y"})};
  const std::vector<SipsEquality> Equalities = {{"y", {}}};
  EXPECT_EQ(orderAtoms(Atoms, Equalities), (std::vector<std::size_t>{1, 0}));
}

TEST(SipsOrderTest, PinnedDriverOpensTheOrder) {
  // MaxBoundFloatsGroundAtomsForward's body with a(x, y) pinned first, as
  // a maintenance version pins its driver: b is keyed by y, then c is
  // fully bound.
  std::vector<SipsAtom> Atoms = {atom({"x", "y"}), atom({"y", "w"}),
                                 atom({"w", ""})};
  EXPECT_EQ(orderAtoms(Atoms, {}, /*Pinned=*/1),
            (std::vector<std::size_t>{0, 1, 2}));
}

//===----------------------------------------------------------------------===//
// Golden RAM: source order for main, driver-first max-bound for maintenance
//===----------------------------------------------------------------------===//

constexpr const char *Join3 = R"(
.decl a(x:number, y:number)
.decl b(x:number, y:number)
.decl c(x:number, y:number)
.decl out(x:number, y:number)
out(x, w) :- a(x, y), b(y, w), c(w, 1).
)";

std::unique_ptr<core::Program> compileJoin3(bool EmitMaintenance) {
  core::CompileOptions Options;
  Options.EmitMaintenance = EmitMaintenance;
  std::vector<std::string> Errors;
  auto Prog = core::Program::fromSource(Join3, &Errors, Options);
  EXPECT_NE(Prog, nullptr) << (Errors.empty() ? "" : Errors[0]);
  return Prog;
}

TEST(SipsOrderTest, SourceIsAlwaysIdentity) {
  // The main program is never reordered, even next to a maintenance plan
  // and where max-bound would open with c: its timer carries no order.
  auto Prog = compileJoin3(/*EmitMaintenance=*/true);
  ASSERT_NE(Prog, nullptr);
  const std::string Ram = Prog->dumpRam();
  EXPECT_NE(Ram.find("TIMER \"out(x, w) :- a(x, y), b(y, w), c(w, 1).\"\n"),
            std::string::npos)
      << Ram;
}

TEST(SipsGoldenTest, SourceKeepsTextualOrder) {
  auto Prog = compileJoin3(/*EmitMaintenance=*/false);
  ASSERT_NE(Prog, nullptr);
  const std::string Ram = Prog->dumpRam();
  EXPECT_NE(Ram.find("TIMER \"out(x, w) :- a(x, y), b(y, w), c(w, 1).\"\n"
                     "  QUERY\n"
                     "    IF (((NOT (a = EMPTY)) AND (NOT (b = EMPTY))) AND "
                     "(NOT (c = EMPTY)))\n"
                     "      FOR t0 IN a\n"
                     "        FOR t1 IN b ON INDEX (t0.1,_)\n"
                     "          FOR t2 IN c ON INDEX (t1.1,1)\n"
                     "            INSERT (t0.0,t1.1) INTO out\n"
                     "END TIMER"),
            std::string::npos)
      << Ram;
}

TEST(SipsGoldenTest, MaxBoundOpensWithTheGroundedAtom) {
  // The [ins] version driven by b's insertions keeps its driver first;
  // max-bound then takes c, fully bound by w and the constant, before a.
  auto Prog = compileJoin3(/*EmitMaintenance=*/true);
  ASSERT_NE(Prog, nullptr);
  const std::string Ram = Prog->dumpRam();
  EXPECT_NE(
      Ram.find("TIMER \"out(x, w) :- delta_ins_b(y, w), a(x, y), c(w, 1). "
               "[ins]\" sips=max-bound order=[0,2,1]\n"
               "  QUERY\n"
               "    IF (((NOT (delta_ins_b = EMPTY)) AND (NOT (c = EMPTY))) "
               "AND (NOT (a = EMPTY)))\n"
               "      FOR t0 IN delta_ins_b\n"
               "        FOR t1 IN c ON INDEX (t0.1,1)\n"
               "          FOR t2 IN a ON INDEX (_,t0.0)\n"
               "            IF (NOT ((t2.0,t0.1) IN out))\n"
               "              INSERT (t2.0,t0.1) INTO new_out\n"
               "END TIMER"),
      std::string::npos)
      << Ram;
}

} // namespace
