//===- tests/support/ProgramGen.h - Random Datalog programs -----*- C++ -*-===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A seeded generator of small, valid, always-terminating Datalog programs
/// for differential testing: the same seed always yields the same source
/// text, so a failing seed reported by the fuzz harness reproduces exactly.
///
/// The generated programs are stratified *by construction* — a derived
/// relation's rules only read base relations, relations of strictly earlier
/// layers, and (positively) the relation itself — and cover the planner's
/// interesting shapes: linear and nonlinear recursion, negation, constant
/// arguments, repeated variables, wildcards, comparison constraints,
/// equality-defined variables and, on request, arithmetic filter chains. All columns are numbers over a small domain
/// and no arithmetic feeds back into heads, so every fixpoint is finite.
///
//===----------------------------------------------------------------------===//

#ifndef STIRD_TESTS_SUPPORT_PROGRAMGEN_H
#define STIRD_TESTS_SUPPORT_PROGRAMGEN_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace stird::testgen {

/// Deterministic 64-bit generator (SplitMix64): tiny, fast, and stable
/// across platforms — the properties a reproducible fuzz seed needs.
class Rng {
public:
  explicit Rng(std::uint64_t Seed) : State(Seed) {}

  std::uint64_t next() {
    std::uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }

  /// Uniform value in [0, Bound). Bound must be positive.
  std::size_t below(std::size_t Bound) {
    return static_cast<std::size_t>(next() % Bound);
  }

  /// Uniform value in [Lo, Hi] inclusive.
  std::size_t range(std::size_t Lo, std::size_t Hi) {
    return Lo + below(Hi - Lo + 1);
  }

  /// True with probability Percent/100.
  bool chance(std::size_t Percent) { return below(100) < Percent; }

private:
  std::uint64_t State;
};

/// One base-relation fact, as values rather than text: the incremental
/// harness seeds engines programmatically and needs the tuples, not the
/// clause lines.
struct GeneratedFact {
  std::string Relation;
  std::vector<int> Values;
};

/// One operation of a mixed update stream over the base relations.
struct GeneratedOp {
  std::string Relation;
  std::vector<int> Values;
  bool Retract = false;
};

/// A generated program plus the metadata the differential harness needs.
struct GeneratedProgram {
  std::uint64_t Seed = 0;
  /// Complete source text: declarations, facts, rules.
  std::string Source;
  /// The same program without its fact block: the incremental harness
  /// compiles this and feeds the facts programmatically, so retractions
  /// of initial facts are expressible (a fresh oracle run of Source would
  /// silently re-derive facts baked into the text).
  std::string RulesOnly;
  /// Every declared relation, in declaration order; the harness compares
  /// the full contents of each across configurations.
  std::vector<std::string> Relations;
  /// The base (stratum-0) relations with their arities, in declaration
  /// order: generateSkewedProgram appends its hub facts to these.
  std::vector<std::pair<std::string, std::size_t>> BaseRelations;
  /// The fact block of Source, as values (same order as the text).
  std::vector<GeneratedFact> Facts;
};

/// Generates the program for \p Seed. Total work per program is bounded
/// (small relation counts, arities <= 3, constants in [0, 6]), so a run
/// under any strategy and thread count finishes in milliseconds. With
/// \p ArithChains, some rules also get a chain of 2-4 comparisons over
/// integer arithmetic on bound variables (+ - * / % band bor bxor bshl
/// bshr, constants from INT_MIN, INT_MAX, -1, 0 and 1-33), drawn from a
/// separate stream: the program is the one drawn without chains plus those
/// filters.
GeneratedProgram generateProgram(std::uint64_t Seed, bool ArithChains = false);

/// generateProgram(Seed) plus a skew-heavy fact block: every base relation
/// gains 40-60 extra facts whose first column is the hub value 0 for ~90%
/// of rows. Join work then concentrates in the morsels that scan the hub,
/// making work-stealing (not static partitioning) carry the load — the
/// adversarial schedule for cross-thread determinism sweeps. The base
/// program's text is byte-identical to generateProgram(Seed); the extra
/// facts come from an independent RNG stream.
GeneratedProgram generateSkewedProgram(std::uint64_t Seed);

/// Generates a mixed insert/retract stream of \p NumOps operations over
/// \p Prog's base relations. Deterministic in \p Seed. Roughly 40% of the
/// draws are retractions, biased (85%) towards tuples actually live at
/// that point of the stream — initial facts included — so deletions do
/// real derivation work; the rest miss or duplicate on purpose. Values
/// stay inside the generator's constant domain.
std::vector<GeneratedOp> generateMixedStream(const GeneratedProgram &Prog,
                                             std::uint64_t Seed,
                                             std::size_t NumOps);

/// \p Source with the `.decl` qualifier \p Structure ("btree", "brie")
/// appended to every declaration line, so every relation — and the
/// delta_/new_/@edb auxiliaries, which inherit their relation's structure
/// — lives on that substrate. Works on any source text (minimization
/// candidates included), not just generator output.
std::string withStructure(const std::string &Source,
                          const std::string &Structure);

} // namespace stird::testgen

#endif // STIRD_TESTS_SUPPORT_PROGRAMGEN_H
