//===- tests/support/ProgramGen.cpp - Random Datalog programs ------------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//

#include "ProgramGen.h"

#include <iterator>
#include <set>

namespace stird::testgen {
namespace {

/// The variable pool. Small on purpose: picking argument variables
/// uniformly from six names makes repeated variables within one atom (a
/// self-join constraint the planner must preserve) common rather than rare.
constexpr const char *VarPool[] = {"a", "b", "c", "d", "e", "f"};
constexpr std::size_t NumVars = sizeof(VarPool) / sizeof(VarPool[0]);

/// Constants live in [0, MaxConst]; facts draw from the same domain, so
/// the whole universe has MaxConst + 1 values and every fixpoint is tiny.
constexpr std::size_t MaxConst = 6;

struct RelInfo {
  std::string Name;
  std::size_t Arity;
  /// Stratum: 0 for base relations, 1 + layer for derived ones. A rule for
  /// a relation in stratum S may negate only relations in strata < S.
  std::size_t Stratum;
};

std::string constant(Rng &R) { return std::to_string(R.below(MaxConst + 1)); }

/// One positive or negated body atom over \p Rel. Positive atoms draw
/// arguments from the whole pool (binding them); negated atoms must stay
/// grounded, so they only reuse \p Bound variables or constants.
std::string atomText(Rng &R, const RelInfo &Rel,
                     const std::vector<std::string> *Bound,
                     std::vector<std::string> *Binds) {
  std::string Text = Rel.Name + "(";
  for (std::size_t I = 0; I < Rel.Arity; ++I) {
    if (I > 0)
      Text += ", ";
    if (Bound) { // negated: grounded arguments only
      if (!Bound->empty() && R.chance(70))
        Text += (*Bound)[R.below(Bound->size())];
      else
        Text += constant(R);
      continue;
    }
    const std::size_t Roll = R.below(100);
    if (Roll < 65) {
      const std::string &Var = VarPool[R.below(NumVars)];
      Text += Var;
      Binds->push_back(Var);
    } else if (Roll < 85) {
      Text += constant(R);
    } else {
      Text += "_";
    }
  }
  return Text + ")";
}

void dedup(std::vector<std::string> &Names) {
  std::vector<std::string> Unique;
  for (const std::string &Name : Names) {
    bool Seen = false;
    for (const std::string &Other : Unique)
      Seen = Seen || Other == Name;
    if (!Seen)
      Unique.push_back(Name);
  }
  Names = std::move(Unique);
}

/// A constant of an arithmetic chain: the two's-complement edge values
/// (where division, modulo and shifts must wrap, not trap) or a small one.
std::string chainConstant(Rng &C) {
  static constexpr const char *Edges[] = {"-2147483648", "2147483647", "-1",
                                          "0"};
  return C.chance(50) ? Edges[C.below(4)] : std::to_string(C.range(1, 33));
}

/// One side of a chain comparison: a bound variable, alone or combined
/// with a constant or another bound variable by one or two integer
/// functors. The second functor sees the first one's result, which can be
/// negative or wrapped although every variable lies in [0, MaxConst].
std::string chainTerm(Rng &C, const std::vector<std::string> &Bound) {
  static constexpr const char *Ops[] = {"+",   "-",   "*",    "/",    "%",
                                        "band", "bor", "bxor", "bshl", "bshr"};
  std::string Term = Bound[C.below(Bound.size())];
  if (C.chance(20))
    return Term;
  const std::size_t Depth = C.chance(40) ? 2 : 1;
  for (std::size_t I = 0; I < Depth; ++I) {
    const std::string Rhs =
        C.chance(70) ? chainConstant(C) : Bound[C.below(Bound.size())];
    Term = "(" + Term + " " + Ops[C.below(10)] + " " + Rhs + ")";
  }
  return Term;
}

/// 2-4 comparisons over arithmetic on bound variables: a filter chain the
/// interpreter fuses into one micro-program.
void appendChain(Rng &C, const std::vector<std::string> &Bound,
                 std::vector<std::string> &Body) {
  static constexpr const char *Cmps[] = {"<", "<=", ">", ">=", "=", "!="};
  const std::size_t Length = C.range(2, 4);
  for (std::size_t I = 0; I < Length; ++I) {
    const std::string Rhs =
        C.chance(50) ? chainTerm(C, Bound) : chainConstant(C);
    Body.push_back(chainTerm(C, Bound) + " " + Cmps[C.below(6)] + " " + Rhs);
  }
}

/// Emits one rule for \p Head. \p Positives are the relations its body may
/// read (base + earlier layers + Head itself); \p Negatables are the
/// strictly-earlier relations a negation may target. \p Chains, when
/// set, is the separate stream that decides and draws arithmetic chains,
/// so \p R's draws are the same with and without them.
std::string ruleText(Rng &R, const RelInfo &Head,
                     const std::vector<const RelInfo *> &Positives,
                     const std::vector<const RelInfo *> &Negatables,
                     Rng *Chains) {
  std::vector<std::string> Body;
  std::vector<std::string> Bound;

  const std::size_t NumAtoms = R.range(1, 3);
  for (std::size_t I = 0; I < NumAtoms; ++I) {
    const RelInfo &Rel = *Positives[R.below(Positives.size())];
    Body.push_back(atomText(R, Rel, nullptr, &Bound));
  }
  dedup(Bound);

  // An equality-defined variable: `g = 4` grounds g without any atom
  // binding it, exercising the planner's equality closure.
  if (R.chance(25)) {
    Bound.push_back("g");
    Body.push_back("g = " + constant(R));
  }

  // A comparison constraint over what is already bound.
  if (!Bound.empty() && R.chance(30)) {
    static constexpr const char *Ops[] = {"<", "<=", ">", ">=", "!="};
    const std::string &Lhs = Bound[R.below(Bound.size())];
    const std::string Rhs =
        R.chance(50) ? Bound[R.below(Bound.size())] : constant(R);
    Body.push_back(Lhs + " " + Ops[R.below(5)] + " " + Rhs);
  }

  if (Chains && !Bound.empty() && Chains->chance(40))
    appendChain(*Chains, Bound, Body);

  // Stratified negation over a strictly earlier relation.
  if (!Negatables.empty() && R.chance(30)) {
    const RelInfo &Rel = *Negatables[R.below(Negatables.size())];
    Body.push_back("!" + atomText(R, Rel, &Bound, nullptr));
  }

  std::string Text = Head.Name + "(";
  for (std::size_t I = 0; I < Head.Arity; ++I) {
    if (I > 0)
      Text += ", ";
    if (!Bound.empty() && R.chance(80))
      Text += Bound[R.below(Bound.size())];
    else
      Text += constant(R);
  }
  Text += ") :- ";
  for (std::size_t I = 0; I < Body.size(); ++I) {
    if (I > 0)
      Text += ", ";
    Text += Body[I];
  }
  return Text + ".";
}

} // namespace

GeneratedProgram generateProgram(std::uint64_t Seed, bool ArithChains) {
  Rng R(Seed * 0x2545f4914f6cdd1dULL + 1);
  // The chains' own stream (own multiplier): the rest of the program is
  // byte-identical to the one drawn without chains.
  Rng ChainRng(Seed * 0xd1342543de82ef95ULL + 0x2545f4914f6cdd1dULL);
  Rng *Chains = ArithChains ? &ChainRng : nullptr;
  GeneratedProgram Prog;
  Prog.Seed = Seed;
  std::string &Src = Prog.Source;
  std::vector<RelInfo> Rels;

  // Base relations and their facts (body-less clauses, so the program is
  // self-contained: no fact files, no programmatic inserts).
  const std::size_t NumBase = R.range(1, 3);
  for (std::size_t I = 0; I < NumBase; ++I)
    Rels.push_back({"b" + std::to_string(I), R.range(1, 3), 0});

  const std::size_t NumLayers = R.range(1, 3);
  for (std::size_t L = 0; L < NumLayers; ++L) {
    const std::size_t NumDerived = R.range(1, 2);
    for (std::size_t I = 0; I < NumDerived; ++I)
      Rels.push_back(
          {"d" + std::to_string(Rels.size() - NumBase), R.range(1, 3), L + 1});
  }

  for (const RelInfo &Rel : Rels) {
    Src += ".decl " + Rel.Name + "(";
    for (std::size_t I = 0; I < Rel.Arity; ++I)
      Src += (I > 0 ? ", c" : "c") + std::to_string(I) + ":number";
    Src += ")\n";
    Prog.Relations.push_back(Rel.Name);
    if (Rel.Stratum == 0)
      Prog.BaseRelations.emplace_back(Rel.Name, Rel.Arity);
  }
  Src += "\n";
  const std::size_t DeclEnd = Src.size();

  for (const RelInfo &Rel : Rels) {
    if (Rel.Stratum != 0)
      continue;
    const std::size_t NumFacts = R.range(2, 10);
    for (std::size_t I = 0; I < NumFacts; ++I) {
      GeneratedFact Fact;
      Fact.Relation = Rel.Name;
      Src += Rel.Name + "(";
      for (std::size_t Col = 0; Col < Rel.Arity; ++Col) {
        const int V = static_cast<int>(R.below(MaxConst + 1));
        Fact.Values.push_back(V);
        Src += (Col > 0 ? ", " : "") + std::to_string(V);
      }
      Src += ").\n";
      Prog.Facts.push_back(std::move(Fact));
    }
  }
  Src += "\n";
  const std::size_t FactEnd = Src.size();

  for (const RelInfo &Rel : Rels) {
    if (Rel.Stratum == 0)
      continue;
    // Bodies may read base relations, anything from earlier layers, and
    // the relation itself (recursion — once for linear, twice or more for
    // nonlinear, as the draw falls). Negation sees only earlier strata.
    std::vector<const RelInfo *> Positives, Negatables;
    for (const RelInfo &Other : Rels) {
      if (Other.Stratum < Rel.Stratum) {
        Positives.push_back(&Other);
        Negatables.push_back(&Other);
      } else if (&Other == &Rel) {
        Positives.push_back(&Other);
      }
    }
    const std::size_t NumRules = R.range(1, 3);
    for (std::size_t I = 0; I < NumRules; ++I)
      Src += ruleText(R, Rel, Positives, Negatables, Chains) + "\n";
  }

  Prog.RulesOnly = Src.substr(0, DeclEnd) + Src.substr(FactEnd);
  return Prog;
}

GeneratedProgram generateSkewedProgram(std::uint64_t Seed) {
  GeneratedProgram Prog = generateProgram(Seed);
  // A fresh RNG stream (different multiplier) keeps the base program's
  // text byte-identical to generateProgram(Seed) for the same seed.
  Rng R(Seed * 0x9e3779b97f4a7c15ULL + 0xda3e39cb94b95bdbULL);
  std::string &Src = Prog.Source;
  Src += "\n";
  for (const auto &[Name, Arity] : Prog.BaseRelations) {
    const std::size_t NumFacts = R.range(40, 60);
    for (std::size_t I = 0; I < NumFacts; ++I) {
      // ~90% of the rows share the hub value in column 0, so every join
      // keyed on that column concentrates in a handful of morsels.
      GeneratedFact Fact;
      Fact.Relation = Name;
      Src += Name + "(";
      for (std::size_t Col = 0; Col < Arity; ++Col) {
        if (Col > 0)
          Src += ", ";
        const int V = Col == 0 && !R.chance(10)
                          ? 0
                          : static_cast<int>(R.below(MaxConst + 1));
        Fact.Values.push_back(V);
        Src += std::to_string(V);
      }
      Src += ").\n";
      Prog.Facts.push_back(std::move(Fact));
    }
  }
  return Prog;
}

std::vector<GeneratedOp> generateMixedStream(const GeneratedProgram &Prog,
                                             std::uint64_t Seed,
                                             std::size_t NumOps) {
  // An independent stream (own multiplier), so the program text for the
  // same seed is unaffected by whether a stream was drawn.
  Rng R(Seed * 0x6c8e9cf570932bd5ULL + 0x9e3779b97f4a7c15ULL);
  std::vector<std::set<std::vector<int>>> Live(Prog.BaseRelations.size());
  for (const GeneratedFact &Fact : Prog.Facts)
    for (std::size_t I = 0; I < Prog.BaseRelations.size(); ++I)
      if (Prog.BaseRelations[I].first == Fact.Relation)
        Live[I].insert(Fact.Values);

  std::vector<GeneratedOp> Ops;
  for (std::size_t I = 0; I < NumOps; ++I) {
    const std::size_t Rel = R.below(Prog.BaseRelations.size());
    const auto &[Name, Arity] = Prog.BaseRelations[Rel];
    const bool Retract = !Live[Rel].empty() && R.chance(40);
    std::vector<int> Values;
    if (Retract && R.chance(85)) {
      // Retract a live tuple (85% of retractions hit something).
      auto It = Live[Rel].begin();
      std::advance(It, R.below(Live[Rel].size()));
      Values = *It;
    } else {
      for (std::size_t Col = 0; Col < Arity; ++Col)
        Values.push_back(static_cast<int>(R.below(MaxConst + 1)));
    }
    if (Retract)
      Live[Rel].erase(Values);
    else
      Live[Rel].insert(Values);
    Ops.push_back({Name, std::move(Values), Retract});
  }
  return Ops;
}

std::string withStructure(const std::string &Source,
                          const std::string &Structure) {
  std::string Out;
  std::size_t Begin = 0;
  while (Begin < Source.size()) {
    std::size_t End = Source.find('\n', Begin);
    if (End == std::string::npos)
      End = Source.size();
    Out.append(Source, Begin, End - Begin);
    if (Source.compare(Begin, 6, ".decl ") == 0)
      Out += " " + Structure;
    if (End < Source.size())
      Out += '\n';
    Begin = End + 1;
  }
  return Out;
}

} // namespace stird::testgen
