//===- translate/Sips.cpp - Join-order selection for rule bodies --------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//

#include "translate/Sips.h"

#include <algorithm>
#include <unordered_set>

using namespace stird;
using namespace stird::translate;

//===----------------------------------------------------------------------===//
// orderAtoms
//===----------------------------------------------------------------------===//

namespace {

/// The set of variables bound so far plus the equality-derivation rules;
/// closes over equalities so `x = 3, y = x + 1` marks both x and y bound.
class BoundSet {
public:
  BoundSet(const std::vector<SipsEquality> &Equalities)
      : Equalities(Equalities) {
    close();
  }

  bool contains(const std::string &Var) const { return Bound.count(Var); }

  void bindAtom(const SipsAtom &Atom) {
    for (const SipsColumn &Col : Atom.Columns)
      if (!Col.Binds.empty())
        Bound.insert(Col.Binds);
    close();
  }

  /// A column is bound when its value is computable before the scan: it is
  /// a ground expression, or every variable it mentions is already bound.
  /// Wildcards (no vars, not ground) are never bound.
  bool columnBound(const SipsColumn &Col) const {
    if (Col.Ground)
      return true;
    if (Col.Vars.empty())
      return false;
    return std::all_of(Col.Vars.begin(), Col.Vars.end(),
                       [&](const std::string &V) { return contains(V); });
  }

  std::size_t boundColumns(const SipsAtom &Atom) const {
    std::size_t N = 0;
    for (const SipsColumn &Col : Atom.Columns)
      N += columnBound(Col);
    return N;
  }

private:
  void close() {
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (const SipsEquality &Eq : Equalities) {
        if (Bound.count(Eq.first))
          continue;
        if (std::all_of(Eq.second.begin(), Eq.second.end(),
                        [&](const std::string &V) { return Bound.count(V); })) {
          Bound.insert(Eq.first);
          Changed = true;
        }
      }
    }
  }

  const std::vector<SipsEquality> &Equalities;
  std::unordered_set<std::string> Bound;
};

} // namespace

std::vector<std::size_t>
stird::translate::orderAtoms(const std::vector<SipsAtom> &Atoms,
                             const std::vector<SipsEquality> &Equalities,
                             std::size_t Pinned) {
  std::vector<std::size_t> Order;
  Order.reserve(Atoms.size());
  BoundSet Bound(Equalities);
  std::vector<bool> Placed(Atoms.size(), false);
  for (std::size_t I = 0; I < Pinned && I < Atoms.size(); ++I) {
    Placed[I] = true;
    Order.push_back(I);
    Bound.bindAtom(Atoms[I]);
  }
  while (Order.size() < Atoms.size()) {
    std::size_t Best = Atoms.size();
    std::size_t BestBound = 0;
    for (std::size_t I = 0; I < Atoms.size(); ++I) {
      if (Placed[I])
        continue;
      // Most bound columns first; fully bound beats everything (the scan
      // degenerates to an existence check). Ties keep the earlier atom:
      // only a strict win replaces the current best.
      const std::size_t BoundI = Bound.boundColumns(Atoms[I]);
      if (Best == Atoms.size()) {
        Best = I;
        BestBound = BoundI;
        continue;
      }
      const bool FullI = BoundI == Atoms[I].Columns.size();
      const bool FullBest = BestBound == Atoms[Best].Columns.size();
      if (FullI != FullBest ? FullI : BoundI > BestBound) {
        Best = I;
        BestBound = BoundI;
      }
    }
    Placed[Best] = true;
    Order.push_back(Best);
    Bound.bindAtom(Atoms[Best]);
  }
  return Order;
}
