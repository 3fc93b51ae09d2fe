//===- translate/Sips.h - Join-order selection for rule bodies --*- C++ -*-===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sideways-information-passing (SIPS) for maintenance rule bodies. The
/// main program keeps every body in source order, as the paper's STI runs
/// rule bodies in the order the translator emits them. A maintenance rule
/// version opens with its driving atom (the hoisted delta pivot or the
/// prepended DRed candidate), and max-bound orders the atoms after it: a
/// greedy heuristic choosing, at each step, the atom with the most bound
/// columns, so fully bound atoms (pure existence checks) come first and
/// every later scan is keyed by the driver's bindings.
///
/// The chosen permutation is purely a planning decision: any order yields
/// the same fixpoint, only the run time changes.
///
//===----------------------------------------------------------------------===//

#ifndef STIRD_TRANSLATE_SIPS_H
#define STIRD_TRANSLATE_SIPS_H

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace stird::translate {

/// One column of a body atom, as the planner sees it.
struct SipsColumn {
  /// Every variable occurring in the argument (empty for `_`, constants).
  std::vector<std::string> Vars;
  /// True when the argument is variable-free (a constant expression): the
  /// column is bound no matter where the atom is placed.
  bool Ground = false;
  /// The variable this column binds when scanned, i.e. the argument is a
  /// lone variable ("" otherwise — compound arguments only check, they
  /// never bind).
  std::string Binds;
};

/// One positive body atom, as the planner sees it.
struct SipsAtom {
  std::vector<SipsColumn> Columns;
};

/// A variable the body can derive by equality once others are bound: the
/// pair (bound variable, variables its defining expression needs). An
/// equality `x = 3` contributes ("x", {}); `y = x + 1` contributes
/// ("y", {"x"}).
using SipsEquality = std::pair<std::string, std::vector<std::string>>;

/// Orders \p Atoms max-bound first. The first \p Pinned atoms keep their
/// positions and their bindings seed the greedy choice of the rest.
/// Returns the permutation as a list of indices into \p Atoms: element i
/// names the atom emitted at depth i. Deterministic — every tie keeps the
/// earlier atom of \p Atoms.
std::vector<std::size_t>
orderAtoms(const std::vector<SipsAtom> &Atoms,
           const std::vector<SipsEquality> &Equalities = {},
           std::size_t Pinned = 0);

} // namespace stird::translate

#endif // STIRD_TRANSLATE_SIPS_H
