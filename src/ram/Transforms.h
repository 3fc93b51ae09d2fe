//===- ram/Transforms.h - RAM optimization passes ---------------*- C++ -*-===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Rewriting optimizations over RAM programs, applied before execution by
/// either backend (they are representation-level, so interpreter and
/// synthesizer benefit identically):
///
///  * constant folding — intrinsic applications over constant operands are
///    evaluated at compile time, constant comparisons collapse to
///    True/never-true, and trivial conjunctions simplify;
///  * filter merging — nested Filter(c1, Filter(c2, x)) chains become one
///    Filter over a conjunction. Besides saving bookkeeping, this is what
///    lets the Section 5.2 fused-condition super-instructions swallow a
///    whole multi-conjunct filter in a single dispatch.
///
/// Both passes rewrite every statement root (Program::rewriteRoots): main
/// and each maintenance statement alike.
///
//===----------------------------------------------------------------------===//

#ifndef STIRD_RAM_TRANSFORMS_H
#define STIRD_RAM_TRANSFORMS_H

#include "ram/Ram.h"
#include "util/SymbolTable.h"

#include <cstddef>

namespace stird::ram {

/// Counters reported by the passes (for tests and -v style diagnostics).
struct TransformStats {
  std::size_t FoldedExpressions = 0;
  std::size_t FoldedConditions = 0;
  std::size_t MergedFilters = 0;
};

/// Folds constant expressions and conditions throughout the program.
/// String intrinsics fold through \p Symbols (interning their results).
TransformStats foldConstants(Program &Prog, SymbolTable &Symbols);

/// Merges adjacent Filter operations into single conjunctions. Returns the
/// number of merges performed.
std::size_t mergeAdjacentFilters(Program &Prog);

} // namespace stird::ram

#endif // STIRD_RAM_TRANSFORMS_H
