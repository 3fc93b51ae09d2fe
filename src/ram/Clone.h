//===- ram/Clone.h - Deep copies of RAM subtrees ----------------*- C++ -*-===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deep-clone helpers for RAM nodes. Relations are referenced, not owned:
/// clones share the original Relation objects, which is what the rewriting
/// optimizer passes (ram/Transforms.h) want.
///
//===----------------------------------------------------------------------===//

#ifndef STIRD_RAM_CLONE_H
#define STIRD_RAM_CLONE_H

#include "ram/Ram.h"

namespace stird::ram {

ExprPtr clone(const Expression &Expr);
CondPtr clone(const Condition &Cond);
OpPtr clone(const Operation &Op);
StmtPtr clone(const Statement &Stmt);

/// Clones a pattern/value vector (entries may not be null).
std::vector<ExprPtr> clonePattern(const std::vector<ExprPtr> &Pattern);

} // namespace stird::ram

#endif // STIRD_RAM_CLONE_H
