//===- interp/ForEach.h - The de-specialized parameter space ----*- C++ -*-===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The central FOR_EACH macros of the paper (Figs 8 and 9): after
/// de-specialization an index is identified by (implementation, arity)
/// alone, and this file enumerates that whole space once. Both the relation
/// factory (Fig 7) and the STI's static instruction generation (Fig 10/11)
/// expand over it, so adding a structure or widening the arity range is a
/// one-line change.
///
/// Soufflé's portfolio also contains a provenance B-tree variant
/// (FOR_EACH_PROVENANCE in Fig 8); provenance is outside the paper's
/// evaluation and is intentionally not reproduced.
///
//===----------------------------------------------------------------------===//

#ifndef STIRD_INTERP_FOREACH_H
#define STIRD_INTERP_FOREACH_H

#define STIRD_FOR_EACH_BTREE(Func)                                            \
  Func(Btree, 1) Func(Btree, 2) Func(Btree, 3) Func(Btree, 4)                 \
  Func(Btree, 5) Func(Btree, 6) Func(Btree, 7) Func(Btree, 8)                 \
  Func(Btree, 9) Func(Btree, 10) Func(Btree, 11) Func(Btree, 12)              \
  Func(Btree, 13) Func(Btree, 14) Func(Btree, 15) Func(Btree, 16)

#define STIRD_FOR_EACH_BRIE(Func)                                             \
  Func(Brie, 1) Func(Brie, 2) Func(Brie, 3) Func(Brie, 4)                     \
  Func(Brie, 5) Func(Brie, 6) Func(Brie, 7) Func(Brie, 8)

// The equivalence relation is a specialized binary relation.
#define STIRD_FOR_EACH_EQREL(Func) Func(Eqrel, 2)

#define STIRD_FOR_EACH(Func)                                                  \
  STIRD_FOR_EACH_BTREE(Func)                                                  \
  STIRD_FOR_EACH_BRIE(Func)                                                   \
  STIRD_FOR_EACH_EQREL(Func)

#endif // STIRD_INTERP_FOREACH_H
