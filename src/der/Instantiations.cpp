//===- der/Instantiations.cpp - Pre-compiled DER portfolio -----------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Explicitly instantiates every member of the de-specialized DER
/// portfolio. After the two de-specialization steps of Section 3 an index
/// is identified by (implementation, arity) alone, which makes the
/// parameter space small enough to pre-compile in full — this file is that
/// pre-compilation, and doubles as a compile-time check that every
/// structure supports the whole arity range the factories expose.
///
//===----------------------------------------------------------------------===//

#include "der/BTreeSet.h"
#include "der/Brie.h"

namespace stird {

#define STIRD_INSTANTIATE_BTREE(Arity)                                        \
  template class BTreeSet<Arity>;                                             \
  template class BTreeSet<Arity, RuntimeOrderCompare<Arity>>;

STIRD_INSTANTIATE_BTREE(1)
STIRD_INSTANTIATE_BTREE(2)
STIRD_INSTANTIATE_BTREE(3)
STIRD_INSTANTIATE_BTREE(4)
STIRD_INSTANTIATE_BTREE(5)
STIRD_INSTANTIATE_BTREE(6)
STIRD_INSTANTIATE_BTREE(7)
STIRD_INSTANTIATE_BTREE(8)
STIRD_INSTANTIATE_BTREE(9)
STIRD_INSTANTIATE_BTREE(10)
STIRD_INSTANTIATE_BTREE(11)
STIRD_INSTANTIATE_BTREE(12)
STIRD_INSTANTIATE_BTREE(13)
STIRD_INSTANTIATE_BTREE(14)
STIRD_INSTANTIATE_BTREE(15)
STIRD_INSTANTIATE_BTREE(16)
#undef STIRD_INSTANTIATE_BTREE

template class Brie<1>;
template class Brie<2>;
template class Brie<3>;
template class Brie<4>;
template class Brie<5>;
template class Brie<6>;
template class Brie<7>;
template class Brie<8>;

} // namespace stird
