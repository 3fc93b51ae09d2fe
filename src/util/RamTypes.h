//===- util/RamTypes.h - Core value types of the RAM machine ---*- C++ -*-===//
//
// Part of the stird project, a reproduction of "An Efficient Interpreter for
// Datalog by De-specializing Relations" (PLDI 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Defines RamDomain, the single storage type of every de-specialized
/// relation, and the bit-cast helpers that map unsigned/float values onto it
/// (the paper's second de-specialization step, Section 3).
///
//===----------------------------------------------------------------------===//

#ifndef STIRD_UTIL_RAMTYPES_H
#define STIRD_UTIL_RAMTYPES_H

#include <array>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

namespace stird {

/// The universal storage cell. Every attribute of every relation is stored
/// as a RamDomain; signed/unsigned/float interpretations are views on the
/// same 32 bits.
using RamDomain = int32_t;

/// View of a RamDomain as an unsigned number.
using RamUnsigned = uint32_t;

/// View of a RamDomain as a floating-point number. Must have the same width
/// as RamDomain so it can be stored bit-exactly.
using RamFloat = float;

static_assert(sizeof(RamFloat) == sizeof(RamDomain),
              "RamFloat must fit a RamDomain cell");
static_assert(sizeof(RamUnsigned) == sizeof(RamDomain),
              "RamUnsigned must fit a RamDomain cell");

/// Reinterprets the bits of one RAM value type as another without
/// conversion. This is how float and unsigned attributes live inside
/// integer-only indexes.
template <typename To, typename From> inline To ramBitCast(From Value) {
  static_assert(sizeof(To) == sizeof(From), "bit-cast requires equal widths");
  To Result;
  std::memcpy(&Result, &Value, sizeof(To));
  return Result;
}

/// The largest tuple arity the pre-compiled index portfolio supports. The
/// paper observed arities up to 16 in practice; the factories enumerate
/// exactly this range (Fig 7).
inline constexpr std::size_t MaxArity = 16;

/// The largest arity the Brie portfolio covers (STIRD_FOR_EACH_BRIE).
inline constexpr std::size_t MaxBrieArity = 8;

/// A fixed-arity tuple as used by the statically specialized code paths.
template <std::size_t Arity> using Tuple = std::array<RamDomain, Arity>;

/// A dynamically sized tuple as used by the de-specialized adapter layer.
using DynTuple = std::vector<RamDomain>;

} // namespace stird

#endif // STIRD_UTIL_RAMTYPES_H
