//===- ram/Arithmetic.h - RAM intrinsic evaluation --------------*- C++ -*-===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Evaluation of RAM intrinsic functors and typed comparisons over
/// RamDomain values. Shared by the interpreters (hot path) and the RAM
/// constant folder; the synthesizer emits equivalent open-coded helpers.
///
//===----------------------------------------------------------------------===//

#ifndef STIRD_RAM_ARITHMETIC_H
#define STIRD_RAM_ARITHMETIC_H

#include "ram/Ram.h"
#include "util/MiscUtil.h"
#include "util/RamTypes.h"
#include "util/SymbolTable.h"

#include <cmath>
#include <cstdlib>
#include <string>

namespace stird::ram {

/// Integer exponentiation by squaring; negative exponents yield 0.
inline RamDomain ipow(RamDomain Base, RamDomain Exponent) {
  if (Exponent < 0)
    return 0;
  RamDomain Result = 1;
  while (Exponent > 0) {
    if (Exponent & 1)
      Result = static_cast<RamDomain>(static_cast<RamUnsigned>(Result) *
                                      static_cast<RamUnsigned>(Base));
    Base = static_cast<RamDomain>(static_cast<RamUnsigned>(Base) *
                                  static_cast<RamUnsigned>(Base));
    Exponent >>= 1;
  }
  return Result;
}

/// Signed negation, division and modulo, total over every operand: they
/// wrap in two's complement like Add/Sub/Mul (-INT_MIN = INT_MIN / -1 =
/// INT_MIN, INT_MIN % -1 = 0), and division and modulo by zero yield 0
/// (documented deviation from C++ UB; Soufflé leaves these undefined).
inline RamDomain negWrap(RamDomain A) {
  return ramBitCast<RamDomain>(0U - ramBitCast<RamUnsigned>(A));
}
inline RamDomain divWrap(RamDomain A, RamDomain B) {
  return B == -1 ? negWrap(A) : B == 0 ? 0 : A / B;
}
inline RamDomain modWrap(RamDomain A, RamDomain B) {
  return B == 0 || B == -1 ? 0 : A % B;
}

/// Applies an intrinsic functor to already-evaluated arguments.
inline RamDomain applyIntrinsic(IntrinsicOp Op, const RamDomain *Args,
                                std::size_t NumArgs, SymbolTable &Symbols) {
  auto F = [](RamDomain V) { return ramBitCast<RamFloat>(V); };
  auto FV = [](RamFloat V) { return ramBitCast<RamDomain>(V); };
  auto U = [](RamDomain V) { return ramBitCast<RamUnsigned>(V); };
  auto UV = [](RamUnsigned V) { return ramBitCast<RamDomain>(V); };

  switch (Op) {
  case IntrinsicOp::Neg:
    return negWrap(Args[0]);
  case IntrinsicOp::FNeg:
    return FV(-F(Args[0]));
  case IntrinsicOp::BNot:
    return ~Args[0];
  case IntrinsicOp::LNot:
    return Args[0] == 0 ? 1 : 0;
  case IntrinsicOp::Strlen:
    return static_cast<RamDomain>(Symbols.resolve(Args[0]).size());
  case IntrinsicOp::Ord:
    return Args[0];
  case IntrinsicOp::ToNumber: {
    const std::string &Text = Symbols.resolve(Args[0]);
    return static_cast<RamDomain>(std::strtol(Text.c_str(), nullptr, 10));
  }
  case IntrinsicOp::ToString:
    return Symbols.intern(std::to_string(Args[0]));
  case IntrinsicOp::Add:
    return UV(U(Args[0]) + U(Args[1]));
  case IntrinsicOp::Sub:
    return UV(U(Args[0]) - U(Args[1]));
  case IntrinsicOp::Mul:
    return UV(U(Args[0]) * U(Args[1]));
  case IntrinsicOp::Div:
    return divWrap(Args[0], Args[1]);
  case IntrinsicOp::UDiv:
    return Args[1] == 0 ? 0 : UV(U(Args[0]) / U(Args[1]));
  case IntrinsicOp::FAdd:
    return FV(F(Args[0]) + F(Args[1]));
  case IntrinsicOp::FSub:
    return FV(F(Args[0]) - F(Args[1]));
  case IntrinsicOp::FMul:
    return FV(F(Args[0]) * F(Args[1]));
  case IntrinsicOp::FDiv:
    return FV(F(Args[0]) / F(Args[1]));
  case IntrinsicOp::Mod:
    return modWrap(Args[0], Args[1]);
  case IntrinsicOp::UMod:
    return Args[1] == 0 ? 0 : UV(U(Args[0]) % U(Args[1]));
  case IntrinsicOp::Exp:
    return ipow(Args[0], Args[1]);
  case IntrinsicOp::UExp:
    return ipow(Args[0], Args[1]);
  case IntrinsicOp::FExp:
    return FV(std::pow(F(Args[0]), F(Args[1])));
  case IntrinsicOp::Band:
    return Args[0] & Args[1];
  case IntrinsicOp::Bor:
    return Args[0] | Args[1];
  case IntrinsicOp::Bxor:
    return Args[0] ^ Args[1];
  case IntrinsicOp::Bshl:
    return UV(U(Args[0]) << (U(Args[1]) & 31U));
  case IntrinsicOp::Bshr:
    return Args[0] >> (U(Args[1]) & 31U);
  case IntrinsicOp::UBshr:
    return UV(U(Args[0]) >> (U(Args[1]) & 31U));
  case IntrinsicOp::Max: {
    RamDomain Result = Args[0];
    for (std::size_t I = 1; I < NumArgs; ++I)
      Result = Args[I] > Result ? Args[I] : Result;
    return Result;
  }
  case IntrinsicOp::UMax: {
    RamDomain Result = Args[0];
    for (std::size_t I = 1; I < NumArgs; ++I)
      Result = U(Args[I]) > U(Result) ? Args[I] : Result;
    return Result;
  }
  case IntrinsicOp::FMax: {
    RamDomain Result = Args[0];
    for (std::size_t I = 1; I < NumArgs; ++I)
      Result = F(Args[I]) > F(Result) ? Args[I] : Result;
    return Result;
  }
  case IntrinsicOp::Min: {
    RamDomain Result = Args[0];
    for (std::size_t I = 1; I < NumArgs; ++I)
      Result = Args[I] < Result ? Args[I] : Result;
    return Result;
  }
  case IntrinsicOp::UMin: {
    RamDomain Result = Args[0];
    for (std::size_t I = 1; I < NumArgs; ++I)
      Result = U(Args[I]) < U(Result) ? Args[I] : Result;
    return Result;
  }
  case IntrinsicOp::FMin: {
    RamDomain Result = Args[0];
    for (std::size_t I = 1; I < NumArgs; ++I)
      Result = F(Args[I]) < F(Result) ? Args[I] : Result;
    return Result;
  }
  case IntrinsicOp::Cat: {
    std::string Result;
    for (std::size_t I = 0; I < NumArgs; ++I)
      Result += Symbols.resolve(Args[I]);
    return Symbols.intern(Result);
  }
  case IntrinsicOp::Substr: {
    const std::string &Text = Symbols.resolve(Args[0]);
    const RamDomain Start = Args[1];
    const RamDomain Len = Args[2];
    if (Start < 0 || Len < 0 ||
        static_cast<std::size_t>(Start) >= Text.size())
      return Symbols.intern("");
    return Symbols.intern(Text.substr(static_cast<std::size_t>(Start),
                                      static_cast<std::size_t>(Len)));
  }
  }
  unreachable("unknown intrinsic op");
}

/// Applies a typed comparison.
inline bool applyCmp(CmpOp Op, RamDomain Lhs, RamDomain Rhs) {
  auto F = [](RamDomain V) { return ramBitCast<RamFloat>(V); };
  auto U = [](RamDomain V) { return ramBitCast<RamUnsigned>(V); };
  switch (Op) {
  case CmpOp::Eq:
    return Lhs == Rhs;
  case CmpOp::Ne:
    return Lhs != Rhs;
  case CmpOp::Lt:
    return Lhs < Rhs;
  case CmpOp::Le:
    return Lhs <= Rhs;
  case CmpOp::Gt:
    return Lhs > Rhs;
  case CmpOp::Ge:
    return Lhs >= Rhs;
  case CmpOp::ULt:
    return U(Lhs) < U(Rhs);
  case CmpOp::ULe:
    return U(Lhs) <= U(Rhs);
  case CmpOp::UGt:
    return U(Lhs) > U(Rhs);
  case CmpOp::UGe:
    return U(Lhs) >= U(Rhs);
  case CmpOp::FLt:
    return F(Lhs) < F(Rhs);
  case CmpOp::FLe:
    return F(Lhs) <= F(Rhs);
  case CmpOp::FGt:
    return F(Lhs) > F(Rhs);
  case CmpOp::FGe:
    return F(Lhs) >= F(Rhs);
  }
  unreachable("unknown cmp op");
}

} // namespace stird::ram

#endif // STIRD_RAM_ARITHMETIC_H
