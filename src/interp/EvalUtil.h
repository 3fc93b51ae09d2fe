//===- interp/EvalUtil.h - Shared evaluation helpers ------------*- C++ -*-===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Evaluation primitives shared by every engine: intrinsic functor
/// application and typed comparisons (re-exported from ram/Arithmetic.h),
/// aggregate folding, super-instruction slot filling and the
/// fused-condition micro-interpreter. All inline so the specialized
/// static-engine instructions can fold them.
///
//===----------------------------------------------------------------------===//

#ifndef STIRD_INTERP_EVALUTIL_H
#define STIRD_INTERP_EVALUTIL_H

#include "interp/Context.h"
#include "interp/Node.h"
#include "ram/Arithmetic.h"
#include "util/MiscUtil.h"
#include "util/RamTypes.h"
#include "util/SymbolTable.h"

namespace stird::interp {

using ram::applyCmp;
using ram::applyIntrinsic;
using ram::ipow;

/// State of an aggregate fold.
struct AggAccumulator {
  RamDomain Value = 0;
  bool Any = false;

  void init(ram::AggFunc Func) {
    using ram::AggFunc;
    Any = false;
    switch (Func) {
    case AggFunc::Count:
    case AggFunc::Sum:
    case AggFunc::USum:
      Value = 0;
      break;
    case AggFunc::FSum:
      Value = ramBitCast<RamDomain>(RamFloat(0));
      break;
    default:
      Value = 0;
      break;
    }
  }

  void step(ram::AggFunc Func, RamDomain Sample) {
    using ram::AggFunc;
    auto F = [](RamDomain V) { return ramBitCast<RamFloat>(V); };
    auto U = [](RamDomain V) { return ramBitCast<RamUnsigned>(V); };
    switch (Func) {
    case AggFunc::Count:
      ++Value;
      break;
    case AggFunc::Sum:
    case AggFunc::USum:
      Value = ramBitCast<RamDomain>(U(Value) + U(Sample));
      break;
    case AggFunc::FSum:
      Value = ramBitCast<RamDomain>(F(Value) + F(Sample));
      break;
    case AggFunc::Min:
      Value = (!Any || Sample < Value) ? Sample : Value;
      break;
    case AggFunc::UMin:
      Value = (!Any || U(Sample) < U(Value)) ? Sample : Value;
      break;
    case AggFunc::FMin:
      Value = (!Any || F(Sample) < F(Value)) ? Sample : Value;
      break;
    case AggFunc::Max:
      Value = (!Any || Sample > Value) ? Sample : Value;
      break;
    case AggFunc::UMax:
      Value = (!Any || U(Sample) > U(Value)) ? Sample : Value;
      break;
    case AggFunc::FMax:
      Value = (!Any || F(Sample) > F(Value)) ? Sample : Value;
      break;
    }
    Any = true;
  }

  /// Min/Max over an empty range has no witness; the nested operation is
  /// skipped. Count and the sums always produce a value.
  bool hasResult(ram::AggFunc Func) const {
    using ram::AggFunc;
    switch (Func) {
    case AggFunc::Count:
    case AggFunc::Sum:
    case AggFunc::USum:
    case AggFunc::FSum:
      return true;
    default:
      return Any;
    }
  }
};

/// Fills the slots of a tuple buffer from a super-instruction: generic
/// children dispatch through \p Eval; constants and tuple-element reads are
/// direct (Fig 14).
template <typename EvalFn>
inline void fillSuper(const SuperInstruction &Super, RamDomain *Out,
                      const Context &Ctx, EvalFn &&Eval) {
  for (const auto &G : Super.Generic)
    Out[G.Slot] = Eval(*G.Expr);
  for (const auto &C : Super.Constants)
    Out[C.Slot] = C.Value;
  for (const auto &T : Super.TupleSources)
    Out[T.Slot] = Ctx[T.TupleId][T.Element];
}

/// Executes a fused-condition micro-program (one dispatch for the whole
/// condition, Section 5.2). Returns the truth of the top of stack.
inline bool runFusedCondition(const FusedConditionNode &Node,
                              const Context &Ctx) {
  RamDomain Stack[32];
  std::size_t Top = 0;
  auto U = [](RamDomain V) { return ramBitCast<RamUnsigned>(V); };
  for (std::size_t PC = 0; PC < Node.Program.size(); ++PC) {
    const MicroInst &Inst = Node.Program[PC];
    using Op = MicroInst::Op;
    switch (Inst.Kind) {
    case Op::PushConst:
      Stack[Top++] = Inst.A;
      break;
    case Op::PushElem:
      Stack[Top++] = Ctx[static_cast<std::size_t>(Inst.A)][Inst.B];
      break;
    case Op::JmpIfFalse:
      // Short-circuit: the false stays on the stack as the result.
      if (Stack[Top - 1] == 0)
        PC = Inst.B - 1;
      break;
    case Op::Pop:
      --Top;
      break;
    case Op::Neg:
      Stack[Top - 1] = ram::negWrap(Stack[Top - 1]);
      break;
    case Op::BNot:
      Stack[Top - 1] = ~Stack[Top - 1];
      break;
    case Op::LNot:
      Stack[Top - 1] = Stack[Top - 1] == 0 ? 1 : 0;
      break;
#define STIRD_FUSED_BINOP(Name, Expr)                                         \
  case Op::Name: {                                                            \
    RamDomain B = Stack[--Top];                                               \
    RamDomain A = Stack[Top - 1];                                             \
    Stack[Top - 1] = (Expr);                                                  \
    break;                                                                    \
  }
      STIRD_FUSED_BINOP(Add, ramBitCast<RamDomain>(U(A) + U(B)))
      STIRD_FUSED_BINOP(Sub, ramBitCast<RamDomain>(U(A) - U(B)))
      STIRD_FUSED_BINOP(Mul, ramBitCast<RamDomain>(U(A) * U(B)))
      STIRD_FUSED_BINOP(Div, ram::divWrap(A, B))
      STIRD_FUSED_BINOP(Mod, ram::modWrap(A, B))
      STIRD_FUSED_BINOP(Band, A &B)
      STIRD_FUSED_BINOP(Bor, A | B)
      STIRD_FUSED_BINOP(Bxor, A ^ B)
      STIRD_FUSED_BINOP(Bshl, ramBitCast<RamDomain>(U(A) << (U(B) & 31U)))
      STIRD_FUSED_BINOP(Bshr, A >> (U(B) & 31U))
      STIRD_FUSED_BINOP(UBshr, ramBitCast<RamDomain>(U(A) >> (U(B) & 31U)))
      STIRD_FUSED_BINOP(Eq, A == B ? 1 : 0)
      STIRD_FUSED_BINOP(Ne, A != B ? 1 : 0)
      STIRD_FUSED_BINOP(Lt, A < B ? 1 : 0)
      STIRD_FUSED_BINOP(Le, A <= B ? 1 : 0)
      STIRD_FUSED_BINOP(Gt, A > B ? 1 : 0)
      STIRD_FUSED_BINOP(Ge, A >= B ? 1 : 0)
      STIRD_FUSED_BINOP(ULt, U(A) < U(B) ? 1 : 0)
      STIRD_FUSED_BINOP(ULe, U(A) <= U(B) ? 1 : 0)
      STIRD_FUSED_BINOP(UGt, U(A) > U(B) ? 1 : 0)
      STIRD_FUSED_BINOP(UGe, U(A) >= U(B) ? 1 : 0)
      STIRD_FUSED_BINOP(And, (A != 0 && B != 0) ? 1 : 0)
#undef STIRD_FUSED_BINOP
    }
  }
  return Stack[Top - 1] != 0;
}

} // namespace stird::interp

#endif // STIRD_INTERP_EVALUTIL_H
