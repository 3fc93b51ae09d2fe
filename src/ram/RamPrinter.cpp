//===- ram/RamPrinter.cpp - Textual dump of RAM programs --------------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//

#include "ram/RamPrinter.h"

#include "util/MiscUtil.h"

#include <sstream>

using namespace stird;
using namespace stird::ram;

namespace {

const char *intrinsicName(IntrinsicOp Op) {
  switch (Op) {
  case IntrinsicOp::Neg:
    return "neg";
  case IntrinsicOp::FNeg:
    return "fneg";
  case IntrinsicOp::BNot:
    return "bnot";
  case IntrinsicOp::LNot:
    return "lnot";
  case IntrinsicOp::Strlen:
    return "strlen";
  case IntrinsicOp::Ord:
    return "ord";
  case IntrinsicOp::ToNumber:
    return "to_number";
  case IntrinsicOp::ToString:
    return "to_string";
  case IntrinsicOp::Add:
    return "add";
  case IntrinsicOp::Sub:
    return "sub";
  case IntrinsicOp::Mul:
    return "mul";
  case IntrinsicOp::Div:
    return "div";
  case IntrinsicOp::UDiv:
    return "udiv";
  case IntrinsicOp::FAdd:
    return "fadd";
  case IntrinsicOp::FSub:
    return "fsub";
  case IntrinsicOp::FMul:
    return "fmul";
  case IntrinsicOp::FDiv:
    return "fdiv";
  case IntrinsicOp::Mod:
    return "mod";
  case IntrinsicOp::UMod:
    return "umod";
  case IntrinsicOp::Exp:
    return "exp";
  case IntrinsicOp::UExp:
    return "uexp";
  case IntrinsicOp::FExp:
    return "fexp";
  case IntrinsicOp::Band:
    return "band";
  case IntrinsicOp::Bor:
    return "bor";
  case IntrinsicOp::Bxor:
    return "bxor";
  case IntrinsicOp::Bshl:
    return "bshl";
  case IntrinsicOp::Bshr:
    return "bshr";
  case IntrinsicOp::UBshr:
    return "ubshr";
  case IntrinsicOp::Max:
    return "max";
  case IntrinsicOp::UMax:
    return "umax";
  case IntrinsicOp::FMax:
    return "fmax";
  case IntrinsicOp::Min:
    return "min";
  case IntrinsicOp::UMin:
    return "umin";
  case IntrinsicOp::FMin:
    return "fmin";
  case IntrinsicOp::Cat:
    return "cat";
  case IntrinsicOp::Substr:
    return "substr";
  }
  unreachable("unknown intrinsic op");
}

const char *cmpName(CmpOp Op) {
  switch (Op) {
  case CmpOp::Eq:
    return "=";
  case CmpOp::Ne:
    return "!=";
  case CmpOp::Lt:
    return "<";
  case CmpOp::Le:
    return "<=";
  case CmpOp::Gt:
    return ">";
  case CmpOp::Ge:
    return ">=";
  case CmpOp::ULt:
    return "u<";
  case CmpOp::ULe:
    return "u<=";
  case CmpOp::UGt:
    return "u>";
  case CmpOp::UGe:
    return "u>=";
  case CmpOp::FLt:
    return "f<";
  case CmpOp::FLe:
    return "f<=";
  case CmpOp::FGt:
    return "f>";
  case CmpOp::FGe:
    return "f>=";
  }
  unreachable("unknown cmp op");
}

class Printer {
public:
  explicit Printer(std::ostringstream &Out) : Out(Out) {}

  void printExpr(const Expression &Expr) {
    switch (Expr.getKind()) {
    case Expression::Kind::Constant:
      Out << static_cast<const Constant &>(Expr).getValue();
      return;
    case Expression::Kind::TupleElement: {
      const auto &TE = static_cast<const TupleElement &>(Expr);
      Out << "t" << TE.getTupleId() << "." << TE.getElement();
      return;
    }
    case Expression::Kind::Intrinsic: {
      const auto &Op = static_cast<const Intrinsic &>(Expr);
      Out << intrinsicName(Op.getOp()) << "(";
      bool First = true;
      for (const auto &Arg : Op.getArgs()) {
        if (!First)
          Out << ", ";
        First = false;
        printExpr(*Arg);
      }
      Out << ")";
      return;
    }
    case Expression::Kind::AutoIncrement:
      Out << "autoinc()";
      return;
    case Expression::Kind::Undef:
      Out << "_";
      return;
    }
  }

  void printCond(const Condition &Cond) {
    switch (Cond.getKind()) {
    case Condition::Kind::True:
      Out << "true";
      return;
    case Condition::Kind::Conjunction: {
      const auto &C = static_cast<const Conjunction &>(Cond);
      Out << "(";
      printCond(C.getLhs());
      Out << " AND ";
      printCond(C.getRhs());
      Out << ")";
      return;
    }
    case Condition::Kind::Negation: {
      Out << "(NOT ";
      printCond(static_cast<const Negation &>(Cond).getInner());
      Out << ")";
      return;
    }
    case Condition::Kind::Constraint: {
      const auto &C = static_cast<const Constraint &>(Cond);
      Out << "(";
      printExpr(C.getLhs());
      Out << " " << cmpName(C.getOp()) << " ";
      printExpr(C.getRhs());
      Out << ")";
      return;
    }
    case Condition::Kind::EmptinessCheck:
      Out << "("
          << static_cast<const EmptinessCheck &>(Cond).getRelation().getName()
          << " = EMPTY)";
      return;
    case Condition::Kind::ExistenceCheck: {
      const auto &C = static_cast<const ExistenceCheck &>(Cond);
      Out << "(";
      printPattern(C.getPattern());
      Out << " IN " << C.getRelation().getName() << ")";
      return;
    }
    }
  }

  void printPattern(const std::vector<ExprPtr> &Pattern) {
    Out << "(";
    bool First = true;
    for (const auto &Col : Pattern) {
      if (!First)
        Out << ",";
      First = false;
      printExpr(*Col);
    }
    Out << ")";
  }

  void printOp(const Operation &Op) {
    switch (Op.getKind()) {
    case Operation::Kind::Scan: {
      const auto &S = static_cast<const Scan &>(Op);
      indent() << "FOR t" << S.getTupleId() << " IN "
               << S.getRelation().getName() << "\n";
      nested(S.getNested());
      return;
    }
    case Operation::Kind::IndexScan: {
      const auto &S = static_cast<const IndexScan &>(Op);
      indent() << "FOR t" << S.getTupleId() << " IN "
               << S.getRelation().getName() << " ON INDEX ";
      printPattern(S.getPattern());
      Out << "\n";
      nested(S.getNested());
      return;
    }
    case Operation::Kind::Filter: {
      const auto &F = static_cast<const Filter &>(Op);
      indent() << "IF ";
      printCond(F.getCondition());
      Out << "\n";
      nested(F.getNested());
      return;
    }
    case Operation::Kind::Project: {
      const auto &P = static_cast<const Project &>(Op);
      indent() << "INSERT ";
      printPattern(P.getValues());
      Out << " INTO " << P.getRelation().getName() << "\n";
      return;
    }
    case Operation::Kind::Aggregate: {
      const auto &A = static_cast<const Aggregate &>(Op);
      indent() << "t" << A.getTupleId() << ".0 = AGGREGATE OVER "
               << A.getRelation().getName() << " ON ";
      printPattern(A.getPattern());
      if (A.getTargetExpr()) {
        Out << " VALUE ";
        printExpr(*A.getTargetExpr());
      }
      Out << "\n";
      nested(A.getNested());
      return;
    }
    }
  }

  void printStmt(const Statement &Stmt) {
    switch (Stmt.getKind()) {
    case Statement::Kind::Sequence:
      for (const auto &Child :
           static_cast<const Sequence &>(Stmt).getStatements())
        printStmt(*Child);
      return;
    case Statement::Kind::Loop: {
      indent() << "LOOP\n";
      ++Depth;
      printStmt(static_cast<const Loop &>(Stmt).getBody());
      --Depth;
      indent() << "END LOOP\n";
      return;
    }
    case Statement::Kind::Exit: {
      indent() << "BREAK ";
      printCond(static_cast<const Exit &>(Stmt).getCondition());
      Out << "\n";
      return;
    }
    case Statement::Kind::Query: {
      indent() << "QUERY\n";
      ++Depth;
      printOp(static_cast<const Query &>(Stmt).getRoot());
      --Depth;
      return;
    }
    case Statement::Kind::Clear:
      indent() << "CLEAR "
               << static_cast<const Clear &>(Stmt).getRelation().getName()
               << "\n";
      return;
    case Statement::Kind::Swap: {
      const auto &S = static_cast<const Swap &>(Stmt);
      indent() << "SWAP (" << S.getFirst().getName() << ", "
               << S.getSecond().getName() << ")\n";
      return;
    }
    case Statement::Kind::MergeInto: {
      const auto &M = static_cast<const MergeInto &>(Stmt);
      indent() << "MERGE " << M.getSource().getName() << " INTO "
               << M.getDestination().getName() << "\n";
      return;
    }
    case Statement::Kind::Erase: {
      const auto &E = static_cast<const Erase &>(Stmt);
      indent() << "ERASE " << E.getSource().getName() << " FROM "
               << E.getDestination().getName() << "\n";
      return;
    }
    case Statement::Kind::SubtractInto: {
      const auto &S = static_cast<const SubtractInto &>(Stmt);
      indent() << "SUBTRACT " << S.getSource().getName() << " WITHOUT "
               << S.getFilter().getName() << " INTO "
               << S.getDestination().getName() << "\n";
      return;
    }
    case Statement::Kind::Io: {
      const auto &IoStmt = static_cast<const Io &>(Stmt);
      const char *Verb = IoStmt.getDirection() == Io::Direction::Load
                             ? "LOAD"
                             : (IoStmt.getDirection() == Io::Direction::Store
                                    ? "STORE"
                                    : "PRINTSIZE");
      indent() << Verb << " " << IoStmt.getRelation().getName() << "\n";
      return;
    }
    case Statement::Kind::LogTimer: {
      const auto &Log = static_cast<const LogTimer &>(Stmt);
      indent() << "TIMER \"" << Log.getLabel() << "\"";
      // A reordered body is part of the plan, so it belongs in the dump;
      // identity orders stay silent to keep source-order output unchanged.
      const auto &Order = Log.getInfo().AtomOrder;
      bool Identity = true;
      for (std::size_t I = 0; I < Order.size(); ++I)
        Identity = Identity && Order[I] == static_cast<int>(I);
      if (!Identity) {
        Out << " sips=" << Log.getInfo().Sips << " order=[";
        for (std::size_t I = 0; I < Order.size(); ++I)
          Out << (I ? "," : "") << Order[I];
        Out << "]";
      }
      Out << "\n";
      ++Depth;
      printStmt(Log.getBody());
      --Depth;
      indent() << "END TIMER\n";
      return;
    }
    }
  }

private:
  std::ostringstream &indent() {
    for (int I = 0; I < Depth; ++I)
      Out << "  ";
    return Out;
  }
  void nested(const Operation &Op) {
    ++Depth;
    printOp(Op);
    --Depth;
  }

  std::ostringstream &Out;
  int Depth = 0;
};

} // namespace

std::string stird::ram::print(const Statement &Stmt) {
  std::ostringstream Out;
  Printer(Out).printStmt(Stmt);
  return Out.str();
}

std::string stird::ram::print(const Expression &Expr) {
  std::ostringstream Out;
  Printer(Out).printExpr(Expr);
  return Out.str();
}

std::string stird::ram::print(const Condition &Cond) {
  std::ostringstream Out;
  Printer(Out).printCond(Cond);
  return Out.str();
}

std::string stird::ram::print(const Program &Prog) {
  std::ostringstream Out;
  for (const auto &Rel : Prog.getRelations()) {
    Out << "RELATION " << Rel->getName() << " arity " << Rel->getArity();
    if (!Rel->getOrders().empty()) {
      Out << " orders";
      for (const auto &Order : Rel->getOrders()) {
        Out << " [";
        for (std::size_t I = 0; I < Order.size(); ++I) {
          if (I != 0)
            Out << " ";
          Out << Order[I];
        }
        Out << "]";
      }
    }
    switch (Rel->getStructure()) {
    case StructureKind::Btree:
      Out << " structure btree";
      break;
    case StructureKind::Brie:
      Out << " structure brie";
      break;
    case StructureKind::Eqrel:
      Out << " structure eqrel";
      break;
    }
    Out << "\n";
  }
  Prog.forEachRoot([&](Program::RootKind Kind, std::size_t I,
                       const Statement *Root) {
    switch (Kind) {
    case Program::RootKind::Main:
      break;
    case Program::RootKind::MaintPrologue:
      Out << "MAINTENANCE\nPROLOGUE\n";
      break;
    case Program::RootKind::MaintStratum: {
      const auto &S = Prog.getMaintStrata()[I];
      const char *Name =
          S.Strategy == Program::MaintStrategy::DRed ? "dred" : "reeval";
      Out << "STRATUM " << I << " " << Name;
      if (!S.FallbackReason.empty())
        Out << " (" << S.FallbackReason << ")";
      Out << "\n";
      break;
    }
    case Program::RootKind::MaintEpilogue:
      if (Root)
        Out << "EPILOGUE\n";
      break;
    }
    if (Root)
      Out << print(*Root);
  });
  return Out.str();
}
