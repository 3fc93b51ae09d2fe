//===- ram/Transforms.cpp - RAM optimization passes ----------------------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//

#include "ram/Transforms.h"

#include "ram/Arithmetic.h"
#include "ram/Clone.h"
#include "util/MiscUtil.h"

#include <cstdint>

using namespace stird;
using namespace stird::ram;

namespace {

//===----------------------------------------------------------------------===//
// Constant folding
//===----------------------------------------------------------------------===//

class ConstantFolder {
public:
  ConstantFolder(SymbolTable &Symbols, TransformStats &Stats)
      : Symbols(Symbols), Stats(Stats) {}

  ExprPtr rewriteExpr(const Expression &Expr) {
    if (Expr.getKind() != Expression::Kind::Intrinsic)
      return clone(Expr);
    const auto &Op = static_cast<const Intrinsic &>(Expr);
    std::vector<ExprPtr> Args;
    bool AllConstant = true;
    for (const auto &Arg : Op.getArgs()) {
      Args.push_back(rewriteExpr(*Arg));
      AllConstant &=
          Args.back()->getKind() == Expression::Kind::Constant;
    }
    if (!AllConstant || Args.empty())
      return std::make_unique<Intrinsic>(Op.getOp(), std::move(Args));

    RamDomain Values[8];
    assert(Args.size() <= 8 && "intrinsic arity too large");
    for (std::size_t I = 0; I < Args.size(); ++I)
      Values[I] = static_cast<const Constant &>(*Args[I]).getValue();
    ++Stats.FoldedExpressions;
    return std::make_unique<Constant>(
        applyIntrinsic(Op.getOp(), Values, Args.size(), Symbols));
  }

  std::vector<ExprPtr> rewritePattern(const std::vector<ExprPtr> &Pattern) {
    std::vector<ExprPtr> Result;
    Result.reserve(Pattern.size());
    for (const auto &Col : Pattern)
      Result.push_back(rewriteExpr(*Col));
    return Result;
  }

  CondPtr rewriteCond(const Condition &Cond) {
    switch (Cond.getKind()) {
    case Condition::Kind::Conjunction: {
      const auto &C = static_cast<const Conjunction &>(Cond);
      CondPtr Lhs = rewriteCond(C.getLhs());
      CondPtr Rhs = rewriteCond(C.getRhs());
      // True simplifications.
      if (Lhs->getKind() == Condition::Kind::True) {
        ++Stats.FoldedConditions;
        return Rhs;
      }
      if (Rhs->getKind() == Condition::Kind::True) {
        ++Stats.FoldedConditions;
        return Lhs;
      }
      return std::make_unique<Conjunction>(std::move(Lhs), std::move(Rhs));
    }
    case Condition::Kind::Negation: {
      CondPtr Inner =
          rewriteCond(static_cast<const Negation &>(Cond).getInner());
      if (Inner->getKind() == Condition::Kind::Negation) {
        // Double negation.
        ++Stats.FoldedConditions;
        return clone(static_cast<const Negation &>(*Inner).getInner());
      }
      return std::make_unique<Negation>(std::move(Inner));
    }
    case Condition::Kind::Constraint: {
      const auto &C = static_cast<const Constraint &>(Cond);
      ExprPtr Lhs = rewriteExpr(C.getLhs());
      ExprPtr Rhs = rewriteExpr(C.getRhs());
      if (Lhs->getKind() == Expression::Kind::Constant &&
          Rhs->getKind() == Expression::Kind::Constant) {
        const bool Holds =
            applyCmp(C.getOp(),
                     static_cast<const Constant &>(*Lhs).getValue(),
                     static_cast<const Constant &>(*Rhs).getValue());
        ++Stats.FoldedConditions;
        if (Holds)
          return std::make_unique<True>();
        // There is no False node; a never-true constraint keeps the
        // constant operands (cheap and rare — it only survives in dead
        // rules).
      }
      return std::make_unique<Constraint>(C.getOp(), std::move(Lhs),
                                          std::move(Rhs));
    }
    case Condition::Kind::ExistenceCheck: {
      const auto &C = static_cast<const ExistenceCheck &>(Cond);
      return std::make_unique<ExistenceCheck>(
          &C.getRelation(), rewritePattern(C.getPattern()));
    }
    case Condition::Kind::True:
    case Condition::Kind::EmptinessCheck:
      return clone(Cond);
    }
    unreachable("unknown condition kind");
  }

  OpPtr rewriteOp(const Operation &Op) {
    switch (Op.getKind()) {
    case Operation::Kind::Scan: {
      const auto &S = static_cast<const Scan &>(Op);
      return std::make_unique<Scan>(&S.getRelation(), S.getTupleId(),
                                    rewriteOp(S.getNested()));
    }
    case Operation::Kind::IndexScan: {
      const auto &S = static_cast<const IndexScan &>(Op);
      return std::make_unique<IndexScan>(
          &S.getRelation(), S.getTupleId(), rewritePattern(S.getPattern()),
          rewriteOp(S.getNested()));
    }
    case Operation::Kind::Filter: {
      const auto &F = static_cast<const Filter &>(Op);
      CondPtr Cond = rewriteCond(F.getCondition());
      OpPtr Nested = rewriteOp(F.getNested());
      if (Cond->getKind() == Condition::Kind::True) {
        ++Stats.FoldedConditions;
        return Nested;
      }
      return std::make_unique<Filter>(std::move(Cond), std::move(Nested));
    }
    case Operation::Kind::Project: {
      const auto &P = static_cast<const Project &>(Op);
      return std::make_unique<Project>(&P.getRelation(),
                                       rewritePattern(P.getValues()));
    }
    case Operation::Kind::Aggregate: {
      const auto &A = static_cast<const Aggregate &>(Op);
      return std::make_unique<Aggregate>(
          A.getFunc(), &A.getRelation(), A.getTupleId(),
          rewritePattern(A.getPattern()),
          A.getTargetExpr() ? rewriteExpr(*A.getTargetExpr()) : nullptr,
          A.getCondition() ? rewriteCond(*A.getCondition()) : nullptr,
          rewriteOp(A.getNested()));
    }
    }
    unreachable("unknown operation kind");
  }

  StmtPtr rewriteStmt(const Statement &Stmt) {
    switch (Stmt.getKind()) {
    case Statement::Kind::Sequence: {
      std::vector<StmtPtr> Children;
      for (const auto &Child :
           static_cast<const Sequence &>(Stmt).getStatements())
        Children.push_back(rewriteStmt(*Child));
      return std::make_unique<Sequence>(std::move(Children));
    }
    case Statement::Kind::Loop:
      return std::make_unique<Loop>(
          rewriteStmt(static_cast<const Loop &>(Stmt).getBody()));
    case Statement::Kind::Exit:
      return std::make_unique<Exit>(
          rewriteCond(static_cast<const Exit &>(Stmt).getCondition()));
    case Statement::Kind::Query:
      return std::make_unique<Query>(
          rewriteOp(static_cast<const Query &>(Stmt).getRoot()));
    case Statement::Kind::LogTimer: {
      const auto &Log = static_cast<const LogTimer &>(Stmt);
      return std::make_unique<LogTimer>(Log.getLabel(), Log.getInfo(),
                                        rewriteStmt(Log.getBody()));
    }
    default:
      return clone(Stmt);
    }
  }

private:
  SymbolTable &Symbols;
  TransformStats &Stats;
};

//===----------------------------------------------------------------------===//
// Filter merging
//===----------------------------------------------------------------------===//

class FilterMerger {
public:
  explicit FilterMerger(std::size_t &Merged) : Merged(Merged) {}

  OpPtr rewriteOp(const Operation &Op) {
    switch (Op.getKind()) {
    case Operation::Kind::Scan: {
      const auto &S = static_cast<const Scan &>(Op);
      return std::make_unique<Scan>(&S.getRelation(), S.getTupleId(),
                                    rewriteOp(S.getNested()));
    }
    case Operation::Kind::IndexScan: {
      const auto &S = static_cast<const IndexScan &>(Op);
      return std::make_unique<IndexScan>(&S.getRelation(), S.getTupleId(),
                                         clonePattern(S.getPattern()),
                                         rewriteOp(S.getNested()));
    }
    case Operation::Kind::Filter: {
      // Collect the maximal chain of directly nested filters.
      const auto *F = &static_cast<const Filter &>(Op);
      CondPtr Merged = clone(F->getCondition());
      while (F->getNested().getKind() == Operation::Kind::Filter) {
        F = &static_cast<const Filter &>(F->getNested());
        Merged = std::make_unique<Conjunction>(std::move(Merged),
                                               clone(F->getCondition()));
        ++this->Merged;
      }
      return std::make_unique<Filter>(std::move(Merged),
                                      rewriteOp(F->getNested()));
    }
    case Operation::Kind::Project:
      return clone(Op);
    case Operation::Kind::Aggregate: {
      const auto &A = static_cast<const Aggregate &>(Op);
      return std::make_unique<Aggregate>(
          A.getFunc(), &A.getRelation(), A.getTupleId(),
          clonePattern(A.getPattern()),
          A.getTargetExpr() ? clone(*A.getTargetExpr()) : nullptr,
          A.getCondition() ? clone(*A.getCondition()) : nullptr,
          rewriteOp(A.getNested()));
    }
    }
    unreachable("unknown operation kind");
  }

  StmtPtr rewriteStmt(const Statement &Stmt) {
    switch (Stmt.getKind()) {
    case Statement::Kind::Sequence: {
      std::vector<StmtPtr> Children;
      for (const auto &Child :
           static_cast<const Sequence &>(Stmt).getStatements())
        Children.push_back(rewriteStmt(*Child));
      return std::make_unique<Sequence>(std::move(Children));
    }
    case Statement::Kind::Loop:
      return std::make_unique<Loop>(
          rewriteStmt(static_cast<const Loop &>(Stmt).getBody()));
    case Statement::Kind::Query:
      return std::make_unique<Query>(
          rewriteOp(static_cast<const Query &>(Stmt).getRoot()));
    case Statement::Kind::LogTimer: {
      const auto &Log = static_cast<const LogTimer &>(Stmt);
      return std::make_unique<LogTimer>(Log.getLabel(), Log.getInfo(),
                                        rewriteStmt(Log.getBody()));
    }
    default:
      return clone(Stmt);
    }
  }

private:
  std::size_t &Merged;
};

} // namespace

TransformStats stird::ram::foldConstants(Program &Prog,
                                         SymbolTable &Symbols) {
  TransformStats Stats;
  ConstantFolder Folder(Symbols, Stats);
  Prog.rewriteRoots(
      [&](const Statement &Root) { return Folder.rewriteStmt(Root); });
  return Stats;
}

std::size_t stird::ram::mergeAdjacentFilters(Program &Prog) {
  std::size_t Merged = 0;
  FilterMerger Merger(Merged);
  Prog.rewriteRoots(
      [&](const Statement &Root) { return Merger.rewriteStmt(Root); });
  return Merged;
}
