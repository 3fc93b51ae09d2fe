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
#include <unordered_set>

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

//===----------------------------------------------------------------------===//
// Filter sinking
//===----------------------------------------------------------------------===//

/// Collects the tuple ids an expression reads and whether it contains an
/// AutoIncrement (whose evaluation count is observable, so it must not move
/// from a per-tuple filter into a once-per-scan pattern).
void analyzeExpr(const Expression &Expr, std::unordered_set<std::uint32_t> &Ids,
                 bool &HasCounter) {
  switch (Expr.getKind()) {
  case Expression::Kind::TupleElement:
    Ids.insert(static_cast<const TupleElement &>(Expr).getTupleId());
    return;
  case Expression::Kind::Intrinsic:
    for (const auto &Arg : static_cast<const Intrinsic &>(Expr).getArgs())
      analyzeExpr(*Arg, Ids, HasCounter);
    return;
  case Expression::Kind::AutoIncrement:
    HasCounter = true;
    return;
  case Expression::Kind::Constant:
  case Expression::Kind::Undef:
    return;
  }
  unreachable("unknown expression kind");
}

class FilterSinker {
public:
  explicit FilterSinker(std::size_t &Sunk) : Sunk(Sunk) {}

  OpPtr rewriteOp(const Operation &Op) {
    switch (Op.getKind()) {
    case Operation::Kind::Scan: {
      const auto &S = static_cast<const Scan &>(Op);
      std::vector<ExprPtr> Pattern;
      for (std::size_t I = 0; I < S.getRelation().getArity(); ++I)
        Pattern.push_back(std::make_unique<Undef>());
      return rewriteScan(S.getRelation(), S.getTupleId(), std::move(Pattern),
                         S.getNested());
    }
    case Operation::Kind::IndexScan: {
      const auto &S = static_cast<const IndexScan &>(Op);
      return rewriteScan(S.getRelation(), S.getTupleId(),
                         clonePattern(S.getPattern()), S.getNested());
    }
    case Operation::Kind::Filter: {
      const auto &F = static_cast<const Filter &>(Op);
      return std::make_unique<Filter>(clone(F.getCondition()),
                                      rewriteOp(F.getNested()));
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
  /// The core rewrite: absorbs sinkable equality conjuncts from the filter
  /// chain directly beneath the scan of \p Tid into \p Pattern.
  OpPtr rewriteScan(const Relation &Rel, std::uint32_t Tid,
                    std::vector<ExprPtr> Pattern, const Operation &Nested) {
    // Split the immediate filter chain into conjuncts, absorbing what we
    // can. Unsinkable conjuncts are re-emitted as filters in order.
    const Operation *Rest = &Nested;
    std::vector<CondPtr> Kept;
    while (Rest->getKind() == Operation::Kind::Filter) {
      const auto &F = static_cast<const Filter &>(*Rest);
      absorb(F.getCondition(), Tid, Pattern, Kept);
      Rest = &F.getNested();
    }

    OpPtr Result = rewriteOp(*Rest);
    for (auto It = Kept.rbegin(); It != Kept.rend(); ++It)
      Result = std::make_unique<Filter>(std::move(*It), std::move(Result));
    if (searchSignature(Pattern) == 0)
      return std::make_unique<Scan>(&Rel, Tid, std::move(Result));
    return std::make_unique<IndexScan>(&Rel, Tid, std::move(Pattern),
                                       std::move(Result));
  }

  /// Recurses through conjunctions; sinks `TupleElement(Tid, col) == expr`
  /// (either side) into \p Pattern when expr reads nothing scanned at or
  /// below this level, collecting every other conjunct into \p Kept.
  void absorb(const Condition &Cond, std::uint32_t Tid,
              std::vector<ExprPtr> &Pattern, std::vector<CondPtr> &Kept) {
    if (Cond.getKind() == Condition::Kind::Conjunction) {
      const auto &C = static_cast<const Conjunction &>(Cond);
      absorb(C.getLhs(), Tid, Pattern, Kept);
      absorb(C.getRhs(), Tid, Pattern, Kept);
      return;
    }
    if (Cond.getKind() == Condition::Kind::Constraint) {
      const auto &C = static_cast<const Constraint &>(Cond);
      if (C.getOp() == CmpOp::Eq &&
          (trySink(C.getLhs(), C.getRhs(), Tid, Pattern) ||
           trySink(C.getRhs(), C.getLhs(), Tid, Pattern))) {
        ++Sunk;
        return;
      }
    }
    Kept.push_back(clone(Cond));
  }

  bool trySink(const Expression &ColSide, const Expression &ExprSide,
               std::uint32_t Tid, std::vector<ExprPtr> &Pattern) {
    if (ColSide.getKind() != Expression::Kind::TupleElement)
      return false;
    const auto &Elem = static_cast<const TupleElement &>(ColSide);
    if (Elem.getTupleId() != Tid || Elem.getElement() >= Pattern.size() ||
        Pattern[Elem.getElement()]->getKind() != Expression::Kind::Undef)
      return false;
    std::unordered_set<std::uint32_t> Ids;
    bool HasCounter = false;
    analyzeExpr(ExprSide, Ids, HasCounter);
    // A value is only available when the lookup starts if every tuple it
    // reads is bound further out. Operation trees are single chains with
    // tuple ids assigned in nesting order, so outer means a smaller id.
    if (HasCounter)
      return false;
    for (std::uint32_t Id : Ids)
      if (Id >= Tid)
        return false;
    Pattern[Elem.getElement()] = clone(ExprSide);
    return true;
  }

  std::size_t &Sunk;
};

} // namespace

TransformStats stird::ram::foldConstants(Program &Prog,
                                         SymbolTable &Symbols) {
  TransformStats Stats;
  if (!Prog.hasMain())
    return Stats;
  ConstantFolder Folder(Symbols, Stats);
  Prog.setMain(Folder.rewriteStmt(Prog.getMain()));
  return Stats;
}

std::size_t stird::ram::mergeAdjacentFilters(Program &Prog) {
  std::size_t Merged = 0;
  if (!Prog.hasMain())
    return Merged;
  FilterMerger Merger(Merged);
  Prog.setMain(Merger.rewriteStmt(Prog.getMain()));
  return Merged;
}

std::size_t stird::ram::sinkFiltersIntoScans(Program &Prog) {
  std::size_t Sunk = 0;
  if (!Prog.hasMain())
    return Sunk;
  FilterSinker Sinker(Sunk);
  Prog.setMain(Sinker.rewriteStmt(Prog.getMain()));
  return Sunk;
}
