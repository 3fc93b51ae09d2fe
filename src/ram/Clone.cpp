//===- ram/Clone.cpp - Deep copies of RAM subtrees ----------------------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//

#include "ram/Clone.h"

#include "util/MiscUtil.h"

using namespace stird;
using namespace stird::ram;

std::vector<ExprPtr>
stird::ram::clonePattern(const std::vector<ExprPtr> &Pattern) {
  std::vector<ExprPtr> Result;
  Result.reserve(Pattern.size());
  for (const auto &Col : Pattern)
    Result.push_back(clone(*Col));
  return Result;
}

ExprPtr stird::ram::clone(const Expression &Expr) {
  switch (Expr.getKind()) {
  case Expression::Kind::Constant:
    return std::make_unique<Constant>(
        static_cast<const Constant &>(Expr).getValue());
  case Expression::Kind::TupleElement: {
    const auto &TE = static_cast<const TupleElement &>(Expr);
    return std::make_unique<TupleElement>(TE.getTupleId(), TE.getElement());
  }
  case Expression::Kind::Intrinsic: {
    const auto &Op = static_cast<const Intrinsic &>(Expr);
    std::vector<ExprPtr> Args;
    for (const auto &Arg : Op.getArgs())
      Args.push_back(clone(*Arg));
    return std::make_unique<Intrinsic>(Op.getOp(), std::move(Args));
  }
  case Expression::Kind::AutoIncrement:
    return std::make_unique<AutoIncrement>();
  case Expression::Kind::Undef:
    return std::make_unique<Undef>();
  }
  unreachable("unknown expression kind");
}

CondPtr stird::ram::clone(const Condition &Cond) {
  switch (Cond.getKind()) {
  case Condition::Kind::True:
    return std::make_unique<True>();
  case Condition::Kind::Conjunction: {
    const auto &C = static_cast<const Conjunction &>(Cond);
    return std::make_unique<Conjunction>(clone(C.getLhs()), clone(C.getRhs()));
  }
  case Condition::Kind::Negation:
    return std::make_unique<Negation>(
        clone(static_cast<const Negation &>(Cond).getInner()));
  case Condition::Kind::Constraint: {
    const auto &C = static_cast<const Constraint &>(Cond);
    return std::make_unique<Constraint>(C.getOp(), clone(C.getLhs()),
                                        clone(C.getRhs()));
  }
  case Condition::Kind::EmptinessCheck:
    return std::make_unique<EmptinessCheck>(
        &static_cast<const EmptinessCheck &>(Cond).getRelation());
  case Condition::Kind::ExistenceCheck: {
    const auto &C = static_cast<const ExistenceCheck &>(Cond);
    return std::make_unique<ExistenceCheck>(&C.getRelation(),
                                            clonePattern(C.getPattern()));
  }
  }
  unreachable("unknown condition kind");
}

OpPtr stird::ram::clone(const Operation &Op) {
  switch (Op.getKind()) {
  case Operation::Kind::Scan: {
    const auto &S = static_cast<const Scan &>(Op);
    return std::make_unique<Scan>(&S.getRelation(), S.getTupleId(),
                                  clone(S.getNested()));
  }
  case Operation::Kind::IndexScan: {
    const auto &S = static_cast<const IndexScan &>(Op);
    return std::make_unique<IndexScan>(&S.getRelation(), S.getTupleId(),
                                       clonePattern(S.getPattern()),
                                       clone(S.getNested()));
  }
  case Operation::Kind::Filter: {
    const auto &F = static_cast<const Filter &>(Op);
    return std::make_unique<Filter>(clone(F.getCondition()),
                                    clone(F.getNested()));
  }
  case Operation::Kind::Project: {
    const auto &P = static_cast<const Project &>(Op);
    return std::make_unique<Project>(&P.getRelation(),
                                     clonePattern(P.getValues()));
  }
  case Operation::Kind::Aggregate: {
    const auto &A = static_cast<const Aggregate &>(Op);
    return std::make_unique<Aggregate>(
        A.getFunc(), &A.getRelation(), A.getTupleId(),
        clonePattern(A.getPattern()),
        A.getTargetExpr() ? clone(*A.getTargetExpr()) : nullptr,
        A.getCondition() ? clone(*A.getCondition()) : nullptr,
        clone(A.getNested()));
  }
  }
  unreachable("unknown operation kind");
}

StmtPtr stird::ram::clone(const Statement &Stmt) {
  switch (Stmt.getKind()) {
  case Statement::Kind::Sequence: {
    std::vector<StmtPtr> Children;
    for (const auto &Child :
         static_cast<const Sequence &>(Stmt).getStatements())
      Children.push_back(clone(*Child));
    return std::make_unique<Sequence>(std::move(Children));
  }
  case Statement::Kind::Loop:
    return std::make_unique<Loop>(
        clone(static_cast<const Loop &>(Stmt).getBody()));
  case Statement::Kind::Exit:
    return std::make_unique<Exit>(
        clone(static_cast<const Exit &>(Stmt).getCondition()));
  case Statement::Kind::Query:
    return std::make_unique<Query>(
        clone(static_cast<const Query &>(Stmt).getRoot()));
  case Statement::Kind::Clear:
    return std::make_unique<Clear>(
        &static_cast<const Clear &>(Stmt).getRelation());
  case Statement::Kind::Swap: {
    const auto &S = static_cast<const Swap &>(Stmt);
    return std::make_unique<Swap>(&S.getFirst(), &S.getSecond());
  }
  case Statement::Kind::MergeInto: {
    const auto &M = static_cast<const MergeInto &>(Stmt);
    return std::make_unique<MergeInto>(&M.getSource(), &M.getDestination());
  }
  case Statement::Kind::Erase: {
    const auto &E = static_cast<const Erase &>(Stmt);
    return std::make_unique<Erase>(&E.getSource(), &E.getDestination());
  }
  case Statement::Kind::SubtractInto: {
    const auto &S = static_cast<const SubtractInto &>(Stmt);
    return std::make_unique<SubtractInto>(&S.getSource(), &S.getFilter(),
                                          &S.getDestination());
  }
  case Statement::Kind::Io: {
    const auto &IoStmt = static_cast<const Io &>(Stmt);
    return std::make_unique<Io>(IoStmt.getDirection(), &IoStmt.getRelation());
  }
  case Statement::Kind::LogTimer: {
    const auto &Log = static_cast<const LogTimer &>(Stmt);
    // RuleInfo is plain data (label, stratum, the planner's Sips/AtomOrder
    // annotations, ...) — the struct copy carries everything.
    return std::make_unique<LogTimer>(Log.getLabel(), Log.getInfo(),
                                      clone(Log.getBody()));
  }
  }
  unreachable("unknown statement kind");
}
