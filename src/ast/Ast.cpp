//===- ast/Ast.cpp - Datalog abstract syntax tree --------------------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//

#include "ast/Ast.h"

#include "util/MiscUtil.h"

#include <sstream>

using namespace stird;
using namespace stird::ast;

const char *stird::ast::typeName(TypeKind Kind) {
  switch (Kind) {
  case TypeKind::Number:
    return "number";
  case TypeKind::Unsigned:
    return "unsigned";
  case TypeKind::Float:
    return "float";
  case TypeKind::Symbol:
    return "symbol";
  }
  unreachable("unknown type kind");
}

/// Spelling of a functor operator in source syntax.
static const char *functorName(FunctorOp Op) {
  switch (Op) {
  case FunctorOp::Neg:
    return "-";
  case FunctorOp::BNot:
    return "bnot";
  case FunctorOp::LNot:
    return "lnot";
  case FunctorOp::Ord:
    return "ord";
  case FunctorOp::Strlen:
    return "strlen";
  case FunctorOp::ToNumber:
    return "to_number";
  case FunctorOp::ToString:
    return "to_string";
  case FunctorOp::Add:
    return "+";
  case FunctorOp::Sub:
    return "-";
  case FunctorOp::Mul:
    return "*";
  case FunctorOp::Div:
    return "/";
  case FunctorOp::Mod:
    return "%";
  case FunctorOp::Exp:
    return "^";
  case FunctorOp::Band:
    return "band";
  case FunctorOp::Bor:
    return "bor";
  case FunctorOp::Bxor:
    return "bxor";
  case FunctorOp::Bshl:
    return "bshl";
  case FunctorOp::Bshr:
    return "bshr";
  case FunctorOp::Max:
    return "max";
  case FunctorOp::Min:
    return "min";
  case FunctorOp::Cat:
    return "cat";
  case FunctorOp::Substr:
    return "substr";
  }
  unreachable("unknown functor op");
}

static bool isInfix(FunctorOp Op) {
  switch (Op) {
  case FunctorOp::Add:
  case FunctorOp::Sub:
  case FunctorOp::Mul:
  case FunctorOp::Div:
  case FunctorOp::Mod:
  case FunctorOp::Exp:
  case FunctorOp::Band:
  case FunctorOp::Bor:
  case FunctorOp::Bxor:
  case FunctorOp::Bshl:
  case FunctorOp::Bshr:
    return true;
  default:
    return false;
  }
}

std::unique_ptr<Argument> Functor::clone() const {
  std::vector<std::unique_ptr<Argument>> ClonedArgs;
  ClonedArgs.reserve(Args.size());
  for (const auto &Arg : Args)
    ClonedArgs.push_back(Arg->clone());
  return std::make_unique<Functor>(Op, std::move(ClonedArgs), getLoc());
}

std::string Functor::toString() const {
  std::ostringstream Out;
  if (Args.size() == 2 && isInfix(Op)) {
    Out << "(" << Args[0]->toString() << " " << functorName(Op) << " "
        << Args[1]->toString() << ")";
    return Out.str();
  }
  if (Args.size() == 1 && Op == FunctorOp::Neg) {
    Out << "(-" << Args[0]->toString() << ")";
    return Out.str();
  }
  Out << functorName(Op) << "(";
  for (std::size_t I = 0; I < Args.size(); ++I) {
    if (I != 0)
      Out << ", ";
    Out << Args[I]->toString();
  }
  Out << ")";
  return Out.str();
}

std::unique_ptr<Argument> Aggregator::clone() const {
  std::vector<std::unique_ptr<Literal>> ClonedBody;
  ClonedBody.reserve(Body.size());
  for (const auto &Lit : Body)
    ClonedBody.push_back(Lit->clone());
  return std::make_unique<Aggregator>(
      Op, Target ? Target->clone() : nullptr, std::move(ClonedBody),
      getLoc());
}

std::string Aggregator::toString() const {
  std::ostringstream Out;
  switch (Op) {
  case AggregateOp::Count:
    Out << "count";
    break;
  case AggregateOp::Sum:
    Out << "sum";
    break;
  case AggregateOp::Min:
    Out << "min";
    break;
  case AggregateOp::Max:
    Out << "max";
    break;
  }
  if (Target)
    Out << " " << Target->toString();
  Out << " : { ";
  for (std::size_t I = 0; I < Body.size(); ++I) {
    if (I != 0)
      Out << ", ";
    Out << Body[I]->toString();
  }
  Out << " }";
  return Out.str();
}

std::unique_ptr<Atom> Atom::cloneAtom() const {
  std::vector<std::unique_ptr<Argument>> ClonedArgs;
  ClonedArgs.reserve(Args.size());
  for (const auto &Arg : Args)
    ClonedArgs.push_back(Arg->clone());
  return std::make_unique<Atom>(Name, std::move(ClonedArgs), getLoc());
}

std::string Atom::toString() const {
  std::ostringstream Out;
  Out << Name << "(";
  for (std::size_t I = 0; I < Args.size(); ++I) {
    if (I != 0)
      Out << ", ";
    Out << Args[I]->toString();
  }
  Out << ")";
  return Out.str();
}

std::string Constraint::toString() const {
  const char *OpName = nullptr;
  switch (Op) {
  case ConstraintOp::Eq:
    OpName = "=";
    break;
  case ConstraintOp::Ne:
    OpName = "!=";
    break;
  case ConstraintOp::Lt:
    OpName = "<";
    break;
  case ConstraintOp::Le:
    OpName = "<=";
    break;
  case ConstraintOp::Gt:
    OpName = ">";
    break;
  case ConstraintOp::Ge:
    OpName = ">=";
    break;
  case ConstraintOp::Match:
    OpName = "match";
    break;
  case ConstraintOp::Contains:
    OpName = "contains";
    break;
  }
  return Lhs->toString() + " " + OpName + " " + Rhs->toString();
}

std::unique_ptr<Clause> Clause::clone() const {
  std::vector<std::unique_ptr<Literal>> ClonedBody;
  ClonedBody.reserve(Body.size());
  for (const auto &Lit : Body)
    ClonedBody.push_back(Lit->clone());
  return std::make_unique<Clause>(Head->cloneAtom(), std::move(ClonedBody),
                                  Loc);
}

std::string Clause::toString() const {
  std::ostringstream Out;
  Out << Head->toString();
  if (!Body.empty()) {
    Out << " :- ";
    for (std::size_t I = 0; I < Body.size(); ++I) {
      if (I != 0)
        Out << ", ";
      Out << Body[I]->toString();
    }
  }
  Out << ".";
  return Out.str();
}

const RelationDecl *Program::findRelation(const std::string &Name) const {
  for (const auto &Rel : Relations)
    if (Rel->getName() == Name)
      return Rel.get();
  return nullptr;
}

RelationDecl *Program::findRelation(const std::string &Name) {
  for (const auto &Rel : Relations)
    if (Rel->getName() == Name)
      return Rel.get();
  return nullptr;
}

std::string Program::toString() const {
  std::ostringstream Out;
  for (const auto &Rel : Relations) {
    Out << ".decl " << Rel->getName() << "(";
    const auto &Attrs = Rel->getAttributes();
    for (std::size_t I = 0; I < Attrs.size(); ++I) {
      if (I != 0)
        Out << ", ";
      Out << Attrs[I].Name << ":" << typeName(Attrs[I].Type);
    }
    Out << ")";
    if (Rel->getStructure() == StructureKind::Brie)
      Out << " brie";
    else if (Rel->getStructure() == StructureKind::Eqrel)
      Out << " eqrel";
    Out << "\n";
    if (Rel->isInput())
      Out << ".input " << Rel->getName() << "\n";
    if (Rel->isOutput())
      Out << ".output " << Rel->getName() << "\n";
    if (Rel->isPrintSize())
      Out << ".printsize " << Rel->getName() << "\n";
  }
  for (const auto &C : Clauses)
    Out << C->toString() << "\n";
  return Out.str();
}
