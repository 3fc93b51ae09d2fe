//===- ast/Ast.h - Datalog abstract syntax tree -----------------*- C++ -*-===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstract syntax tree of the supported Soufflé-style Datalog dialect:
/// relation declarations with typed attributes and data-structure
/// qualifiers, IO directives, facts and rules with negation, constraints,
/// arithmetic/string functors, counters and aggregates.
///
/// The hierarchy uses an LLVM-style Kind discriminator with static_cast
/// dispatch; there is no RTTI.
///
//===----------------------------------------------------------------------===//

#ifndef STIRD_AST_AST_H
#define STIRD_AST_AST_H

#include "util/RamTypes.h"

#include <cassert>
#include <memory>
#include <string>
#include <vector>

namespace stird::ast {

/// Source position for diagnostics.
struct SrcLoc {
  int Line = 0;
  int Col = 0;
};

/// The four primitive attribute types (the paper's second de-specialization
/// step erases them at the storage level; the frontend still checks them).
enum class TypeKind { Number, Unsigned, Float, Symbol };

/// Returns the Soufflé spelling of a primitive type.
const char *typeName(TypeKind Kind);

/// Which DER data structure backs a relation (a `.decl` qualifier).
enum class StructureKind { Btree, Brie, Eqrel };

/// Functor operators, untyped at the AST level; semantic analysis resolves
/// numeric overloads to the typed RAM intrinsics.
enum class FunctorOp {
  // Unary.
  Neg,
  BNot,
  LNot,
  Ord,
  Strlen,
  ToNumber,
  ToString,
  // Binary and beyond.
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  Exp,
  Band,
  Bor,
  Bxor,
  Bshl,
  Bshr,
  Max,
  Min,
  Cat,
  Substr,
};

/// Aggregate operators.
enum class AggregateOp { Count, Sum, Min, Max };

/// Comparison operators of constraint literals.
enum class ConstraintOp { Eq, Ne, Lt, Le, Gt, Ge, Match, Contains };

class Literal;

//===----------------------------------------------------------------------===//
// Arguments
//===----------------------------------------------------------------------===//

/// Base class of everything that can appear in an atom argument position.
class Argument {
public:
  enum class Kind {
    Variable,
    UnnamedVariable,
    NumberConstant,
    UnsignedConstant,
    FloatConstant,
    StringConstant,
    Functor,
    Counter,
    Aggregator,
  };

  virtual ~Argument() = default;
  Kind getKind() const { return TheKind; }
  SrcLoc getLoc() const { return Loc; }

  /// Deep copy, used when rules are instantiated into semi-naive versions.
  virtual std::unique_ptr<Argument> clone() const = 0;

  /// Renders the argument as Datalog source (for diagnostics and tests).
  virtual std::string toString() const = 0;

protected:
  Argument(Kind K, SrcLoc Loc) : TheKind(K), Loc(Loc) {}

private:
  Kind TheKind;
  SrcLoc Loc;
};

/// A named variable.
class Variable : public Argument {
public:
  Variable(std::string Name, SrcLoc Loc)
      : Argument(Kind::Variable, Loc), Name(std::move(Name)) {}

  const std::string &getName() const { return Name; }

  std::unique_ptr<Argument> clone() const override {
    return std::make_unique<Variable>(Name, getLoc());
  }
  std::string toString() const override { return Name; }

private:
  std::string Name;
};

/// The wildcard `_`.
class UnnamedVariable : public Argument {
public:
  explicit UnnamedVariable(SrcLoc Loc)
      : Argument(Kind::UnnamedVariable, Loc) {}

  std::unique_ptr<Argument> clone() const override {
    return std::make_unique<UnnamedVariable>(getLoc());
  }
  std::string toString() const override { return "_"; }
};

/// A signed number literal.
class NumberConstant : public Argument {
public:
  NumberConstant(RamDomain Value, SrcLoc Loc)
      : Argument(Kind::NumberConstant, Loc), Value(Value) {}

  RamDomain getValue() const { return Value; }

  std::unique_ptr<Argument> clone() const override {
    return std::make_unique<NumberConstant>(Value, getLoc());
  }
  std::string toString() const override { return std::to_string(Value); }

private:
  RamDomain Value;
};

/// An unsigned literal (suffix `u`).
class UnsignedConstant : public Argument {
public:
  UnsignedConstant(RamUnsigned Value, SrcLoc Loc)
      : Argument(Kind::UnsignedConstant, Loc), Value(Value) {}

  RamUnsigned getValue() const { return Value; }

  std::unique_ptr<Argument> clone() const override {
    return std::make_unique<UnsignedConstant>(Value, getLoc());
  }
  std::string toString() const override {
    return std::to_string(Value) + "u";
  }

private:
  RamUnsigned Value;
};

/// A floating-point literal.
class FloatConstant : public Argument {
public:
  FloatConstant(RamFloat Value, SrcLoc Loc)
      : Argument(Kind::FloatConstant, Loc), Value(Value) {}

  RamFloat getValue() const { return Value; }

  std::unique_ptr<Argument> clone() const override {
    return std::make_unique<FloatConstant>(Value, getLoc());
  }
  std::string toString() const override { return std::to_string(Value); }

private:
  RamFloat Value;
};

/// A string literal.
class StringConstant : public Argument {
public:
  StringConstant(std::string Value, SrcLoc Loc)
      : Argument(Kind::StringConstant, Loc), Value(std::move(Value)) {}

  const std::string &getValue() const { return Value; }

  std::unique_ptr<Argument> clone() const override {
    return std::make_unique<StringConstant>(Value, getLoc());
  }
  std::string toString() const override { return "\"" + Value + "\""; }

private:
  std::string Value;
};

/// An intrinsic functor application.
class Functor : public Argument {
public:
  Functor(FunctorOp Op, std::vector<std::unique_ptr<Argument>> Args,
          SrcLoc Loc)
      : Argument(Kind::Functor, Loc), Op(Op), Args(std::move(Args)) {}

  FunctorOp getOp() const { return Op; }
  const std::vector<std::unique_ptr<Argument>> &getArgs() const {
    return Args;
  }

  std::unique_ptr<Argument> clone() const override;
  std::string toString() const override;

private:
  FunctorOp Op;
  std::vector<std::unique_ptr<Argument>> Args;
};

/// The `$` auto-increment counter.
class Counter : public Argument {
public:
  explicit Counter(SrcLoc Loc) : Argument(Kind::Counter, Loc) {}

  std::unique_ptr<Argument> clone() const override {
    return std::make_unique<Counter>(getLoc());
  }
  std::string toString() const override { return "$"; }
};

//===----------------------------------------------------------------------===//
// Literals
//===----------------------------------------------------------------------===//

/// Base class of body literals and the rule head.
class Literal {
public:
  enum class Kind { Atom, Negation, Constraint };

  virtual ~Literal() = default;
  Kind getKind() const { return TheKind; }
  SrcLoc getLoc() const { return Loc; }

  virtual std::unique_ptr<Literal> clone() const = 0;
  virtual std::string toString() const = 0;

protected:
  Literal(Kind K, SrcLoc Loc) : TheKind(K), Loc(Loc) {}

private:
  Kind TheKind;
  SrcLoc Loc;
};

/// A positive relation atom R(x1, ..., xn).
class Atom : public Literal {
public:
  Atom(std::string Name, std::vector<std::unique_ptr<Argument>> Args,
       SrcLoc Loc)
      : Literal(Kind::Atom, Loc), Name(std::move(Name)),
        Args(std::move(Args)) {}

  const std::string &getName() const { return Name; }
  void setName(std::string NewName) { Name = std::move(NewName); }
  const std::vector<std::unique_ptr<Argument>> &getArgs() const {
    return Args;
  }
  std::size_t getArity() const { return Args.size(); }

  std::unique_ptr<Atom> cloneAtom() const;
  std::unique_ptr<Literal> clone() const override { return cloneAtom(); }
  std::string toString() const override;

private:
  std::string Name;
  std::vector<std::unique_ptr<Argument>> Args;
};

/// A negated atom !R(x1, ..., xn).
class Negation : public Literal {
public:
  Negation(std::unique_ptr<Atom> Inner, SrcLoc Loc)
      : Literal(Kind::Negation, Loc), Inner(std::move(Inner)) {}

  const Atom &getAtom() const { return *Inner; }

  std::unique_ptr<Literal> clone() const override {
    return std::make_unique<Negation>(Inner->cloneAtom(), getLoc());
  }
  std::string toString() const override { return "!" + Inner->toString(); }

private:
  std::unique_ptr<Atom> Inner;
};

/// A binary constraint such as x < y + 1.
class Constraint : public Literal {
public:
  Constraint(ConstraintOp Op, std::unique_ptr<Argument> Lhs,
             std::unique_ptr<Argument> Rhs, SrcLoc Loc)
      : Literal(Kind::Constraint, Loc), Op(Op), Lhs(std::move(Lhs)),
        Rhs(std::move(Rhs)) {}

  ConstraintOp getOp() const { return Op; }
  const Argument &getLhs() const { return *Lhs; }
  const Argument &getRhs() const { return *Rhs; }

  std::unique_ptr<Literal> clone() const override {
    return std::make_unique<Constraint>(Op, Lhs->clone(), Rhs->clone(),
                                        getLoc());
  }
  std::string toString() const override;

private:
  ConstraintOp Op;
  std::unique_ptr<Argument> Lhs;
  std::unique_ptr<Argument> Rhs;
};

/// An aggregate argument, e.g. `sum y : { edge(x, y) }`. Declared after
/// Literal because its body is a literal list.
class Aggregator : public Argument {
public:
  Aggregator(AggregateOp Op, std::unique_ptr<Argument> Target,
             std::vector<std::unique_ptr<Literal>> Body, SrcLoc Loc)
      : Argument(Kind::Aggregator, Loc), Op(Op), Target(std::move(Target)),
        Body(std::move(Body)) {}

  AggregateOp getOp() const { return Op; }
  /// The folded expression; null for `count`.
  const Argument *getTarget() const { return Target.get(); }
  const std::vector<std::unique_ptr<Literal>> &getBody() const {
    return Body;
  }

  std::unique_ptr<Argument> clone() const override;
  std::string toString() const override;

private:
  AggregateOp Op;
  std::unique_ptr<Argument> Target;
  std::vector<std::unique_ptr<Literal>> Body;
};

//===----------------------------------------------------------------------===//
// Program structure
//===----------------------------------------------------------------------===//

/// One typed attribute of a relation declaration.
struct Attribute {
  std::string Name;
  TypeKind Type;
};

/// A `.decl` with its qualifiers and attached IO directives.
class RelationDecl {
public:
  RelationDecl(std::string Name, std::vector<Attribute> Attributes,
               StructureKind Structure, SrcLoc Loc)
      : Name(std::move(Name)), Attributes(std::move(Attributes)),
        Structure(Structure), Loc(Loc) {}

  const std::string &getName() const { return Name; }
  const std::vector<Attribute> &getAttributes() const { return Attributes; }
  std::size_t getArity() const { return Attributes.size(); }
  StructureKind getStructure() const { return Structure; }
  SrcLoc getLoc() const { return Loc; }

  bool isInput() const { return Input; }
  bool isOutput() const { return Output; }
  bool isPrintSize() const { return PrintSize; }
  const std::string &getInputPath() const { return InputPath; }
  const std::string &getOutputPath() const { return OutputPath; }

  void markInput(std::string Path) {
    Input = true;
    InputPath = std::move(Path);
  }
  void markOutput(std::string Path) {
    Output = true;
    OutputPath = std::move(Path);
  }
  void markPrintSize() { PrintSize = true; }

private:
  std::string Name;
  std::vector<Attribute> Attributes;
  StructureKind Structure;
  SrcLoc Loc;
  bool Input = false;
  bool Output = false;
  bool PrintSize = false;
  std::string InputPath;
  std::string OutputPath;
};

/// A fact or rule.
class Clause {
public:
  Clause(std::unique_ptr<Atom> Head,
         std::vector<std::unique_ptr<Literal>> Body, SrcLoc Loc)
      : Head(std::move(Head)), Body(std::move(Body)), Loc(Loc) {}

  const Atom &getHead() const { return *Head; }
  Atom &getHead() { return *Head; }
  const std::vector<std::unique_ptr<Literal>> &getBody() const {
    return Body;
  }
  std::vector<std::unique_ptr<Literal>> &getBody() { return Body; }
  bool isFact() const { return Body.empty(); }
  SrcLoc getLoc() const { return Loc; }

  std::unique_ptr<Clause> clone() const;
  std::string toString() const;

private:
  std::unique_ptr<Atom> Head;
  std::vector<std::unique_ptr<Literal>> Body;
  SrcLoc Loc;
};

/// A whole parsed program.
class Program {
public:
  std::vector<std::unique_ptr<RelationDecl>> Relations;
  std::vector<std::unique_ptr<Clause>> Clauses;

  /// Finds a declaration by name, or null.
  const RelationDecl *findRelation(const std::string &Name) const;
  RelationDecl *findRelation(const std::string &Name);

  std::string toString() const;
};

} // namespace stird::ast

#endif // STIRD_AST_AST_H
