//===- ram/Ram.h - The Relational Algebra Machine IR ------------*- C++ -*-===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Relational Algebra Machine (RAM) intermediate representation:
/// a tree of statements (control flow), operations (nested relational
/// loops), conditions and expressions, mirroring Soufflé's RAM as shown in
/// Fig 3 of the paper. Both the interpreters and the synthesizer consume
/// this IR; interpreter nodes keep shadow pointers back into it (Fig 4).
///
//===----------------------------------------------------------------------===//

#ifndef STIRD_RAM_RAM_H
#define STIRD_RAM_RAM_H

#include "util/Csv.h"
#include "util/RamTypes.h"

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace stird::ram {

/// Data structure backing a RAM relation.
enum class StructureKind { Btree, Brie, Eqrel };

/// A relation declared in a RAM program. Orders (indexes) are attached by
/// index selection after translation.
class Relation {
public:
  Relation(std::string Name, std::vector<ColumnTypeKind> ColumnTypes,
           StructureKind Structure)
      : Name(std::move(Name)), ColumnTypes(std::move(ColumnTypes)),
        Structure(Structure) {}

  const std::string &getName() const { return Name; }
  std::size_t getArity() const { return ColumnTypes.size(); }
  const std::vector<ColumnTypeKind> &getColumnTypes() const {
    return ColumnTypes;
  }
  StructureKind getStructure() const { return Structure; }

  /// The lexicographic orders selected for this relation. Order 0 always
  /// exists; each order is a full column permutation whose prefix serves
  /// one or more primitive searches.
  const std::vector<std::vector<std::uint32_t>> &getOrders() const {
    return Orders;
  }
  void setOrders(std::vector<std::vector<std::uint32_t>> NewOrders) {
    Orders = std::move(NewOrders);
  }

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
  std::vector<ColumnTypeKind> ColumnTypes;
  StructureKind Structure;
  std::vector<std::vector<std::uint32_t>> Orders;
  bool Input = false;
  bool Output = false;
  bool PrintSize = false;
  std::string InputPath;
  std::string OutputPath;
};

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

/// Typed intrinsic operators. Operations whose semantics differ per
/// primitive type carry the type in the opcode (the AST-level overload is
/// resolved during translation).
enum class IntrinsicOp {
  // Unary.
  Neg,
  FNeg,
  BNot,
  LNot,
  Strlen,
  Ord,
  ToNumber,
  ToString,
  // Binary arithmetic; Add/Sub/Mul share bit patterns for signed and
  // unsigned (two's-complement wraparound).
  Add,
  Sub,
  Mul,
  Div,
  UDiv,
  FAdd,
  FSub,
  FMul,
  FDiv,
  Mod,
  UMod,
  Exp,
  UExp,
  FExp,
  Band,
  Bor,
  Bxor,
  Bshl,
  Bshr,
  UBshr,
  Max,
  UMax,
  FMax,
  Min,
  UMin,
  FMin,
  // Strings.
  Cat,
  Substr,
};

/// Base class of RAM expressions.
class Expression {
public:
  enum class Kind {
    Constant,
    TupleElement,
    Intrinsic,
    AutoIncrement,
    Undef,
  };

  virtual ~Expression() = default;
  Kind getKind() const { return TheKind; }

protected:
  explicit Expression(Kind K) : TheKind(K) {}

private:
  Kind TheKind;
};

using ExprPtr = std::unique_ptr<Expression>;

/// A literal RamDomain value (symbols pre-interned).
class Constant : public Expression {
public:
  explicit Constant(RamDomain Value)
      : Expression(Kind::Constant), Value(Value) {}
  RamDomain getValue() const { return Value; }

private:
  RamDomain Value;
};

/// Reads element \p Element of the runtime tuple bound to \p TupleId.
class TupleElement : public Expression {
public:
  TupleElement(std::uint32_t TupleId, std::uint32_t Element)
      : Expression(Kind::TupleElement), TupleId(TupleId), Element(Element) {}
  std::uint32_t getTupleId() const { return TupleId; }
  std::uint32_t getElement() const { return Element; }

private:
  std::uint32_t TupleId;
  std::uint32_t Element;
};

/// An intrinsic functor application.
class Intrinsic : public Expression {
public:
  Intrinsic(IntrinsicOp Op, std::vector<ExprPtr> Args)
      : Expression(Kind::Intrinsic), Op(Op), Args(std::move(Args)) {}
  IntrinsicOp getOp() const { return Op; }
  const std::vector<ExprPtr> &getArgs() const { return Args; }

private:
  IntrinsicOp Op;
  std::vector<ExprPtr> Args;
};

/// The `$` counter: returns the next value of a program-global counter.
class AutoIncrement : public Expression {
public:
  AutoIncrement() : Expression(Kind::AutoIncrement) {}
};

/// An unspecified pattern column (wildcard in a primitive search).
class Undef : public Expression {
public:
  Undef() : Expression(Kind::Undef) {}
};

//===----------------------------------------------------------------------===//
// Conditions
//===----------------------------------------------------------------------===//

/// Typed comparison operators of constraints.
enum class CmpOp {
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  ULt,
  ULe,
  UGt,
  UGe,
  FLt,
  FLe,
  FGt,
  FGe,
};

/// Base class of RAM conditions.
class Condition {
public:
  enum class Kind {
    True,
    Conjunction,
    Negation,
    Constraint,
    EmptinessCheck,
    ExistenceCheck,
  };

  virtual ~Condition() = default;
  Kind getKind() const { return TheKind; }

protected:
  explicit Condition(Kind K) : TheKind(K) {}

private:
  Kind TheKind;
};

using CondPtr = std::unique_ptr<Condition>;

/// The always-true condition.
class True : public Condition {
public:
  True() : Condition(Kind::True) {}
};

/// Logical conjunction.
class Conjunction : public Condition {
public:
  Conjunction(CondPtr Lhs, CondPtr Rhs)
      : Condition(Kind::Conjunction), Lhs(std::move(Lhs)),
        Rhs(std::move(Rhs)) {}
  const Condition &getLhs() const { return *Lhs; }
  const Condition &getRhs() const { return *Rhs; }

private:
  CondPtr Lhs;
  CondPtr Rhs;
};

/// Logical negation.
class Negation : public Condition {
public:
  explicit Negation(CondPtr Inner)
      : Condition(Kind::Negation), Inner(std::move(Inner)) {}
  const Condition &getInner() const { return *Inner; }

private:
  CondPtr Inner;
};

/// A binary comparison between two expressions.
class Constraint : public Condition {
public:
  Constraint(CmpOp Op, ExprPtr Lhs, ExprPtr Rhs)
      : Condition(Kind::Constraint), Op(Op), Lhs(std::move(Lhs)),
        Rhs(std::move(Rhs)) {}
  CmpOp getOp() const { return Op; }
  const Expression &getLhs() const { return *Lhs; }
  const Expression &getRhs() const { return *Rhs; }

private:
  CmpOp Op;
  ExprPtr Lhs;
  ExprPtr Rhs;
};

/// True iff the relation holds no tuples.
class EmptinessCheck : public Condition {
public:
  explicit EmptinessCheck(const Relation *Rel)
      : Condition(Kind::EmptinessCheck), Rel(Rel) {}
  const Relation &getRelation() const { return *Rel; }

private:
  const Relation *Rel;
};

/// True iff some tuple matches the pattern (a primitive search; columns
/// with Undef are wildcards). Pattern columns are given in relation order;
/// the generator maps them onto a selected index.
class ExistenceCheck : public Condition {
public:
  ExistenceCheck(const Relation *Rel, std::vector<ExprPtr> Pattern)
      : Condition(Kind::ExistenceCheck), Rel(Rel),
        Pattern(std::move(Pattern)) {
    assert(this->Pattern.size() == Rel->getArity() &&
           "pattern width must match relation arity");
  }
  const Relation &getRelation() const { return *Rel; }
  const std::vector<ExprPtr> &getPattern() const { return Pattern; }

private:
  const Relation *Rel;
  std::vector<ExprPtr> Pattern;
};

//===----------------------------------------------------------------------===//
// Operations (nested relational loops within one Query)
//===----------------------------------------------------------------------===//

/// Base class of RAM operations. Operations nest: every non-leaf operation
/// executes its single child operation once per binding it produces.
class Operation {
public:
  enum class Kind {
    Scan,
    IndexScan,
    Filter,
    Project,
    Aggregate,
  };

  virtual ~Operation() = default;
  Kind getKind() const { return TheKind; }

protected:
  explicit Operation(Kind K) : TheKind(K) {}

private:
  Kind TheKind;
};

using OpPtr = std::unique_ptr<Operation>;

/// FOR t IN rel — full enumeration binding TupleId.
class Scan : public Operation {
public:
  Scan(const Relation *Rel, std::uint32_t TupleId, OpPtr Nested)
      : Operation(Kind::Scan), Rel(Rel), TupleId(TupleId),
        Nested(std::move(Nested)) {}
  const Relation &getRelation() const { return *Rel; }
  std::uint32_t getTupleId() const { return TupleId; }
  const Operation &getNested() const { return *Nested; }

private:
  const Relation *Rel;
  std::uint32_t TupleId;
  OpPtr Nested;
};

/// FOR t IN rel ON INDEX pattern — a primitive search binding TupleId to
/// each tuple matching the bound pattern columns.
class IndexScan : public Operation {
public:
  IndexScan(const Relation *Rel, std::uint32_t TupleId,
            std::vector<ExprPtr> Pattern, OpPtr Nested)
      : Operation(Kind::IndexScan), Rel(Rel), TupleId(TupleId),
        Pattern(std::move(Pattern)), Nested(std::move(Nested)) {
    assert(this->Pattern.size() == Rel->getArity() &&
           "pattern width must match relation arity");
  }
  const Relation &getRelation() const { return *Rel; }
  std::uint32_t getTupleId() const { return TupleId; }
  const std::vector<ExprPtr> &getPattern() const { return Pattern; }
  const Operation &getNested() const { return *Nested; }

private:
  const Relation *Rel;
  std::uint32_t TupleId;
  std::vector<ExprPtr> Pattern;
  OpPtr Nested;
};

/// IF cond — executes the child only when the condition holds.
class Filter : public Operation {
public:
  Filter(CondPtr Cond, OpPtr Nested)
      : Operation(Kind::Filter), Cond(std::move(Cond)),
        Nested(std::move(Nested)) {}
  const Condition &getCondition() const { return *Cond; }
  const Operation &getNested() const { return *Nested; }

private:
  CondPtr Cond;
  OpPtr Nested;
};

/// INSERT (e1, ..., en) INTO rel — the leaf of every operation chain.
class Project : public Operation {
public:
  Project(const Relation *Rel, std::vector<ExprPtr> Values)
      : Operation(Kind::Project), Rel(Rel), Values(std::move(Values)) {
    assert(this->Values.size() == Rel->getArity() &&
           "value count must match relation arity");
  }
  const Relation &getRelation() const { return *Rel; }
  const std::vector<ExprPtr> &getValues() const { return Values; }

private:
  const Relation *Rel;
  std::vector<ExprPtr> Values;
};

/// Aggregate function kinds; Sum/Min/Max carry their primitive type.
enum class AggFunc {
  Count,
  Sum,
  USum,
  FSum,
  Min,
  UMin,
  FMin,
  Max,
  UMax,
  FMax,
};

/// Folds TargetExpr over all tuples of a primitive search, then binds the
/// result as a one-element tuple at TupleId and runs the child once.
/// The scanned tuple is bound at TupleId during the fold.
class Aggregate : public Operation {
public:
  Aggregate(AggFunc Func, const Relation *Rel, std::uint32_t TupleId,
            std::vector<ExprPtr> Pattern, ExprPtr TargetExpr, CondPtr Cond,
            OpPtr Nested)
      : Operation(Kind::Aggregate), Func(Func), Rel(Rel), TupleId(TupleId),
        Pattern(std::move(Pattern)), TargetExpr(std::move(TargetExpr)),
        Cond(std::move(Cond)), Nested(std::move(Nested)) {
    assert(this->Pattern.size() == Rel->getArity() &&
           "pattern width must match relation arity");
  }
  AggFunc getFunc() const { return Func; }
  const Relation &getRelation() const { return *Rel; }
  std::uint32_t getTupleId() const { return TupleId; }
  const std::vector<ExprPtr> &getPattern() const { return Pattern; }
  /// Null for Count.
  const Expression *getTargetExpr() const { return TargetExpr.get(); }
  /// Per-tuple filter inside the fold; null when absent.
  const Condition *getCondition() const { return Cond.get(); }
  const Operation &getNested() const { return *Nested; }

private:
  AggFunc Func;
  const Relation *Rel;
  std::uint32_t TupleId;
  std::vector<ExprPtr> Pattern;
  ExprPtr TargetExpr;
  CondPtr Cond;
  OpPtr Nested;
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

/// Base class of RAM statements.
class Statement {
public:
  enum class Kind {
    Sequence,
    Loop,
    Exit,
    Query,
    Clear,
    Swap,
    MergeInto,
    Erase,
    SubtractInto,
    Io,
    LogTimer,
  };

  virtual ~Statement() = default;
  Kind getKind() const { return TheKind; }

protected:
  explicit Statement(Kind K) : TheKind(K) {}

private:
  Kind TheKind;
};

using StmtPtr = std::unique_ptr<Statement>;

/// Sequential composition.
class Sequence : public Statement {
public:
  explicit Sequence(std::vector<StmtPtr> Stmts)
      : Statement(Kind::Sequence), Stmts(std::move(Stmts)) {}
  const std::vector<StmtPtr> &getStatements() const { return Stmts; }

private:
  std::vector<StmtPtr> Stmts;
};

/// LOOP body END LOOP — repeats until an Exit fires.
class Loop : public Statement {
public:
  explicit Loop(StmtPtr Body) : Statement(Kind::Loop), Body(std::move(Body)) {}
  const Statement &getBody() const { return *Body; }

private:
  StmtPtr Body;
};

/// BREAK(cond) — leaves the innermost loop when the condition holds.
class Exit : public Statement {
public:
  explicit Exit(CondPtr Cond) : Statement(Kind::Exit), Cond(std::move(Cond)) {}
  const Condition &getCondition() const { return *Cond; }

private:
  CondPtr Cond;
};

/// Executes one operation tree (the body of a single rule evaluation).
class Query : public Statement {
public:
  explicit Query(OpPtr Root) : Statement(Kind::Query), Root(std::move(Root)) {}
  const Operation &getRoot() const { return *Root; }

private:
  OpPtr Root;
};

/// Removes all tuples of a relation.
class Clear : public Statement {
public:
  explicit Clear(const Relation *Rel) : Statement(Kind::Clear), Rel(Rel) {}
  const Relation &getRelation() const { return *Rel; }

private:
  const Relation *Rel;
};

/// Swaps the contents of two relations of identical signature.
class Swap : public Statement {
public:
  Swap(const Relation *First, const Relation *Second)
      : Statement(Kind::Swap), First(First), Second(Second) {}
  const Relation &getFirst() const { return *First; }
  const Relation &getSecond() const { return *Second; }

private:
  const Relation *First;
  const Relation *Second;
};

/// MERGE src INTO dst — inserts every tuple of src into dst.
class MergeInto : public Statement {
public:
  MergeInto(const Relation *Source, const Relation *Destination)
      : Statement(Kind::MergeInto), Source(Source),
        Destination(Destination) {}
  const Relation &getSource() const { return *Source; }
  const Relation &getDestination() const { return *Destination; }

private:
  const Relation *Source;
  const Relation *Destination;
};

/// ERASE src FROM dst — removes every tuple of src from dst. The deletion
/// statement of the incremental maintenance programs (DRed over-deletion
/// application and EDB retraction).
class Erase : public Statement {
public:
  Erase(const Relation *Source, const Relation *Destination)
      : Statement(Kind::Erase), Source(Source), Destination(Destination) {}
  const Relation &getSource() const { return *Source; }
  const Relation &getDestination() const { return *Destination; }

private:
  const Relation *Source;
  const Relation *Destination;
};

/// SUBTRACT src WITHOUT filter INTO dst — inserts every tuple of src that
/// is not in filter into dst. Computes DRed's net deletions: over-deleted
/// tuples (rederive_R) minus the rederived survivors (R) flow into
/// delta_del_R for downstream strata.
class SubtractInto : public Statement {
public:
  SubtractInto(const Relation *Source, const Relation *Filter,
               const Relation *Destination)
      : Statement(Kind::SubtractInto), Source(Source), Filter(Filter),
        Destination(Destination) {}
  const Relation &getSource() const { return *Source; }
  const Relation &getFilter() const { return *Filter; }
  const Relation &getDestination() const { return *Destination; }

private:
  const Relation *Source;
  const Relation *Filter;
  const Relation *Destination;
};

/// Loads or stores a relation according to its IO attributes.
class Io : public Statement {
public:
  enum class Direction { Load, Store, PrintSize };

  Io(Direction Dir, const Relation *Rel)
      : Statement(Kind::Io), Dir(Dir), Rel(Rel) {}
  Direction getDirection() const { return Dir; }
  const Relation &getRelation() const { return *Rel; }

private:
  Direction Dir;
  const Relation *Rel;
};

/// Wraps a statement with a profiling label; the engines report per-label
/// wall time and iteration counts (the Soufflé-profiler analog used by the
/// Section 5.2 case study).
class LogTimer : public Statement {
public:
  /// Where the timed rule sits in the program: its stratum, head relation,
  /// semi-naive version and whether it lives inside a fixpoint loop. Target
  /// is the relation the rule inserts into (new_R for loop-body rules), so
  /// the engines can sample its cardinality around each execution and
  /// report per-iteration delta sizes. Default-constructed info marks a
  /// timer that is not a translated rule.
  struct RuleInfo {
    int Stratum = -1;
    std::string Relation;
    int Version = -1;
    bool Recursive = false;
    const ram::Relation *Target = nullptr;
    /// The planner that ordered this rule's body: "source" for main
    /// rules, "max-bound" for maintenance versions ("" for timers not
    /// produced by rule translation).
    std::string Sips;
    /// The chosen join order: element i is the source-order index of the
    /// body atom scanned at depth i. Identity when no reordering applied;
    /// empty for non-rule timers.
    std::vector<int> AtomOrder;
  };

  LogTimer(std::string Label, StmtPtr Body)
      : Statement(Kind::LogTimer), Label(std::move(Label)),
        Body(std::move(Body)) {}
  LogTimer(std::string Label, RuleInfo Info, StmtPtr Body)
      : Statement(Kind::LogTimer), Label(std::move(Label)),
        Info(std::move(Info)), Body(std::move(Body)) {}
  const std::string &getLabel() const { return Label; }
  const RuleInfo &getInfo() const { return Info; }
  const Statement &getBody() const { return *Body; }

private:
  std::string Label;
  RuleInfo Info;
  StmtPtr Body;
};

//===----------------------------------------------------------------------===//
// Program
//===----------------------------------------------------------------------===//

/// A complete RAM program: relation declarations plus the main statement.
class Program {
public:
  /// Adds a relation and returns a stable pointer to it.
  Relation *addRelation(std::string Name,
                        std::vector<ColumnTypeKind> ColumnTypes,
                        StructureKind Structure) {
    Relations.push_back(std::make_unique<Relation>(
        std::move(Name), std::move(ColumnTypes), Structure));
    return Relations.back().get();
  }

  const std::vector<std::unique_ptr<Relation>> &getRelations() const {
    return Relations;
  }
  std::vector<std::unique_ptr<Relation>> &getRelations() { return Relations; }

  Relation *findRelation(const std::string &Name) {
    for (auto &Rel : Relations)
      if (Rel->getName() == Name)
        return Rel.get();
    return nullptr;
  }
  const Relation *findRelation(const std::string &Name) const {
    for (const auto &Rel : Relations)
      if (Rel->getName() == Name)
        return Rel.get();
    return nullptr;
  }

  void setMain(StmtPtr Stmt) { Main = std::move(Stmt); }
  const Statement &getMain() const {
    assert(Main && "program has no main statement");
    return *Main;
  }
  bool hasMain() const { return Main != nullptr; }

  //===--------------------------------------------------------------------===//
  // Incremental maintenance (mixed insert/retract batches)
  //===--------------------------------------------------------------------===//

  /// How one stratum is maintained under deletions.
  enum class MaintStrategy {
    /// Every stratum that is not Reeval: over-delete via delta-deletion
    /// rules, keep the candidates an exit clause still derives, rederive
    /// the rest from survivors. A non-recursive stratum's clauses are all
    /// exit clauses, so there it over-deletes nothing.
    DRed,
    /// Scoped per-stratum re-evaluation fallback (eqrel, aggregates, `$`):
    /// the serving layer clears the stratum and re-runs its main
    /// statements, diffing old vs new into the ins/del deltas.
    Reeval,
  };

  /// One stratum's maintenance plan, in bottom-up stratum order.
  struct MaintStratum {
    MaintStrategy Strategy = MaintStrategy::DRed;
    /// Why the stratum fell back to Reeval ("" otherwise).
    std::string FallbackReason;
    /// Declared relations the stratum defines.
    std::vector<std::string> Relations;
    /// The maintenance statement processing the batch's deletions and
    /// insertions through this stratum; null for Reeval strata.
    StmtPtr Stmt;
    /// For Reeval: the child range [MainBegin, MainEnd) of the main
    /// Sequence holding this stratum's evaluation statements.
    std::size_t MainBegin = 0, MainEnd = 0;
  };

  /// Names of the per-relation maintenance aux relations: net insertions
  /// and net deletions of the running batch (every declared relation) and
  /// the DRed over-deletion set (DRed strata only, else empty). Edb names
  /// the hidden EDB shadow R@edb of an .input relation that also has
  /// clauses: loads and batch inserts land there, and the clause
  /// R(x) :- R@edb(x) derives them into R (else empty).
  struct MaintAux {
    std::string Ins;
    std::string Del;
    std::string Rederive;
    std::string Edb;
  };

  /// Whether a maintenance plan was emitted. Every program compiled with
  /// TranslationOptions::EmitMaintenance has one; a rule-free program's
  /// plan is its prologue alone.
  bool hasMaintenance() const { return MaintPrologue != nullptr; }
  const std::vector<MaintStratum> &getMaintStrata() const {
    return MaintStrata;
  }
  void setMaintStrata(std::vector<MaintStratum> Strata) {
    MaintStrata = std::move(Strata);
  }

  void setMaintAux(const std::string &Rel, MaintAux Aux) {
    MaintAuxOf[Rel] = std::move(Aux);
  }
  const MaintAux *getMaintAux(const std::string &Rel) const {
    auto It = MaintAuxOf.find(Rel);
    return It == MaintAuxOf.end() ? nullptr : &It->second;
  }
  const std::unordered_map<std::string, MaintAux> &getMaintAuxMap() const {
    return MaintAuxOf;
  }

  /// Applies the staged EDB nets: erases delta_del_E from every input
  /// relation and merges delta_ins_E in, before the strata run bottom-up.
  void setMaintPrologue(StmtPtr Stmt) { MaintPrologue = std::move(Stmt); }
  const Statement *getMaintPrologue() const { return MaintPrologue.get(); }

  /// Clears every maintenance aux relation (ins/del deltas and
  /// over-deletion sets); run after the Maintainer has harvested the batch's
  /// telemetry and change set.
  void setMaintEpilogue(StmtPtr Stmt) { MaintEpilogue = std::move(Stmt); }
  const Statement *getMaintEpilogue() const { return MaintEpilogue.get(); }

  //===--------------------------------------------------------------------===//
  // Statement roots
  //===--------------------------------------------------------------------===//

  /// Which part of the program a statement root belongs to.
  enum class RootKind { Main, MaintPrologue, MaintStratum, MaintEpilogue };

  /// Visits the statement roots in listing order: main, then, when a
  /// maintenance plan was emitted, the prologue, every maintenance stratum
  /// (\p Index is its position in getMaintStrata()) and the epilogue. An
  /// absent root (no main, a Reeval stratum) is passed as null. The RAM
  /// passes, index selection and the printer all walk the program through
  /// here, so a maintenance statement gets everything main gets.
  void forEachRoot(const std::function<void(RootKind Kind, std::size_t Index,
                                            const Statement *Root)> &Visit)
      const;

  /// Replaces every present root R by \p Rewrite(*R), in forEachRoot order.
  void rewriteRoots(
      const std::function<StmtPtr(const Statement &)> &Rewrite);

private:
  std::vector<std::unique_ptr<Relation>> Relations;
  StmtPtr Main;
  std::vector<MaintStratum> MaintStrata;
  std::unordered_map<std::string, MaintAux> MaintAuxOf;
  StmtPtr MaintPrologue;
  StmtPtr MaintEpilogue;
};

/// Bitmask of the bound (non-Undef) columns of a primitive-search pattern.
std::uint32_t searchSignature(const std::vector<ExprPtr> &Pattern);

} // namespace stird::ram

#endif // STIRD_RAM_RAM_H
