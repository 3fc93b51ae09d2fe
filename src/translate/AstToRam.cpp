//===- translate/AstToRam.cpp - Datalog to RAM translation ------------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//

#include "translate/AstToRam.h"

#include "util/MiscUtil.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>

using namespace stird;
using namespace stird::translate;

namespace {

using ast::TypeKind;

ColumnTypeKind toColumnType(TypeKind Kind) {
  switch (Kind) {
  case TypeKind::Number:
    return ColumnTypeKind::Number;
  case TypeKind::Unsigned:
    return ColumnTypeKind::Unsigned;
  case TypeKind::Float:
    return ColumnTypeKind::Float;
  case TypeKind::Symbol:
    return ColumnTypeKind::Symbol;
  }
  unreachable("unknown type kind");
}

ram::StructureKind toRamStructure(ast::StructureKind Kind) {
  switch (Kind) {
  case ast::StructureKind::Btree:
    return ram::StructureKind::Btree;
  case ast::StructureKind::Brie:
    return ram::StructureKind::Brie;
  case ast::StructureKind::Art:
    return ram::StructureKind::Art;
  case ast::StructureKind::Eqrel:
    return ram::StructureKind::Eqrel;
  }
  unreachable("unknown structure kind");
}

/// Resolves an AST functor plus its inferred result type to a typed RAM
/// intrinsic opcode.
ram::IntrinsicOp resolveIntrinsic(ast::FunctorOp Op, TypeKind Type) {
  using ast::FunctorOp;
  using ram::IntrinsicOp;
  const bool IsFloat = Type == TypeKind::Float;
  const bool IsUnsigned = Type == TypeKind::Unsigned;
  switch (Op) {
  case FunctorOp::Neg:
    return IsFloat ? IntrinsicOp::FNeg : IntrinsicOp::Neg;
  case FunctorOp::BNot:
    return IntrinsicOp::BNot;
  case FunctorOp::LNot:
    return IntrinsicOp::LNot;
  case FunctorOp::Ord:
    return IntrinsicOp::Ord;
  case FunctorOp::Strlen:
    return IntrinsicOp::Strlen;
  case FunctorOp::ToNumber:
    return IntrinsicOp::ToNumber;
  case FunctorOp::ToString:
    return IntrinsicOp::ToString;
  case FunctorOp::Add:
    return IsFloat ? IntrinsicOp::FAdd : IntrinsicOp::Add;
  case FunctorOp::Sub:
    return IsFloat ? IntrinsicOp::FSub : IntrinsicOp::Sub;
  case FunctorOp::Mul:
    return IsFloat ? IntrinsicOp::FMul : IntrinsicOp::Mul;
  case FunctorOp::Div:
    return IsFloat ? IntrinsicOp::FDiv
                   : (IsUnsigned ? IntrinsicOp::UDiv : IntrinsicOp::Div);
  case FunctorOp::Mod:
    return IsUnsigned ? IntrinsicOp::UMod : IntrinsicOp::Mod;
  case FunctorOp::Exp:
    return IsFloat ? IntrinsicOp::FExp
                   : (IsUnsigned ? IntrinsicOp::UExp : IntrinsicOp::Exp);
  case FunctorOp::Band:
    return IntrinsicOp::Band;
  case FunctorOp::Bor:
    return IntrinsicOp::Bor;
  case FunctorOp::Bxor:
    return IntrinsicOp::Bxor;
  case FunctorOp::Bshl:
    return IntrinsicOp::Bshl;
  case FunctorOp::Bshr:
    return IsUnsigned ? IntrinsicOp::UBshr : IntrinsicOp::Bshr;
  case FunctorOp::Max:
    return IsFloat ? IntrinsicOp::FMax
                   : (IsUnsigned ? IntrinsicOp::UMax : IntrinsicOp::Max);
  case FunctorOp::Min:
    return IsFloat ? IntrinsicOp::FMin
                   : (IsUnsigned ? IntrinsicOp::UMin : IntrinsicOp::Min);
  case FunctorOp::Cat:
    return IntrinsicOp::Cat;
  case FunctorOp::Substr:
    return IntrinsicOp::Substr;
  }
  unreachable("unknown functor op");
}

ram::CmpOp resolveCmp(ast::ConstraintOp Op, TypeKind Type) {
  using ast::ConstraintOp;
  using ram::CmpOp;
  const bool IsFloat = Type == TypeKind::Float;
  const bool IsUnsigned = Type == TypeKind::Unsigned;
  switch (Op) {
  case ConstraintOp::Eq:
    return CmpOp::Eq;
  case ConstraintOp::Ne:
    return CmpOp::Ne;
  case ConstraintOp::Lt:
    return IsFloat ? CmpOp::FLt : (IsUnsigned ? CmpOp::ULt : CmpOp::Lt);
  case ConstraintOp::Le:
    return IsFloat ? CmpOp::FLe : (IsUnsigned ? CmpOp::ULe : CmpOp::Le);
  case ConstraintOp::Gt:
    return IsFloat ? CmpOp::FGt : (IsUnsigned ? CmpOp::UGt : CmpOp::Gt);
  case ConstraintOp::Ge:
    return IsFloat ? CmpOp::FGe : (IsUnsigned ? CmpOp::UGe : CmpOp::Ge);
  case ConstraintOp::Match:
  case ConstraintOp::Contains:
    break;
  }
  unreachable("unsupported constraint op");
}

ram::AggFunc resolveAggFunc(ast::AggregateOp Op, TypeKind Type) {
  using ast::AggregateOp;
  using ram::AggFunc;
  const bool IsFloat = Type == TypeKind::Float;
  const bool IsUnsigned = Type == TypeKind::Unsigned;
  switch (Op) {
  case AggregateOp::Count:
    return AggFunc::Count;
  case AggregateOp::Sum:
    return IsFloat ? AggFunc::FSum
                   : (IsUnsigned ? AggFunc::USum : AggFunc::Sum);
  case AggregateOp::Min:
    return IsFloat ? AggFunc::FMin
                   : (IsUnsigned ? AggFunc::UMin : AggFunc::Min);
  case AggregateOp::Max:
    return IsFloat ? AggFunc::FMax
                   : (IsUnsigned ? AggFunc::UMax : AggFunc::Max);
  }
  unreachable("unknown aggregate op");
}

/// Collects names of variables in an argument tree, not descending into
/// aggregate bodies.
void collectVars(const ast::Argument &Arg, std::vector<std::string> &Out) {
  switch (Arg.getKind()) {
  case ast::Argument::Kind::Variable:
    Out.push_back(static_cast<const ast::Variable &>(Arg).getName());
    return;
  case ast::Argument::Kind::Functor:
    for (const auto &Operand :
         static_cast<const ast::Functor &>(Arg).getArgs())
      collectVars(*Operand, Out);
    return;
  default:
    return;
  }
}

/// Collects variables of an aggregate including its body (for readiness
/// checks against the outer scope).
void collectAggregateVars(const ast::Aggregator &Agg,
                          std::vector<std::string> &Out) {
  if (Agg.getTarget())
    collectVars(*Agg.getTarget(), Out);
  for (const auto &Lit : Agg.getBody()) {
    switch (Lit->getKind()) {
    case ast::Literal::Kind::Atom:
      for (const auto &Arg :
           static_cast<const ast::Atom &>(*Lit).getArgs())
        collectVars(*Arg, Out);
      break;
    case ast::Literal::Kind::Negation:
      for (const auto &Arg :
           static_cast<const ast::Negation &>(*Lit).getAtom().getArgs())
        collectVars(*Arg, Out);
      break;
    case ast::Literal::Kind::Constraint: {
      const auto &Con = static_cast<const ast::Constraint &>(*Lit);
      collectVars(Con.getLhs(), Out);
      collectVars(Con.getRhs(), Out);
      break;
    }
    }
  }
}

/// Returns the aggregator beneath \p Arg if Arg is exactly an aggregate
/// expression (not nested inside a functor), else null.
const ast::Aggregator *asAggregator(const ast::Argument &Arg) {
  if (Arg.getKind() == ast::Argument::Kind::Aggregator)
    return &static_cast<const ast::Aggregator &>(Arg);
  return nullptr;
}

/// The translator.
class Translator {
public:
  Translator(const ast::Program &AstProg, const ast::SemanticInfo &Info,
             SymbolTable &Symbols, const TranslationOptions &Options,
             TranslationResult &Result)
      : AstProg(AstProg), Info(Info), Symbols(Symbols), Options(Options),
        Result(Result) {}

  void run() {
    Result.Prog = std::make_unique<ram::Program>();
    Prog = Result.Prog.get();

    for (const auto &Decl : AstProg.Relations) {
      std::vector<ColumnTypeKind> Columns;
      for (const auto &Attr : Decl->getAttributes())
        Columns.push_back(toColumnType(Attr.Type));
      ram::Relation *Rel = Prog->addRelation(
          Decl->getName(), Columns, toRamStructure(Decl->getStructure()));
      if (Decl->isInput())
        Rel->markInput(Decl->getInputPath());
      if (Decl->isOutput())
        Rel->markOutput(Decl->getOutputPath());
      if (Decl->isPrintSize())
        Rel->markPrintSize();
      RelOf[Decl->getName()] = Rel;
    }

    std::vector<ram::StmtPtr> Main;
    for (const auto &Decl : AstProg.Relations)
      if (Decl->isInput())
        Main.push_back(std::make_unique<ram::Io>(
            ram::Io::Direction::Load, RelOf.at(Decl->getName())));

    for (std::size_t SI = 0; SI < Info.Strata.size(); ++SI) {
      // Record each stratum's child span of the main Sequence: the scoped
      // re-evaluation fallback of the maintenance subsystem re-runs
      // exactly these statements.
      const std::size_t Begin = Main.size();
      emitStratum(Info.Strata[SI], static_cast<int>(SI), Main);
      StratumSpans.emplace_back(Begin, Main.size());
    }

    for (const auto &Decl : AstProg.Relations) {
      if (Decl->isOutput())
        Main.push_back(std::make_unique<ram::Io>(
            ram::Io::Direction::Store, RelOf.at(Decl->getName())));
      if (Decl->isPrintSize())
        Main.push_back(std::make_unique<ram::Io>(
            ram::Io::Direction::PrintSize, RelOf.at(Decl->getName())));
    }
    Prog->setMain(std::make_unique<ram::Sequence>(std::move(Main)));

    if (Options.EmitMaintenance)
      emitMaintenance();
  }

private:
  void error(const std::string &Message) {
    Result.Errors.push_back(Message);
  }

  /// Whether a clause is recursive w.r.t. its stratum: some positive body
  /// atom names a relation of the same stratum.
  bool isRecursiveClause(const ast::Clause &C,
                         const std::unordered_set<std::string> &Scc) const {
    for (const auto &Lit : C.getBody())
      if (Lit->getKind() == ast::Literal::Kind::Atom &&
          Scc.count(static_cast<const ast::Atom &>(*Lit).getName()))
        return true;
    return false;
  }

  //===--------------------------------------------------------------------===
  // Stratum emission
  //===--------------------------------------------------------------------===

  void emitStratum(const ast::Stratum &Stratum, int StratumId,
                   std::vector<ram::StmtPtr> &Main) {
    std::unordered_set<std::string> Scc;
    for (const auto *Decl : Stratum.Relations)
      Scc.insert(Decl->getName());

    if (!Stratum.Recursive) {
      for (const auto *Decl : Stratum.Relations)
        for (const auto *C : clausesOf(Decl->getName()))
          emitRule(*C, RelOf.at(Decl->getName()), /*Scc=*/{},
                   /*DeltaPos=*/-1, /*GuardRel=*/nullptr,
                   /*UseDeltaFor=*/{}, StratumId, Main);
      return;
    }

    // A recursive component containing an equivalence relation is computed
    // with a naive fixpoint: the union-find closure generates pairs beyond
    // those explicitly inserted, which semi-naive deltas would miss.
    bool Naive = Options.ForceNaiveEvaluation;
    for (const auto *Decl : Stratum.Relations)
      if (Decl->getStructure() == ast::StructureKind::Eqrel)
        Naive = true;

    // Create new_/delta_ relations.
    std::unordered_map<std::string, ram::Relation *> NewRel, DeltaRel;
    for (const auto *Decl : Stratum.Relations) {
      ram::Relation *Full = RelOf.at(Decl->getName());
      ram::StructureKind AuxStructure =
          Full->getStructure() == ram::StructureKind::Eqrel
              ? ram::StructureKind::Btree
              : Full->getStructure();
      NewRel[Decl->getName()] =
          Prog->addRelation("new_" + Decl->getName(),
                            Full->getColumnTypes(), AuxStructure);
      MainNewRel[Decl->getName()] = NewRel.at(Decl->getName());
      if (!Naive) {
        DeltaRel[Decl->getName()] =
            Prog->addRelation("delta_" + Decl->getName(),
                              Full->getColumnTypes(), AuxStructure);
        MainDeltaRel[Decl->getName()] = DeltaRel.at(Decl->getName());
      }
    }

    // Non-recursive rules feed the full relations before the loop.
    for (const auto *Decl : Stratum.Relations)
      for (const auto *C : clausesOf(Decl->getName()))
        if (!isRecursiveClause(*C, Scc))
          emitRule(*C, RelOf.at(Decl->getName()), Scc, -1, nullptr, {},
                   StratumId, Main);

    if (!Naive)
      for (const auto *Decl : Stratum.Relations)
        Main.push_back(std::make_unique<ram::MergeInto>(
            RelOf.at(Decl->getName()), DeltaRel.at(Decl->getName())));

    // Loop body.
    std::vector<ram::StmtPtr> LoopBody;
    for (const auto *Decl : Stratum.Relations) {
      ram::Relation *Full = RelOf.at(Decl->getName());
      for (const auto *C : clausesOf(Decl->getName())) {
        if (!isRecursiveClause(*C, Scc))
          continue;
        if (Naive) {
          emitRule(*C, NewRel.at(Decl->getName()), Scc, -1, Full, {},
                   StratumId, LoopBody);
          continue;
        }
        // Semi-naive: one version per occurrence of an SCC relation, with
        // that occurrence reading the delta.
        int NumSccAtoms = 0;
        for (const auto &Lit : C->getBody())
          if (Lit->getKind() == ast::Literal::Kind::Atom &&
              Scc.count(static_cast<const ast::Atom &>(*Lit).getName()))
            ++NumSccAtoms;
        for (int Version = 0; Version < NumSccAtoms; ++Version)
          emitRule(*C, NewRel.at(Decl->getName()), Scc, Version, Full,
                   DeltaRel, StratumId, LoopBody);
      }
    }

    // Exit when no relation produced new knowledge.
    ram::CondPtr ExitCond;
    for (const auto *Decl : Stratum.Relations) {
      ram::CondPtr Part = std::make_unique<ram::EmptinessCheck>(
          NewRel.at(Decl->getName()));
      ExitCond = ExitCond ? std::make_unique<ram::Conjunction>(
                                std::move(ExitCond), std::move(Part))
                          : std::move(Part);
    }
    LoopBody.push_back(std::make_unique<ram::Exit>(std::move(ExitCond)));

    for (const auto *Decl : Stratum.Relations) {
      ram::Relation *Full = RelOf.at(Decl->getName());
      ram::Relation *NewR = NewRel.at(Decl->getName());
      LoopBody.push_back(std::make_unique<ram::MergeInto>(NewR, Full));
      if (!Naive) {
        LoopBody.push_back(std::make_unique<ram::Swap>(
            DeltaRel.at(Decl->getName()), NewR));
      }
      LoopBody.push_back(std::make_unique<ram::Clear>(NewR));
    }

    Main.push_back(std::make_unique<ram::Loop>(
        std::make_unique<ram::Sequence>(std::move(LoopBody))));

    // Post-loop hygiene: the auxiliary relations hold no useful data.
    for (const auto *Decl : Stratum.Relations) {
      if (!Naive)
        Main.push_back(std::make_unique<ram::Clear>(
            DeltaRel.at(Decl->getName())));
      Main.push_back(
          std::make_unique<ram::Clear>(NewRel.at(Decl->getName())));
    }
  }

  //===--------------------------------------------------------------------===
  // Incremental maintenance emission (mixed insert/retract batches)
  //===--------------------------------------------------------------------===
  //
  // The maintenance program processes one batch of net EDB insertions and
  // deletions (staged by the serving layer into delta_ins_E / delta_del_E)
  // through the strata in bottom-up order, exactly once per stratum: when a
  // stratum runs, every lower relation is already at its NEW (final) value
  // and the lower ins/del deltas describe the net change. Each stratum's
  // statement consumes those deltas and produces its own delta_ins_R /
  // delta_del_R before any downstream stratum runs.
  //
  // Strategy per stratum:
  //  * Counting (non-recursive): exact derivation counting. For a rule with
  //    n non-constraint literals, version i reads literal i's change
  //    (delta_ins with sign +, delta_del with sign -; a negated literal
  //    triggers with the signs flipped), literals before i at NEW (the
  //    plain relation) and literals after i at OLD. OLD is reconstructed
  //    per trailing literal as two disjoint subversions:
  //    (B AND NOT delta_ins_B) OR delta_del_B for positive atoms, and
  //    ((NOT B) OR delta_ins_B) AND NOT delta_del_B for negations. The
  //    versions project into the cadd_R/cdec_R multiplicity collectors;
  //    FOLD COUNTS nets them into the cnt_R support store and applies the
  //    0<->positive transitions to R, recording them in delta_ins_R /
  //    delta_del_R. Wildcards in positive atoms are renamed to fresh
  //    variables so each ground body instantiation counts once and the
  //    trailing NOT-in-ins guards test the scanned tuple, not a pattern.
  //  * DRed (recursive strata, and non-recursive ones whose negated
  //    literals carry wildcards, which make the count-trigger rewrite
  //    multiplicity-unsound): over-delete candidates into rederive_R with
  //    a semi-naive loop seeded from the lower deletion deltas (non-delta
  //    lower atoms over-approximated as NEW UNION delta_del, negations as
  //    (NOT N) OR delta_ins_N; a head-membership atom keeps candidates
  //    inside the old fixpoint), erase them, rederive survivors from the
  //    remaining tuples (candidate-restricted, so brand-new tuples are
  //    left to the insertion phase and correctly reach delta_ins_R), emit
  //    the net deletions with SUBTRACT, then run the insertion semi-naive
  //    loop seeded from the lower insertion deltas.
  //  * Reeval (eqrel, aggregates, eqrel body dependencies, or rules too
  //    wide for delta versions): no statement. The maintenance driver
  //    snapshots the stratum's relations, clears them, re-runs the
  //    recorded [MainBegin, MainEnd) span of the main Sequence and diffs
  //    old against new into delta_ins_R / delta_del_R. Scoped, counted and
  //    reported - never a silent whole-program restart.
  //
  // Programs using `$` get no maintenance at all (re-derivation would mint
  // fresh ids); the reason is recorded on the program.

  static std::string insName(const std::string &Rel) {
    return "delta_ins_" + Rel;
  }
  static std::string delName(const std::string &Rel) {
    return "delta_del_" + Rel;
  }

  /// Type of an argument node: synthesized (cloned) nodes resolve through
  /// the overlay, everything else through the semantic analysis.
  ast::TypeKind typeOfArg(const ast::Argument *Arg) const {
    auto It = TypeOverlay.find(Arg);
    return It == TypeOverlay.end() ? Info.typeOf(Arg) : It->second;
  }

  /// Registers \p Clone (and its operands, in lockstep) under the type the
  /// analysis derived for \p Orig. SemanticInfo keys types by node
  /// address, so cloned argument trees would otherwise degrade to the
  /// Number fallback and mistranslate symbol comparisons and typed
  /// intrinsics.
  void registerTypes(const ast::Argument &Orig, const ast::Argument &Clone) {
    TypeOverlay[&Clone] = typeOfArg(&Orig);
    if (Orig.getKind() == ast::Argument::Kind::Functor) {
      const auto &FO = static_cast<const ast::Functor &>(Orig);
      const auto &FC = static_cast<const ast::Functor &>(Clone);
      for (std::size_t I = 0; I < FO.getArgs().size(); ++I)
        registerTypes(*FO.getArgs()[I], *FC.getArgs()[I]);
    }
  }

  std::unique_ptr<ast::Argument> cloneArgMaint(const ast::Argument &Orig,
                                               bool RenameWildcards,
                                               int &Fresh) {
    if (RenameWildcards &&
        Orig.getKind() == ast::Argument::Kind::UnnamedVariable)
      return std::make_unique<ast::Variable>(
          "@maint_wc" + std::to_string(Fresh++), Orig.getLoc());
    std::unique_ptr<ast::Argument> Clone = Orig.clone();
    registerTypes(Orig, *Clone);
    return Clone;
  }

  std::unique_ptr<ast::Atom> cloneAtomMaint(const ast::Atom &Orig,
                                            std::string NewName,
                                            bool RenameWildcards,
                                            int &Fresh) {
    std::vector<std::unique_ptr<ast::Argument>> Args;
    for (const auto &Arg : Orig.getArgs())
      Args.push_back(cloneArgMaint(*Arg, RenameWildcards, Fresh));
    return std::make_unique<ast::Atom>(std::move(NewName), std::move(Args),
                                       Orig.getLoc());
  }

  /// How one non-constraint body literal is synthesized in a maintenance
  /// rule version.
  enum class LitMode {
    Keep,         ///< As-is (the current state of its relation).
    ScratchDelta, ///< Positive atom over the semi-naive scratch delta_B.
    InsScan,      ///< Positive atom over delta_ins_B (negations: the
                  ///< literal is replaced by the positive scan).
    DelScan,      ///< Positive atom over delta_del_B.
    OldKeep,      ///< Counting trailing atom at OLD: B plus a NOT-in-
                  ///< delta_ins_B guard over the same arguments.
    OldDel,       ///< Counting trailing atom at OLD: delta_del_B scan.
    NegOldKeep,   ///< Counting trailing negation at OLD: NOT B plus a
                  ///< NOT-in-delta_del_B guard.
    NegOldIns,    ///< Counting trailing negation at OLD: positive
                  ///< delta_ins_B scan plus a NOT-in-delta_del_B guard.
  };

  /// Builds one synthesized maintenance rule version of \p C. \p Modes is
  /// aligned with the non-constraint body literals in source order;
  /// constraints are copied through. \p PrependRel / \p AppendRel, when
  /// non-empty, add a positive atom over the head's arguments at the front
  /// or back of the body (the DRed candidate and head-membership filters).
  /// \p PivotLit, when >= 0, names the literal position whose delta scan
  /// seeds this version: its synthesized atom is hoisted to the front of
  /// the body so the join is driven by the (usually tiny, often empty)
  /// delta instead of a full scan of the leading Keep literals — the
  /// difference between per-batch cost proportional to the change and
  /// proportional to the database. The hoist is pure reordering of a
  /// commutative conjunction: the satisfying assignments (and hence
  /// counting multiplicities) are unchanged.
  /// The clause is kept alive for the translator's lifetime so the type
  /// overlay's node addresses stay unique.
  const ast::Clause *synthesizeMaintClause(const ast::Clause &C,
                                           const std::vector<LitMode> &Modes,
                                           bool RenameWildcards,
                                           const std::string &PrependRel,
                                           const std::string &AppendRel,
                                           int PivotLit = -1) {
    int Fresh = 0;
    std::vector<std::unique_ptr<ast::Literal>> Body;
    std::vector<std::unique_ptr<ast::Literal>> Guards;
    int PivotBodyIdx = -1;
    if (!PrependRel.empty())
      Body.push_back(cloneAtomMaint(C.getHead(), PrependRel, false, Fresh));
    std::size_t LitIdx = 0;
    for (const auto &Lit : C.getBody()) {
      if (Lit->getKind() == ast::Literal::Kind::Constraint) {
        const auto &Con = static_cast<const ast::Constraint &>(*Lit);
        std::unique_ptr<ast::Argument> Lhs = Con.getLhs().clone();
        registerTypes(Con.getLhs(), *Lhs);
        std::unique_ptr<ast::Argument> Rhs = Con.getRhs().clone();
        registerTypes(Con.getRhs(), *Rhs);
        Body.push_back(std::make_unique<ast::Constraint>(
            Con.getOp(), std::move(Lhs), std::move(Rhs), Con.getLoc()));
        continue;
      }
      const int ThisLit = static_cast<int>(LitIdx);
      const std::size_t BodyBefore = Body.size();
      const LitMode Mode = Modes[LitIdx++];
      if (ThisLit == PivotLit)
        PivotBodyIdx = static_cast<int>(BodyBefore);
      if (Lit->getKind() == ast::Literal::Kind::Atom) {
        const auto &A = static_cast<const ast::Atom &>(*Lit);
        switch (Mode) {
        case LitMode::Keep:
          Body.push_back(
              cloneAtomMaint(A, A.getName(), RenameWildcards, Fresh));
          break;
        case LitMode::ScratchDelta:
          Body.push_back(cloneAtomMaint(A, "delta_" + A.getName(),
                                        RenameWildcards, Fresh));
          break;
        case LitMode::InsScan:
          Body.push_back(
              cloneAtomMaint(A, insName(A.getName()), RenameWildcards,
                             Fresh));
          break;
        case LitMode::DelScan:
        case LitMode::OldDel:
          Body.push_back(
              cloneAtomMaint(A, delName(A.getName()), RenameWildcards,
                             Fresh));
          break;
        case LitMode::OldKeep: {
          // The guard must test the exact scanned tuple, so its arguments
          // are cloned from the (wildcard-renamed) atom, not the original.
          std::unique_ptr<ast::Atom> Atom =
              cloneAtomMaint(A, A.getName(), RenameWildcards, Fresh);
          Guards.push_back(std::make_unique<ast::Negation>(
              cloneAtomMaint(*Atom, insName(A.getName()), false, Fresh),
              A.getLoc()));
          Body.push_back(std::move(Atom));
          break;
        }
        case LitMode::NegOldKeep:
        case LitMode::NegOldIns:
          unreachable("negation mode on a positive atom");
        }
      } else {
        const auto &A = static_cast<const ast::Negation &>(*Lit).getAtom();
        switch (Mode) {
        case LitMode::Keep:
          Body.push_back(std::make_unique<ast::Negation>(
              cloneAtomMaint(A, A.getName(), false, Fresh), Lit->getLoc()));
          break;
        case LitMode::InsScan:
          Body.push_back(cloneAtomMaint(A, insName(A.getName()), false,
                                        Fresh));
          break;
        case LitMode::DelScan:
          Body.push_back(cloneAtomMaint(A, delName(A.getName()), false,
                                        Fresh));
          break;
        case LitMode::NegOldKeep:
          Body.push_back(std::make_unique<ast::Negation>(
              cloneAtomMaint(A, A.getName(), false, Fresh), Lit->getLoc()));
          Guards.push_back(std::make_unique<ast::Negation>(
              cloneAtomMaint(A, delName(A.getName()), false, Fresh),
              Lit->getLoc()));
          break;
        case LitMode::NegOldIns:
          Body.push_back(
              cloneAtomMaint(A, insName(A.getName()), false, Fresh));
          Guards.push_back(std::make_unique<ast::Negation>(
              cloneAtomMaint(A, delName(A.getName()), false, Fresh),
              Lit->getLoc()));
          break;
        case LitMode::ScratchDelta:
        case LitMode::OldKeep:
        case LitMode::OldDel:
          unreachable("atom mode on a negation");
        }
      }
    }
    if (PivotBodyIdx >= 0) {
      // Hoist the delta pivot in front of every source-order literal (but
      // after the PrependRel seed, which is itself the driving scan).
      const auto Front =
          Body.begin() + (PrependRel.empty() ? 0 : 1);
      if (Body.begin() + PivotBodyIdx > Front)
        std::rotate(Front, Body.begin() + PivotBodyIdx,
                    Body.begin() + PivotBodyIdx + 1);
    }
    for (auto &G : Guards)
      Body.push_back(std::move(G));
    if (!AppendRel.empty())
      Body.push_back(cloneAtomMaint(C.getHead(), AppendRel, false, Fresh));
    std::unique_ptr<ast::Atom> Head =
        cloneAtomMaint(C.getHead(), C.getHead().getName(), false, Fresh);
    SynthClauses.push_back(std::make_unique<ast::Clause>(
        std::move(Head), std::move(Body), C.getLoc()));
    return SynthClauses.back().get();
  }

  /// The non-constraint body literals of a clause, in source order.
  static std::vector<const ast::Literal *>
  maintLiterals(const ast::Clause &C) {
    std::vector<const ast::Literal *> Lits;
    for (const auto &Lit : C.getBody())
      if (Lit->getKind() != ast::Literal::Kind::Constraint)
        Lits.push_back(Lit.get());
    return Lits;
  }

  /// Walks every argument tree of \p C (head, atoms, negations, constraint
  /// sides, aggregate internals).
  static void forEachClauseArg(
      const ast::Clause &C,
      const std::function<void(const ast::Argument &)> &Fn) {
    std::function<void(const ast::Argument &)> Walk;
    std::function<void(const ast::Literal &)> WalkLit;
    Walk = [&](const ast::Argument &Arg) {
      Fn(Arg);
      if (Arg.getKind() == ast::Argument::Kind::Functor) {
        for (const auto &Operand :
             static_cast<const ast::Functor &>(Arg).getArgs())
          Walk(*Operand);
      } else if (Arg.getKind() == ast::Argument::Kind::Aggregator) {
        const auto &Agg = static_cast<const ast::Aggregator &>(Arg);
        if (Agg.getTarget())
          Walk(*Agg.getTarget());
        for (const auto &Lit : Agg.getBody())
          WalkLit(*Lit);
      }
    };
    WalkLit = [&](const ast::Literal &Lit) {
      switch (Lit.getKind()) {
      case ast::Literal::Kind::Atom:
        for (const auto &Arg : static_cast<const ast::Atom &>(Lit).getArgs())
          Walk(*Arg);
        break;
      case ast::Literal::Kind::Negation:
        for (const auto &Arg :
             static_cast<const ast::Negation &>(Lit).getAtom().getArgs())
          Walk(*Arg);
        break;
      case ast::Literal::Kind::Constraint: {
        const auto &Con = static_cast<const ast::Constraint &>(Lit);
        Walk(Con.getLhs());
        Walk(Con.getRhs());
        break;
      }
      }
    };
    for (const auto &Arg : C.getHead().getArgs())
      Walk(*Arg);
    for (const auto &Lit : C.getBody())
      WalkLit(*Lit);
  }

  void emitMaintenance() {
    using MaintStrategy = ram::Program::MaintStrategy;
    using MaintStratum = ram::Program::MaintStratum;

    if (Options.ForceNaiveEvaluation) {
      Prog->setMaintIneligibleReason("naive evaluation forced");
      return;
    }
    for (const auto &C : AstProg.Clauses) {
      bool UsesCounter = false;
      forEachClauseArg(*C, [&](const ast::Argument &Arg) {
        UsesCounter |= Arg.getKind() == ast::Argument::Kind::Counter;
      });
      if (UsesCounter) {
        Prog->setMaintIneligibleReason(
            "program uses the '$' counter (re-derivation would mint fresh "
            "ids)");
        return;
      }
    }
    for (const auto &Decl : AstProg.Relations) {
      if (Decl->isInput() && !clausesOf(Decl->getName()).empty()) {
        Prog->setMaintIneligibleReason(
            "relation '" + Decl->getName() +
            "' is both .input and derived by rules");
        return;
      }
    }

    // Per-stratum strategy classification.
    struct Plan {
      MaintStrategy Strategy = MaintStrategy::Counting;
      std::string Reason;
      bool Edb = false;
    };
    std::unordered_set<std::string> Eqrels;
    for (const auto &Decl : AstProg.Relations)
      if (Decl->getStructure() == ast::StructureKind::Eqrel)
        Eqrels.insert(Decl->getName());
    std::vector<Plan> Plans(Info.Strata.size());
    for (std::size_t SI = 0; SI < Info.Strata.size(); ++SI) {
      const ast::Stratum &Stratum = Info.Strata[SI];
      Plan &P = Plans[SI];
      bool HasClauses = false, HasEqrel = false, HasAgg = false;
      bool WildcardNeg = false, TooWide = false, EqrelDep = false;
      for (const auto *Decl : Stratum.Relations) {
        if (Decl->getStructure() == ast::StructureKind::Eqrel)
          HasEqrel = true;
        for (const auto *C : clausesOf(Decl->getName())) {
          HasClauses = true;
          forEachClauseArg(*C, [&](const ast::Argument &Arg) {
            HasAgg |= Arg.getKind() == ast::Argument::Kind::Aggregator;
          });
          std::size_t NumLits = 0;
          for (const auto &Lit : C->getBody()) {
            if (Lit->getKind() == ast::Literal::Kind::Constraint)
              continue;
            ++NumLits;
            const ast::Atom &A =
                Lit->getKind() == ast::Literal::Kind::Negation
                    ? static_cast<const ast::Negation &>(*Lit).getAtom()
                    : static_cast<const ast::Atom &>(*Lit);
            if (Eqrels.count(A.getName()))
              EqrelDep = true;
            if (Lit->getKind() == ast::Literal::Kind::Negation)
              for (const auto &Arg : A.getArgs())
                WildcardNeg |=
                    Arg->getKind() == ast::Argument::Kind::UnnamedVariable;
          }
          // The OLD reconstruction and DRed availability splits emit up to
          // 2^(literals - 1) subversions per delta position; cap the width.
          TooWide |= NumLits > 6;
        }
      }
      if (!HasClauses) {
        P.Edb = true;
        continue;
      }
      if (HasEqrel) {
        P.Strategy = MaintStrategy::Reeval;
        P.Reason = "eqrel closure cannot be maintained from deltas";
      } else if (HasAgg) {
        P.Strategy = MaintStrategy::Reeval;
        P.Reason = "aggregates are non-monotonic under deletions";
      } else if (EqrelDep) {
        P.Strategy = MaintStrategy::Reeval;
        P.Reason = "body depends on an equivalence relation";
      } else if (TooWide) {
        P.Strategy = MaintStrategy::Reeval;
        P.Reason = "rule body too wide for delta versions";
      } else if (Stratum.Recursive || Stratum.Relations.size() > 1 ||
                 WildcardNeg) {
        P.Strategy = MaintStrategy::DRed;
      } else {
        P.Strategy = MaintStrategy::Counting;
      }
    }

    // Aux relations: net ins/del deltas for every declared relation (the
    // EDB staging area and the inter-stratum interface), the DRed
    // over-deletion sets and scratch pairs, and the counting support
    // stores with their per-batch collectors.
    std::unordered_map<std::string, ram::Relation *> Ins, Del, Rederive;
    std::unordered_map<std::string, ram::Relation *> Cnt, CAdd, CDec;
    for (const auto &Decl : AstProg.Relations) {
      const std::string &Name = Decl->getName();
      ram::Relation *Full = RelOf.at(Name);
      const ram::StructureKind AuxStructure =
          Full->getStructure() == ram::StructureKind::Eqrel
              ? ram::StructureKind::Btree
              : Full->getStructure();
      Ins[Name] = Prog->addRelation(insName(Name), Full->getColumnTypes(),
                                    AuxStructure);
      Del[Name] = Prog->addRelation(delName(Name), Full->getColumnTypes(),
                                    AuxStructure);
      RelOf[insName(Name)] = Ins.at(Name);
      RelOf[delName(Name)] = Del.at(Name);
    }
    auto EnsureScratch =
        [&](const std::string &Name, const char *Prefix,
            std::unordered_map<std::string, ram::Relation *> &Cache)
        -> ram::Relation * {
      auto It = Cache.find(Name);
      if (It == Cache.end()) {
        ram::Relation *Full = RelOf.at(Name);
        const ram::StructureKind AuxStructure =
            Full->getStructure() == ram::StructureKind::Eqrel
                ? ram::StructureKind::Btree
                : Full->getStructure();
        It = Cache
                 .emplace(Name,
                          Prog->addRelation(Prefix + Name,
                                            Full->getColumnTypes(),
                                            AuxStructure))
                 .first;
      }
      RelOf[Prefix + Name] = It->second;
      return It->second;
    };
    for (std::size_t SI = 0; SI < Info.Strata.size(); ++SI) {
      const Plan &P = Plans[SI];
      if (P.Edb)
        continue;
      for (const auto *Decl : Info.Strata[SI].Relations) {
        const std::string &Name = Decl->getName();
        ram::Relation *Full = RelOf.at(Name);
        if (P.Strategy == MaintStrategy::DRed) {
          Rederive[Name] = EnsureScratch(Name, "rederive_", Rederive);
          EnsureScratch(Name, "delta_", MainDeltaRel);
          EnsureScratch(Name, "new_", MainNewRel);
        } else if (P.Strategy == MaintStrategy::Counting) {
          Cnt[Name] = Prog->addRelation("cnt_" + Name,
                                        Full->getColumnTypes(),
                                        ram::StructureKind::Counts);
          CAdd[Name] = Prog->addRelation("cadd_" + Name,
                                         Full->getColumnTypes(),
                                         ram::StructureKind::Counts);
          CDec[Name] = Prog->addRelation("cdec_" + Name,
                                         Full->getColumnTypes(),
                                         ram::StructureKind::Counts);
        }
      }
    }
    for (const auto &Decl : AstProg.Relations) {
      const std::string &Name = Decl->getName();
      ram::Program::MaintAux Names;
      Names.Ins = Ins.at(Name)->getName();
      Names.Del = Del.at(Name)->getName();
      if (Rederive.count(Name))
        Names.Rederive = Rederive.at(Name)->getName();
      if (Cnt.count(Name)) {
        Names.Support = Cnt.at(Name)->getName();
        Names.CntAdd = CAdd.at(Name)->getName();
        Names.CntDec = CDec.at(Name)->getName();
      }
      Prog->setMaintAux(Name, std::move(Names));
    }

    // Prologue: apply the staged EDB nets to the clause-less relations.
    std::vector<ram::StmtPtr> Pro;
    for (const auto &Decl : AstProg.Relations) {
      const std::string &Name = Decl->getName();
      if (!clausesOf(Name).empty())
        continue;
      Pro.push_back(std::make_unique<ram::Erase>(Del.at(Name),
                                                 RelOf.at(Name)));
      Pro.push_back(std::make_unique<ram::MergeInto>(Ins.at(Name),
                                                     RelOf.at(Name)));
    }
    Prog->setMaintPrologue(
        std::make_unique<ram::Sequence>(std::move(Pro)));

    // Per-stratum statements.
    std::vector<MaintStratum> Strata;
    std::vector<ram::StmtPtr> InitRules;
    for (std::size_t SI = 0; SI < Info.Strata.size(); ++SI) {
      const Plan &P = Plans[SI];
      if (P.Edb)
        continue;
      MaintStratum MS;
      MS.Strategy = P.Strategy;
      MS.FallbackReason = P.Reason;
      for (const auto *Decl : Info.Strata[SI].Relations)
        MS.Relations.push_back(Decl->getName());
      switch (P.Strategy) {
      case MaintStrategy::Counting:
        MS.Stmt = emitCountingStratum(Info.Strata[SI],
                                      static_cast<int>(SI), Cnt, CAdd,
                                      CDec, Ins, Del, InitRules);
        break;
      case MaintStrategy::DRed:
        MS.Stmt = emitDRedStratum(Info.Strata[SI], static_cast<int>(SI),
                                  Rederive, Ins, Del);
        break;
      case MaintStrategy::Reeval:
        MS.MainBegin = StratumSpans[SI].first;
        MS.MainEnd = StratumSpans[SI].second;
        break;
      }
      Strata.push_back(std::move(MS));
    }
    if (!InitRules.empty())
      Prog->setCountInit(
          std::make_unique<ram::Sequence>(std::move(InitRules)));

    // Epilogue: clear every staging/interface aux so the next batch starts
    // clean (run after the serving layer has harvested telemetry).
    std::vector<ram::StmtPtr> Epi;
    for (const auto &Decl : AstProg.Relations) {
      const std::string &Name = Decl->getName();
      Epi.push_back(std::make_unique<ram::Clear>(Ins.at(Name)));
      Epi.push_back(std::make_unique<ram::Clear>(Del.at(Name)));
      if (Rederive.count(Name))
        Epi.push_back(std::make_unique<ram::Clear>(Rederive.at(Name)));
    }
    Prog->setMaintEpilogue(
        std::make_unique<ram::Sequence>(std::move(Epi)));

    Prog->setMaintStrata(std::move(Strata));
  }

  /// Emits the counting-stratum statement (signed delta versions into the
  /// cadd/cdec collectors, FOLD COUNTS, collector clears) and appends the
  /// stratum's count-bootstrap rules to \p InitRules.
  ram::StmtPtr emitCountingStratum(
      const ast::Stratum &Stratum, int StratumId,
      std::unordered_map<std::string, ram::Relation *> &Cnt,
      std::unordered_map<std::string, ram::Relation *> &CAdd,
      std::unordered_map<std::string, ram::Relation *> &CDec,
      std::unordered_map<std::string, ram::Relation *> &Ins,
      std::unordered_map<std::string, ram::Relation *> &Del,
      std::vector<ram::StmtPtr> &InitRules) {
    std::vector<ram::StmtPtr> Out;
    for (const auto *Decl : Stratum.Relations) {
      const std::string &Name = Decl->getName();
      for (const auto *C : clausesOf(Name)) {
        const std::vector<const ast::Literal *> Lits = maintLiterals(*C);
        // Bootstrap version: every literal at the current state, into the
        // support store (multiplicities accumulate per derivation).
        {
          std::vector<LitMode> Modes(Lits.size(), LitMode::Keep);
          RuleVariant V;
          V.LabelSuffix = " [cnt-init]";
          emitRule(*synthesizeMaintClause(*C, Modes, /*RenameWildcards=*/true,
                                          "", ""),
                   Cnt.at(Name), {}, -1, nullptr, {}, StratumId, InitRules,
                   V);
        }
        // Signed delta versions: telescoping over the literal positions.
        for (std::size_t D = 0; D < Lits.size(); ++D) {
          const std::size_t Trailing = Lits.size() - D - 1;
          const bool DNeg =
              Lits[D]->getKind() == ast::Literal::Kind::Negation;
          for (std::uint32_t Mask = 0; Mask < (1u << Trailing); ++Mask) {
            for (int Sign = 0; Sign < 2; ++Sign) {
              std::vector<LitMode> Modes(Lits.size(), LitMode::Keep);
              // A negated literal flips truth when its relation moves the
              // other way: delta_del makes NOT B newly true.
              Modes[D] = Sign == 0
                             ? (DNeg ? LitMode::DelScan : LitMode::InsScan)
                             : (DNeg ? LitMode::InsScan : LitMode::DelScan);
              for (std::size_t T = 0; T < Trailing; ++T) {
                const std::size_t Pos = D + 1 + T;
                const bool Alt = (Mask >> T) & 1;
                const bool Neg =
                    Lits[Pos]->getKind() == ast::Literal::Kind::Negation;
                Modes[Pos] = Neg ? (Alt ? LitMode::NegOldIns
                                        : LitMode::NegOldKeep)
                                 : (Alt ? LitMode::OldDel
                                        : LitMode::OldKeep);
              }
              RuleVariant V;
              V.LabelSuffix = Sign == 0 ? " [cadd]" : " [cdec]";
              V.ForceMaxBound = true;
              emitRule(*synthesizeMaintClause(*C, Modes, true, "", "",
                                              static_cast<int>(D)),
                       Sign == 0 ? CAdd.at(Name) : CDec.at(Name), {}, -1,
                       nullptr, {}, StratumId, Out, V);
            }
          }
        }
      }
    }
    for (const auto *Decl : Stratum.Relations) {
      const std::string &Name = Decl->getName();
      Out.push_back(std::make_unique<ram::FoldCounts>(
          CAdd.at(Name), CDec.at(Name), Cnt.at(Name), RelOf.at(Name),
          Ins.at(Name), Del.at(Name)));
      Out.push_back(std::make_unique<ram::Clear>(CAdd.at(Name)));
      Out.push_back(std::make_unique<ram::Clear>(CDec.at(Name)));
    }
    return std::make_unique<ram::Sequence>(std::move(Out));
  }

  /// Emits the DRed stratum statement: over-delete, erase, rederive,
  /// subtract, insert.
  ram::StmtPtr
  emitDRedStratum(const ast::Stratum &Stratum, int StratumId,
                  std::unordered_map<std::string, ram::Relation *> &Rederive,
                  std::unordered_map<std::string, ram::Relation *> &Ins,
                  std::unordered_map<std::string, ram::Relation *> &Del) {
    std::unordered_set<std::string> Scc;
    for (const auto *Decl : Stratum.Relations)
      Scc.insert(Decl->getName());

    std::vector<ram::StmtPtr> Out;
    auto ClearScratch = [&] {
      for (const auto *Decl : Stratum.Relations) {
        Out.push_back(std::make_unique<ram::Clear>(
            MainDeltaRel.at(Decl->getName())));
        Out.push_back(std::make_unique<ram::Clear>(
            MainNewRel.at(Decl->getName())));
      }
    };
    auto ExitCond = [&]() -> ram::CondPtr {
      ram::CondPtr Cond;
      for (const auto *Decl : Stratum.Relations) {
        ram::CondPtr Part = std::make_unique<ram::EmptinessCheck>(
            MainNewRel.at(Decl->getName()));
        Cond = Cond ? std::make_unique<ram::Conjunction>(std::move(Cond),
                                                         std::move(Part))
                    : std::move(Part);
      }
      return Cond;
    };
    // Publishes each member's frontier: new_R is merged into the phase's
    // accumulators, swapped into delta_R and cleared.
    auto Advance = [&](std::vector<ram::StmtPtr> &Dst,
                       const std::unordered_map<std::string,
                                                ram::Relation *> *Acc1,
                       const std::unordered_map<std::string,
                                                ram::Relation *> *Acc2) {
      for (const auto *Decl : Stratum.Relations) {
        const std::string &Name = Decl->getName();
        ram::Relation *NewR = MainNewRel.at(Name);
        if (Acc1)
          Dst.push_back(
              std::make_unique<ram::MergeInto>(NewR, Acc1->at(Name)));
        if (Acc2)
          Dst.push_back(
              std::make_unique<ram::MergeInto>(NewR, Acc2->at(Name)));
        Dst.push_back(std::make_unique<ram::Swap>(MainDeltaRel.at(Name),
                                                  NewR));
        Dst.push_back(std::make_unique<ram::Clear>(NewR));
      }
    };
    // Emits one phase: seed versions, frontier publication, then the
    // semi-naive loop over the SCC delta versions.
    auto Phase =
        [&](const std::function<void(std::vector<ram::StmtPtr> &, bool)>
                &EmitVersions,
            const std::unordered_map<std::string, ram::Relation *> *Acc1,
            const std::unordered_map<std::string, ram::Relation *> *Acc2) {
          ClearScratch();
          EmitVersions(Out, /*LoopBody=*/false);
          Advance(Out, Acc1, Acc2);
          std::vector<ram::StmtPtr> Body;
          EmitVersions(Body, /*LoopBody=*/true);
          Body.push_back(std::make_unique<ram::Exit>(ExitCond()));
          Advance(Body, Acc1, Acc2);
          Out.push_back(std::make_unique<ram::Loop>(
              std::make_unique<ram::Sequence>(std::move(Body))));
        };

    // Phase A: over-delete candidates into rederive_R. Non-delta lower
    // atoms are over-approximated at NEW UNION delta_del (mask splits),
    // negations at (NOT N) OR delta_ins_N; SCC atoms read the still-
    // unerased (OLD) relations; a head-membership atom keeps candidates
    // inside the old fixpoint.
    Phase(
        [&](std::vector<ram::StmtPtr> &Dst, bool LoopBody) {
          for (const auto *Decl : Stratum.Relations) {
            const std::string &Name = Decl->getName();
            for (const auto *C : clausesOf(Name)) {
              const std::vector<const ast::Literal *> Lits =
                  maintLiterals(*C);
              std::vector<std::size_t> Lower;
              for (std::size_t I = 0; I < Lits.size(); ++I) {
                const bool SccAtom =
                    Lits[I]->getKind() == ast::Literal::Kind::Atom &&
                    Scc.count(
                        static_cast<const ast::Atom &>(*Lits[I]).getName());
                if (!SccAtom)
                  Lower.push_back(I);
              }
              for (std::size_t D = 0; D < Lits.size(); ++D) {
                const bool DIsScc =
                    Lits[D]->getKind() == ast::Literal::Kind::Atom &&
                    Scc.count(
                        static_cast<const ast::Atom &>(*Lits[D]).getName());
                if (DIsScc != LoopBody)
                  continue;
                std::vector<std::size_t> Maskable;
                for (std::size_t I : Lower)
                  if (I != D)
                    Maskable.push_back(I);
                for (std::uint32_t Mask = 0;
                     Mask < (1u << Maskable.size()); ++Mask) {
                  std::vector<LitMode> Modes(Lits.size(), LitMode::Keep);
                  Modes[D] =
                      LoopBody
                          ? LitMode::ScratchDelta
                          : (Lits[D]->getKind() ==
                                     ast::Literal::Kind::Negation
                                 ? LitMode::InsScan
                                 : LitMode::DelScan);
                  for (std::size_t B = 0; B < Maskable.size(); ++B) {
                    if (!((Mask >> B) & 1))
                      continue;
                    const std::size_t Pos = Maskable[B];
                    Modes[Pos] = Lits[Pos]->getKind() ==
                                         ast::Literal::Kind::Negation
                                     ? LitMode::InsScan
                                     : LitMode::DelScan;
                  }
                  RuleVariant V;
                  V.LabelSuffix = " [odel]";
                  V.ForceMaxBound = true;
                  emitRule(*synthesizeMaintClause(*C, Modes, false, "",
                                                  Name,
                                                  static_cast<int>(D)),
                           MainNewRel.at(Name), {}, -1, Rederive.at(Name),
                           {}, StratumId, Dst, V);
                }
              }
            }
          }
        },
        &Rederive, nullptr);

    // Phase B: apply the over-deletions.
    for (const auto *Decl : Stratum.Relations)
      Out.push_back(std::make_unique<ram::Erase>(
          Rederive.at(Decl->getName()), RelOf.at(Decl->getName())));

    // Phase C: rederive candidates from the survivors (and the final
    // lower state). The candidate restriction keeps brand-new tuples out:
    // they belong to the insertion phase, which records them in
    // delta_ins_R for downstream strata.
    Phase(
        [&](std::vector<ram::StmtPtr> &Dst, bool LoopBody) {
          for (const auto *Decl : Stratum.Relations) {
            const std::string &Name = Decl->getName();
            for (const auto *C : clausesOf(Name)) {
              const std::vector<const ast::Literal *> Lits =
                  maintLiterals(*C);
              if (!LoopBody) {
                std::vector<LitMode> Modes(Lits.size(), LitMode::Keep);
                RuleVariant V;
                V.LabelSuffix = " [rdrv]";
                // The rederive candidate atom sits at position 0; MaxBound
                // chains the body off its bindings so unconnected literals
                // are not free-scanned once per candidate.
                V.ForceMaxBound = true;
                emitRule(*synthesizeMaintClause(
                             *C, Modes, false,
                             Rederive.at(Name)->getName(), ""),
                         MainNewRel.at(Name), {}, -1, RelOf.at(Name), {},
                         StratumId, Dst, V);
                continue;
              }
              for (std::size_t D = 0; D < Lits.size(); ++D) {
                const bool DIsScc =
                    Lits[D]->getKind() == ast::Literal::Kind::Atom &&
                    Scc.count(
                        static_cast<const ast::Atom &>(*Lits[D]).getName());
                if (!DIsScc)
                  continue;
                std::vector<LitMode> Modes(Lits.size(), LitMode::Keep);
                Modes[D] = LitMode::ScratchDelta;
                RuleVariant V;
                V.LabelSuffix = " [rdrv]";
                V.ForceMaxBound = true;
                emitRule(*synthesizeMaintClause(
                             *C, Modes, false, "",
                             Rederive.at(Name)->getName(),
                             static_cast<int>(D)),
                         MainNewRel.at(Name), {}, -1, RelOf.at(Name), {},
                         StratumId, Dst, V);
              }
            }
          }
        },
        &RelOf, nullptr);

    // Phase D: net deletions for downstream strata.
    for (const auto *Decl : Stratum.Relations)
      Out.push_back(std::make_unique<ram::SubtractInto>(
          Rederive.at(Decl->getName()), RelOf.at(Decl->getName()),
          Del.at(Decl->getName())));

    // Phase E: insertion semi-naive loop seeded from the lower insertion
    // deltas (a lower deletion seeds through a negated literal). Frontiers
    // accumulate into delta_ins_R as well as R.
    Phase(
        [&](std::vector<ram::StmtPtr> &Dst, bool LoopBody) {
          for (const auto *Decl : Stratum.Relations) {
            const std::string &Name = Decl->getName();
            for (const auto *C : clausesOf(Name)) {
              const std::vector<const ast::Literal *> Lits =
                  maintLiterals(*C);
              for (std::size_t D = 0; D < Lits.size(); ++D) {
                const bool DIsScc =
                    Lits[D]->getKind() == ast::Literal::Kind::Atom &&
                    Scc.count(
                        static_cast<const ast::Atom &>(*Lits[D]).getName());
                if (DIsScc != LoopBody)
                  continue;
                std::vector<LitMode> Modes(Lits.size(), LitMode::Keep);
                Modes[D] =
                    LoopBody ? LitMode::ScratchDelta
                             : (Lits[D]->getKind() ==
                                        ast::Literal::Kind::Negation
                                    ? LitMode::DelScan
                                    : LitMode::InsScan);
                RuleVariant V;
                V.LabelSuffix = " [ins]";
                V.ForceMaxBound = true;
                emitRule(*synthesizeMaintClause(*C, Modes, false, "", "",
                                                static_cast<int>(D)),
                         MainNewRel.at(Name), {}, -1, RelOf.at(Name), {},
                         StratumId, Dst, V);
              }
            }
          }
        },
        &RelOf, &Ins);

    // Leave the scratch pair empty for the next batch.
    ClearScratch();
    return std::make_unique<ram::Sequence>(std::move(Out));
  }

  std::vector<const ast::Clause *>
  clausesOf(const std::string &Name) const {
    auto It = Info.ClausesOf.find(Name);
    return It == Info.ClausesOf.end() ? std::vector<const ast::Clause *>{}
                                      : It->second;
  }

  //===--------------------------------------------------------------------===
  // Rule emission
  //===--------------------------------------------------------------------===

  /// Non-default rule-version shapes used by the maintenance program: \p
  /// LabelSuffix keeps maintenance-rule profile labels distinct from the
  /// main program's.
  struct RuleVariant {
    const char *LabelSuffix;
    /// Plans the body with MaxBound SIPS regardless of the session
    /// strategy. Maintenance delta rules set this: their pivot atom sits
    /// at source position 0 (synthesizeMaintClause hoists it) and the
    /// greedy bound-columns order chains the remaining atoms off the
    /// pivot's bindings instead of free-scanning an unconnected leading
    /// literal per delta tuple.
    bool ForceMaxBound;
    // Explicitly defaulted arguments instead of member initializers: the
    // latter cannot feed a default argument of the enclosing class.
    RuleVariant(const char *LabelSuffix = "", bool ForceMaxBound = false)
        : LabelSuffix(LabelSuffix), ForceMaxBound(ForceMaxBound) {}
  };

  /// Translates one rule version.
  ///
  /// \p Target is the relation receiving head insertions (new_R inside a
  /// fixpoint). \p DeltaPos, when >= 0, is the index (among SCC atoms) of
  /// the occurrence that reads its delta relation. \p GuardRel, when set,
  /// adds a NOT-in-GuardRel filter before insertion (semi-naive dedup).
  void emitRule(const ast::Clause &C, ram::Relation *Target,
                const std::unordered_set<std::string> &Scc, int DeltaPos,
                ram::Relation *GuardRel,
                const std::unordered_map<std::string, ram::Relation *>
                    &DeltaRel,
                int StratumId, std::vector<ram::StmtPtr> &Out,
                const RuleVariant &Variant = RuleVariant()) {
    ClauseState State(*this, C, Target, Scc, DeltaPos, GuardRel, DeltaRel,
                      Variant);
    ram::OpPtr Root = State.build();
    if (!Root)
      return;

    ram::StmtPtr Stmt = std::make_unique<ram::Query>(std::move(Root));
    if (Options.EnableProfiling) {
      std::string Label = C.toString();
      if (DeltaPos >= 0)
        Label += " [v" + std::to_string(DeltaPos) + "]";
      Label += Variant.LabelSuffix;
      ram::LogTimer::RuleInfo Info;
      Info.Stratum = StratumId;
      Info.Relation = C.getHead().getName();
      Info.Version = DeltaPos;
      // GuardRel is set exactly for rules inside a fixpoint loop (both the
      // semi-naive versions and naive loop bodies).
      Info.Recursive = GuardRel != nullptr;
      Info.Target = Target;
      Info.Sips = sipsStrategyName(Options.Sips);
      Info.AtomOrder.assign(State.atomOrder().begin(),
                            State.atomOrder().end());
      Stmt = std::make_unique<ram::LogTimer>(
          std::move(Label), std::move(Info), std::move(Stmt));
    }
    Out.push_back(std::move(Stmt));
  }

  /// Per-rule translation state: variable bindings, literal scheduling and
  /// tuple-id assignment.
  class ClauseState {
  public:
    ClauseState(Translator &T, const ast::Clause &C, ram::Relation *Target,
                const std::unordered_set<std::string> &Scc, int DeltaPos,
                ram::Relation *GuardRel,
                const std::unordered_map<std::string, ram::Relation *>
                    &DeltaRel,
                const RuleVariant &Variant)
        : T(T), C(C), Target(Target), Scc(Scc), DeltaPos(DeltaPos),
          GuardRel(GuardRel), DeltaRel(DeltaRel), Variant(Variant) {
      for (const auto &Lit : C.getBody()) {
        if (Lit->getKind() == ast::Literal::Kind::Atom)
          Atoms.push_back(static_cast<const ast::Atom *>(Lit.get()));
        else
          Pending.push_back(Lit.get());
      }
      computeOuterVars();
      planAtomOrder();
    }

    /// The emitted atom order: element i is the source-order index of the
    /// atom scanned at depth i (identity under SipsStrategy::Source).
    const std::vector<std::size_t> &atomOrder() const { return Order; }

    ram::OpPtr build() {
      ram::OpPtr Root = buildLevel(0);
      if (!Root)
        return nullptr;
      if (!T.Options.EnableEmptinessChecks || Atoms.empty())
        return Root;
      // Fig-3-style pre-check: skip the whole rule body if any scanned
      // relation is empty.
      ram::CondPtr Pre;
      std::unordered_set<const ram::Relation *> Seen;
      for (std::size_t I = 0; I < Atoms.size(); ++I) {
        const ram::Relation *Rel = atomRelation(I);
        if (!Rel || !Seen.insert(Rel).second)
          continue;
        ram::CondPtr Part = std::make_unique<ram::Negation>(
            std::make_unique<ram::EmptinessCheck>(Rel));
        Pre = Pre ? std::make_unique<ram::Conjunction>(std::move(Pre),
                                                       std::move(Part))
                  : std::move(Part);
      }
      if (Pre)
        Root = std::make_unique<ram::Filter>(std::move(Pre),
                                             std::move(Root));
      return Root;
    }

  private:
    /// The RAM relation the atom at emission position \p AtomIdx reads.
    /// Resolved once, against the source order, before any reordering: the
    /// semi-naive version semantics (which occurrence reads the delta) are
    /// defined over body positions, not over the plan.
    const ram::Relation *atomRelation(std::size_t AtomIdx) const {
      return AtomRels[AtomIdx];
    }

    /// The RAM relation an atom reads: its delta version when this atom is
    /// the rule version's delta occurrence, else the full relation. \p
    /// AtomIdx indexes the source body order (only valid before
    /// planAtomOrder permutes Atoms).
    const ram::Relation *resolveAtomRelation(std::size_t AtomIdx) {
      const ast::Atom *A = Atoms[AtomIdx];
      const ram::Relation *Full = T.RelOf.count(A->getName())
                                      ? T.RelOf.at(A->getName())
                                      : nullptr;
      if (!Full)
        return nullptr;
      if (DeltaPos < 0 || !Scc.count(A->getName()))
        return Full;
      // Count which SCC occurrence this is.
      int SccIndex = 0;
      for (std::size_t I = 0; I < AtomIdx; ++I)
        if (Scc.count(Atoms[I]->getName()))
          ++SccIndex;
      if (SccIndex == DeltaPos) {
        auto It = DeltaRel.find(A->getName());
        if (It != DeltaRel.end())
          return It->second;
      }
      return Full;
    }

    /// Resolves every atom's relation (delta vs. full, by source position)
    /// and then permutes Atoms under the configured SIPS strategy. Must run
    /// before any emission: build() and buildAtom() index the permuted
    /// vectors.
    void planAtomOrder() {
      AtomRels.resize(Atoms.size());
      Order.resize(Atoms.size());
      for (std::size_t I = 0; I < Atoms.size(); ++I) {
        AtomRels[I] = resolveAtomRelation(I);
        Order[I] = I;
      }
      const SipsStrategy Strat =
          Variant.ForceMaxBound ? SipsStrategy::MaxBound : T.Options.Sips;
      if (Strat == SipsStrategy::Source || Atoms.size() < 2)
        return;
      // An undeclared relation keeps the source order; buildAtom reports
      // the error with the original positions intact.
      for (const ram::Relation *Rel : AtomRels)
        if (!Rel)
          return;

      std::vector<SipsAtom> Desc(Atoms.size());
      for (std::size_t I = 0; I < Atoms.size(); ++I) {
        SipsAtom &D = Desc[I];
        D.SourceIndex = I;
        const auto MainIt = T.RelOf.find(Atoms[I]->getName());
        D.IsDelta = MainIt != T.RelOf.end() && AtomRels[I] != MainIt->second;
        if (Strat == SipsStrategy::Profile)
          D.EstimatedSize =
              T.estimateSize(*AtomRels[I], D.IsDelta, Atoms[I]->getName());
        for (const auto &Arg : Atoms[I]->getArgs()) {
          SipsColumn Col;
          if (Arg->getKind() == ast::Argument::Kind::Variable) {
            Col.Binds = static_cast<const ast::Variable &>(*Arg).getName();
            Col.Vars.push_back(Col.Binds);
          } else if (Arg->getKind() != ast::Argument::Kind::UnnamedVariable) {
            collectVars(*Arg, Col.Vars);
            Col.Ground = Col.Vars.empty();
          }
          D.Columns.push_back(std::move(Col));
        }
      }

      // Equality-derivable variables (`x = 3`, `y = x + 1`) count as bound
      // for planning, matching the scheduler's binding equalities.
      std::vector<SipsEquality> Equalities;
      for (const ast::Literal *Lit : Pending) {
        if (Lit->getKind() != ast::Literal::Kind::Constraint)
          continue;
        const auto &Con = static_cast<const ast::Constraint &>(*Lit);
        if (Con.getOp() != ast::ConstraintOp::Eq ||
            asAggregator(Con.getLhs()) || asAggregator(Con.getRhs()))
          continue;
        auto AddDerivation = [&](const ast::Argument &VarSide,
                                 const ast::Argument &ExprSide) {
          if (VarSide.getKind() != ast::Argument::Kind::Variable)
            return;
          std::vector<std::string> Needed;
          collectVars(ExprSide, Needed);
          Equalities.emplace_back(
              static_cast<const ast::Variable &>(VarSide).getName(),
              std::move(Needed));
        };
        AddDerivation(Con.getLhs(), Con.getRhs());
        AddDerivation(Con.getRhs(), Con.getLhs());
      }

      Order = orderAtoms(Strat, Desc, Equalities);
      std::vector<const ast::Atom *> NewAtoms(Atoms.size());
      std::vector<const ram::Relation *> NewRels(Atoms.size());
      for (std::size_t I = 0; I < Order.size(); ++I) {
        NewAtoms[I] = Atoms[Order[I]];
        NewRels[I] = AtomRels[Order[I]];
      }
      Atoms = std::move(NewAtoms);
      AtomRels = std::move(NewRels);
    }

    void computeOuterVars() {
      auto Add = [&](const ast::Argument &Arg) {
        std::vector<std::string> Vars;
        collectVars(Arg, Vars);
        OuterVars.insert(Vars.begin(), Vars.end());
      };
      for (const auto *A : Atoms)
        for (const auto &Arg : A->getArgs())
          Add(*Arg);
      for (const auto &Arg : C.getHead().getArgs())
        Add(*Arg);
      for (const ast::Literal *Lit : Pending) {
        if (Lit->getKind() == ast::Literal::Kind::Negation) {
          for (const auto &Arg :
               static_cast<const ast::Negation &>(*Lit).getAtom().getArgs())
            Add(*Arg);
        } else if (Lit->getKind() == ast::Literal::Kind::Constraint) {
          const auto &Con = static_cast<const ast::Constraint &>(*Lit);
          if (!asAggregator(Con.getLhs()))
            Add(Con.getLhs());
          if (!asAggregator(Con.getRhs()))
            Add(Con.getRhs());
        }
      }
    }

    bool isBound(const std::string &Name) const {
      return VarBindings.count(Name) || EqBindings.count(Name);
    }

    bool allVarsBound(const ast::Argument &Arg) const {
      std::vector<std::string> Vars;
      collectVars(Arg, Vars);
      return std::all_of(Vars.begin(), Vars.end(),
                         [&](const std::string &V) { return isBound(V); });
    }

    //===------------------------------------------------------------------===
    // Expression translation (requires all variables bound)
    //===------------------------------------------------------------------===

    ram::ExprPtr translateExpr(const ast::Argument &Arg) {
      switch (Arg.getKind()) {
      case ast::Argument::Kind::NumberConstant:
        return std::make_unique<ram::Constant>(
            static_cast<const ast::NumberConstant &>(Arg).getValue());
      case ast::Argument::Kind::UnsignedConstant:
        return std::make_unique<ram::Constant>(ramBitCast<RamDomain>(
            static_cast<const ast::UnsignedConstant &>(Arg).getValue()));
      case ast::Argument::Kind::FloatConstant:
        return std::make_unique<ram::Constant>(ramBitCast<RamDomain>(
            static_cast<const ast::FloatConstant &>(Arg).getValue()));
      case ast::Argument::Kind::StringConstant:
        return std::make_unique<ram::Constant>(T.Symbols.intern(
            static_cast<const ast::StringConstant &>(Arg).getValue()));
      case ast::Argument::Kind::Counter:
        return std::make_unique<ram::AutoIncrement>();
      case ast::Argument::Kind::Variable: {
        const auto &Name = static_cast<const ast::Variable &>(Arg).getName();
        auto It = VarBindings.find(Name);
        if (It != VarBindings.end())
          return std::make_unique<ram::TupleElement>(It->second.first,
                                                     It->second.second);
        auto EqIt = EqBindings.find(Name);
        if (EqIt != EqBindings.end())
          return translateExpr(*EqIt->second);
        T.error("internal: use of unbound variable '" + Name + "' in '" +
                C.toString() + "'");
        return std::make_unique<ram::Constant>(0);
      }
      case ast::Argument::Kind::Functor: {
        const auto &F = static_cast<const ast::Functor &>(Arg);
        std::vector<ram::ExprPtr> Args;
        for (const auto &Operand : F.getArgs())
          Args.push_back(translateExpr(*Operand));
        return std::make_unique<ram::Intrinsic>(
            resolveIntrinsic(F.getOp(), T.typeOfArg(&Arg)),
            std::move(Args));
      }
      case ast::Argument::Kind::UnnamedVariable:
        T.error("'_' cannot be used as a value in '" + C.toString() + "'");
        return std::make_unique<ram::Constant>(0);
      case ast::Argument::Kind::Aggregator:
        T.error("aggregates are only supported as the right-hand side of "
                "an equality in '" +
                C.toString() + "'");
        return std::make_unique<ram::Constant>(0);
      }
      unreachable("unknown argument kind");
    }

    //===------------------------------------------------------------------===
    // Literal scheduling
    //===------------------------------------------------------------------===

    /// True if the literal can be placed with the current bindings.
    bool isReady(const ast::Literal &Lit) const {
      if (Lit.getKind() == ast::Literal::Kind::Negation) {
        const auto &A = static_cast<const ast::Negation &>(Lit).getAtom();
        return std::all_of(A.getArgs().begin(), A.getArgs().end(),
                           [&](const std::unique_ptr<ast::Argument> &Arg) {
                             return Arg->getKind() ==
                                        ast::Argument::Kind::UnnamedVariable ||
                                    allVarsBound(*Arg);
                           });
      }
      const auto &Con = static_cast<const ast::Constraint &>(Lit);
      const ast::Aggregator *Agg = asAggregator(Con.getRhs());
      const ast::Argument *Other = &Con.getLhs();
      if (!Agg) {
        Agg = asAggregator(Con.getLhs());
        Other = &Con.getRhs();
      }
      if (Agg) {
        // Ready when all outer variables the aggregate references are
        // bound, and the other side is a variable or bound expression.
        std::vector<std::string> Vars;
        collectAggregateVars(*Agg, Vars);
        for (const auto &Name : Vars)
          if (OuterVars.count(Name) && !isBound(Name))
            return false;
        if (Other->getKind() == ast::Argument::Kind::Variable)
          return true;
        return allVarsBound(*Other);
      }
      // A binding equality `x = expr` is ready once expr is bound.
      if (Con.getOp() == ast::ConstraintOp::Eq) {
        const bool LhsLoneVar =
            Con.getLhs().getKind() == ast::Argument::Kind::Variable &&
            !isBound(static_cast<const ast::Variable &>(Con.getLhs())
                         .getName());
        const bool RhsLoneVar =
            Con.getRhs().getKind() == ast::Argument::Kind::Variable &&
            !isBound(static_cast<const ast::Variable &>(Con.getRhs())
                         .getName());
        if (LhsLoneVar && !RhsLoneVar)
          return allVarsBound(Con.getRhs());
        if (RhsLoneVar && !LhsLoneVar)
          return allVarsBound(Con.getLhs());
      }
      return allVarsBound(Con.getLhs()) && allVarsBound(Con.getRhs());
    }

    /// Places a ready literal, returning the operation wrapping the rest of
    /// the translation.
    ram::OpPtr placeLiteral(const ast::Literal &Lit, std::size_t AtomIdx) {
      if (Lit.getKind() == ast::Literal::Kind::Negation) {
        const auto &A = static_cast<const ast::Negation &>(Lit).getAtom();
        const ram::Relation *Rel = T.RelOf.count(A.getName())
                                       ? T.RelOf.at(A.getName())
                                       : nullptr;
        if (!Rel) {
          T.error("undeclared relation '" + A.getName() + "'");
          return nullptr;
        }
        std::vector<ram::ExprPtr> Pattern;
        for (const auto &Arg : A.getArgs()) {
          if (Arg->getKind() == ast::Argument::Kind::UnnamedVariable)
            Pattern.push_back(std::make_unique<ram::Undef>());
          else
            Pattern.push_back(translateExpr(*Arg));
        }
        ram::OpPtr Rest = buildLevel(AtomIdx);
        if (!Rest)
          return nullptr;
        return std::make_unique<ram::Filter>(
            std::make_unique<ram::Negation>(
                std::make_unique<ram::ExistenceCheck>(Rel,
                                                      std::move(Pattern))),
            std::move(Rest));
      }

      const auto &Con = static_cast<const ast::Constraint &>(Lit);
      const ast::Aggregator *Agg = asAggregator(Con.getRhs());
      const ast::Argument *Other = &Con.getLhs();
      if (!Agg) {
        Agg = asAggregator(Con.getLhs());
        Other = &Con.getRhs();
      }
      if (Agg)
        return placeAggregate(Con, *Agg, *Other, AtomIdx);

      if (Con.getOp() == ast::ConstraintOp::Eq) {
        // Binding equality: record and continue without a filter.
        auto TryBind = [&](const ast::Argument &VarSide,
                           const ast::Argument &ExprSide) -> bool {
          if (VarSide.getKind() != ast::Argument::Kind::Variable)
            return false;
          const auto &Name =
              static_cast<const ast::Variable &>(VarSide).getName();
          if (isBound(Name) || !allVarsBound(ExprSide))
            return false;
          EqBindings[Name] = &ExprSide;
          return true;
        };
        if (TryBind(Con.getLhs(), Con.getRhs()) ||
            TryBind(Con.getRhs(), Con.getLhs()))
          return buildLevel(AtomIdx);
      }

      TypeKind Type = T.typeOfArg(&Con.getLhs());
      ram::CondPtr Cond = std::make_unique<ram::Constraint>(
          resolveCmp(Con.getOp(), Type), translateExpr(Con.getLhs()),
          translateExpr(Con.getRhs()));
      ram::OpPtr Rest = buildLevel(AtomIdx);
      if (!Rest)
        return nullptr;
      return std::make_unique<ram::Filter>(std::move(Cond), std::move(Rest));
    }

    /// Places `Other = Agg{...}`: emits a ram::Aggregate binding a fresh
    /// tuple id and binds/filters the other side against the result.
    ram::OpPtr placeAggregate(const ast::Constraint &Con,
                              const ast::Aggregator &Agg,
                              const ast::Argument &Other,
                              std::size_t AtomIdx) {
      if (Con.getOp() != ast::ConstraintOp::Eq) {
        T.error("aggregates are only supported in equalities in '" +
                C.toString() + "'");
        return nullptr;
      }
      // The body must contain exactly one positive atom; remaining
      // literals become the aggregate's inner condition.
      const ast::Atom *InnerAtom = nullptr;
      std::vector<const ast::Literal *> InnerRest;
      for (const auto &Lit : Agg.getBody()) {
        if (Lit->getKind() == ast::Literal::Kind::Atom && !InnerAtom)
          InnerAtom = static_cast<const ast::Atom *>(Lit.get());
        else
          InnerRest.push_back(Lit.get());
      }
      if (!InnerAtom) {
        T.error("aggregate body requires a positive atom in '" +
                C.toString() + "'");
        return nullptr;
      }
      const ram::Relation *Rel = T.RelOf.count(InnerAtom->getName())
                                     ? T.RelOf.at(InnerAtom->getName())
                                     : nullptr;
      if (!Rel) {
        T.error("undeclared relation '" + InnerAtom->getName() + "'");
        return nullptr;
      }

      const std::uint32_t Tid = NextTupleId++;
      std::vector<ram::ExprPtr> Pattern;
      std::vector<ram::CondPtr> InnerConds;
      std::vector<std::string> LocalVars;
      for (std::size_t Col = 0; Col < InnerAtom->getArgs().size(); ++Col) {
        const ast::Argument &Arg = *InnerAtom->getArgs()[Col];
        if (Arg.getKind() == ast::Argument::Kind::UnnamedVariable) {
          Pattern.push_back(std::make_unique<ram::Undef>());
          continue;
        }
        if (Arg.getKind() == ast::Argument::Kind::Variable) {
          const auto &Name =
              static_cast<const ast::Variable &>(Arg).getName();
          if (!isBound(Name)) {
            // Inner-local witness variable.
            VarBindings[Name] = {Tid, static_cast<std::uint32_t>(Col)};
            LocalVars.push_back(Name);
            Pattern.push_back(std::make_unique<ram::Undef>());
            continue;
          }
        }
        if (allVarsBound(Arg)) {
          Pattern.push_back(translateExpr(Arg));
          continue;
        }
        T.error("unbound expression in aggregate pattern in '" +
                C.toString() + "'");
        return nullptr;
      }

      for (const ast::Literal *Lit : InnerRest) {
        if (Lit->getKind() == ast::Literal::Kind::Constraint) {
          const auto &Inner = static_cast<const ast::Constraint &>(*Lit);
          TypeKind Type = T.typeOfArg(&Inner.getLhs());
          InnerConds.push_back(std::make_unique<ram::Constraint>(
              resolveCmp(Inner.getOp(), Type),
              translateExpr(Inner.getLhs()),
              translateExpr(Inner.getRhs())));
        } else if (Lit->getKind() == ast::Literal::Kind::Negation) {
          const auto &A =
              static_cast<const ast::Negation &>(*Lit).getAtom();
          const ram::Relation *NegRel = T.RelOf.count(A.getName())
                                            ? T.RelOf.at(A.getName())
                                            : nullptr;
          if (!NegRel) {
            T.error("undeclared relation '" + A.getName() + "'");
            return nullptr;
          }
          std::vector<ram::ExprPtr> NegPattern;
          for (const auto &Arg : A.getArgs())
            NegPattern.push_back(
                Arg->getKind() == ast::Argument::Kind::UnnamedVariable
                    ? std::make_unique<ram::Undef>()
                    : translateExpr(*Arg));
          InnerConds.push_back(std::make_unique<ram::Negation>(
              std::make_unique<ram::ExistenceCheck>(
                  NegRel, std::move(NegPattern))));
        } else {
          T.error("aggregate body supports one positive atom plus "
                  "constraints in '" +
                  C.toString() + "'");
          return nullptr;
        }
      }
      ram::CondPtr InnerCond;
      for (auto &Part : InnerConds)
        InnerCond = InnerCond
                        ? std::make_unique<ram::Conjunction>(
                              std::move(InnerCond), std::move(Part))
                        : std::move(Part);

      ram::ExprPtr TargetExpr;
      TypeKind ResultType = T.typeOfArg(&Con.getLhs());
      if (Agg.getOp() != ast::AggregateOp::Count) {
        TargetExpr = translateExpr(*Agg.getTarget());
        ResultType = T.typeOfArg(Agg.getTarget());
      }

      // The locals die with the fold; tuple id Tid then holds the result.
      for (const auto &Name : LocalVars)
        VarBindings.erase(Name);

      ram::OpPtr Rest;
      if (Other.getKind() == ast::Argument::Kind::Variable &&
          !isBound(static_cast<const ast::Variable &>(Other).getName())) {
        VarBindings[static_cast<const ast::Variable &>(Other).getName()] = {
            Tid, 0};
        Rest = buildLevel(AtomIdx);
      } else {
        ram::CondPtr Match = std::make_unique<ram::Constraint>(
            ram::CmpOp::Eq, translateExpr(Other),
            std::make_unique<ram::TupleElement>(Tid, 0));
        ram::OpPtr Inner = buildLevel(AtomIdx);
        if (!Inner)
          return nullptr;
        Rest = std::make_unique<ram::Filter>(std::move(Match),
                                             std::move(Inner));
      }
      if (!Rest)
        return nullptr;
      return std::make_unique<ram::Aggregate>(
          resolveAggFunc(Agg.getOp(), ResultType), Rel, Tid,
          std::move(Pattern), std::move(TargetExpr), std::move(InnerCond),
          std::move(Rest));
    }

    //===------------------------------------------------------------------===
    // Level builder
    //===------------------------------------------------------------------===

    ram::OpPtr buildLevel(std::size_t AtomIdx) {
      // Place any literal that became ready.
      for (std::size_t I = 0; I < Pending.size(); ++I) {
        if (!isReady(*Pending[I]))
          continue;
        const ast::Literal *Lit = Pending[I];
        Pending.erase(Pending.begin() + static_cast<std::ptrdiff_t>(I));
        return placeLiteral(*Lit, AtomIdx);
      }

      if (AtomIdx < Atoms.size())
        return buildAtom(AtomIdx);

      if (!Pending.empty()) {
        T.error("could not schedule all literals of '" + C.toString() +
                "' (ungrounded or unsupported construct)");
        return nullptr;
      }
      return buildHead();
    }

    ram::OpPtr buildAtom(std::size_t AtomIdx) {
      const ast::Atom *A = Atoms[AtomIdx];
      const ram::Relation *Rel = atomRelation(AtomIdx);
      if (!Rel) {
        T.error("undeclared relation '" + A->getName() + "'");
        return nullptr;
      }
      const std::uint32_t Tid = NextTupleId++;
      std::vector<ram::ExprPtr> Pattern(A->getArgs().size());
      std::vector<ram::CondPtr> SelfConds;

      for (std::size_t Col = 0; Col < A->getArgs().size(); ++Col) {
        const ast::Argument &Arg = *A->getArgs()[Col];
        switch (Arg.getKind()) {
        case ast::Argument::Kind::UnnamedVariable:
          Pattern[Col] = std::make_unique<ram::Undef>();
          break;
        case ast::Argument::Kind::Variable: {
          const auto &Name =
              static_cast<const ast::Variable &>(Arg).getName();
          auto It = VarBindings.find(Name);
          if (It != VarBindings.end()) {
            if (It->second.first == Tid) {
              // Repeated variable within this atom: filter inside.
              Pattern[Col] = std::make_unique<ram::Undef>();
              SelfConds.push_back(std::make_unique<ram::Constraint>(
                  ram::CmpOp::Eq,
                  std::make_unique<ram::TupleElement>(
                      Tid, static_cast<std::uint32_t>(Col)),
                  std::make_unique<ram::TupleElement>(It->second.first,
                                                      It->second.second)));
            } else {
              Pattern[Col] = std::make_unique<ram::TupleElement>(
                  It->second.first, It->second.second);
            }
            break;
          }
          if (EqBindings.count(Name)) {
            Pattern[Col] = translateExpr(Arg);
            break;
          }
          // First occurrence: bind to this scan.
          VarBindings[Name] = {Tid, static_cast<std::uint32_t>(Col)};
          Pattern[Col] = std::make_unique<ram::Undef>();
          break;
        }
        default:
          if (allVarsBound(Arg)) {
            Pattern[Col] = translateExpr(Arg);
          } else {
            // Value determined only later: scan unbound and post-filter.
            Pattern[Col] = std::make_unique<ram::Undef>();
            DeferredColumnChecks.push_back(
                {Tid, static_cast<std::uint32_t>(Col), &Arg});
          }
          break;
        }
      }

      ram::OpPtr Nested = buildLevel(AtomIdx + 1);
      if (!Nested)
        return nullptr;

      // Deferred column checks whose expressions became bound at deeper
      // levels are placed right here if they belong to this tuple... they
      // were placed by deferred processing in buildHead; see below.
      for (auto &Cond : SelfConds)
        Nested = std::make_unique<ram::Filter>(std::move(Cond),
                                               std::move(Nested));

      const bool AllWildcard =
          ram::searchSignature(Pattern) == 0;
      if (AllWildcard)
        return std::make_unique<ram::Scan>(Rel, Tid, std::move(Nested));
      return std::make_unique<ram::IndexScan>(Rel, Tid, std::move(Pattern),
                                              std::move(Nested));
    }

    ram::OpPtr buildHead() {
      // Deferred atom-column checks (functor arguments whose variables were
      // bound by later atoms) become plain filters now.
      std::vector<ram::CondPtr> Checks;
      for (const auto &Deferred : DeferredColumnChecks) {
        if (!allVarsBound(*Deferred.Expr)) {
          T.error("ungrounded expression in atom argument in '" +
                  C.toString() + "'");
          return nullptr;
        }
        Checks.push_back(std::make_unique<ram::Constraint>(
            ram::CmpOp::Eq,
            std::make_unique<ram::TupleElement>(Deferred.TupleId,
                                                Deferred.Column),
            translateExpr(*Deferred.Expr)));
      }

      std::vector<ram::ExprPtr> Values;
      for (const auto &Arg : C.getHead().getArgs())
        Values.push_back(translateExpr(*Arg));

      ram::OpPtr Op;
      if (GuardRel) {
        std::vector<ram::ExprPtr> GuardPattern;
        for (const auto &Arg : C.getHead().getArgs())
          GuardPattern.push_back(translateExpr(*Arg));
        Op = std::make_unique<ram::Filter>(
            std::make_unique<ram::Negation>(
                std::make_unique<ram::ExistenceCheck>(
                    GuardRel, std::move(GuardPattern))),
            std::make_unique<ram::Project>(Target, std::move(Values)));
      } else {
        Op = std::make_unique<ram::Project>(Target, std::move(Values));
      }
      for (auto &Cond : Checks)
        Op = std::make_unique<ram::Filter>(std::move(Cond), std::move(Op));
      return Op;
    }

    Translator &T;
    const ast::Clause &C;
    ram::Relation *Target;
    const std::unordered_set<std::string> &Scc;
    int DeltaPos;
    ram::Relation *GuardRel;
    const std::unordered_map<std::string, ram::Relation *> &DeltaRel;
    const RuleVariant &Variant;

    std::vector<const ast::Atom *> Atoms;
    /// Relation read by each atom, aligned with Atoms (both permuted
    /// together by planAtomOrder).
    std::vector<const ram::Relation *> AtomRels;
    /// Emission position → source-order atom index.
    std::vector<std::size_t> Order;
    std::vector<const ast::Literal *> Pending;
    std::unordered_map<std::string, std::pair<std::uint32_t, std::uint32_t>>
        VarBindings;
    std::unordered_map<std::string, const ast::Argument *> EqBindings;
    std::unordered_set<std::string> OuterVars;
    struct DeferredCheck {
      std::uint32_t TupleId;
      std::uint32_t Column;
      const ast::Argument *Expr;
    };
    std::vector<DeferredCheck> DeferredColumnChecks;
    std::uint32_t NextTupleId = 0;
  };

  /// Estimated cardinality of \p Rel for the profile SIPS strategy, from
  /// the feedback document. A delta occurrence missing from the feedback
  /// (e.g. a one-shot profile feeding an update-program build whose aux
  /// relations have different names) is guessed as the square root of its
  /// full relation \p FullName — deltas are a fraction of the fixpoint.
  double estimateSize(const ram::Relation &Rel, bool IsDelta,
                      const std::string &FullName) const {
    if (!Options.Feedback)
      return -1.0;
    if (std::optional<double> S = Options.Feedback->relationSize(Rel.getName()))
      return *S;
    if (IsDelta)
      if (std::optional<double> Full = Options.Feedback->relationSize(FullName))
        return std::sqrt(std::max(*Full, 1.0));
    return -1.0;
  }

  const ast::Program &AstProg;
  const ast::SemanticInfo &Info;
  SymbolTable &Symbols;
  const TranslationOptions &Options;
  TranslationResult &Result;
  ram::Program *Prog = nullptr;
  std::unordered_map<std::string, ram::Relation *> RelOf;
  /// The delta_/new_ aux relations the main program's semi-naive strata
  /// created, for reuse by the maintenance program's DRed strata.
  std::unordered_map<std::string, ram::Relation *> MainDeltaRel, MainNewRel;
  /// Half-open [begin, end) child ranges of the main Sequence, one per
  /// stratum — the re-run spans for Reeval maintenance strata.
  std::vector<std::pair<std::size_t, std::size_t>> StratumSpans;
  /// Types for synthesized maintenance arguments: SemanticInfo keys
  /// ExprTypes by node address, so cloned trees must carry their own
  /// entries (see registerTypes).
  std::unordered_map<const ast::Argument *, ast::TypeKind> TypeOverlay;
  /// Owns every synthesized maintenance clause for the translator's
  /// lifetime, so TypeOverlay's pointer keys stay unique and valid.
  std::vector<std::unique_ptr<ast::Clause>> SynthClauses;
};

} // namespace

TranslationResult
stird::translate::translateToRam(const ast::Program &AstProg,
                                 const ast::SemanticInfo &Info,
                                 SymbolTable &Symbols,
                                 const TranslationOptions &Options) {
  TranslationResult Result;
  if (!Info.succeeded()) {
    Result.Errors = Info.Errors;
    return Result;
  }
  Translator T(AstProg, Info, Symbols, Options, Result);
  T.run();
  return Result;
}
