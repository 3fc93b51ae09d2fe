//===- translate/AstToRam.cpp - Datalog to RAM translation ------------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//

#include "translate/AstToRam.h"

#include "translate/Sips.h"
#include "util/MiscUtil.h"

#include <algorithm>
#include <cassert>
#include <functional>
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
      if (Decl->isInput()) {
        if (Options.EmitMaintenance && !clausesOf(Decl->getName()).empty())
          liftInput(*Decl, *Rel);
        else
          Rel->markInput(Decl->getInputPath());
      }
      if (Decl->isOutput())
        Rel->markOutput(Decl->getOutputPath());
      if (Decl->isPrintSize())
        Rel->markPrintSize();
      RelOf[Decl->getName()] = Rel;
    }

    // Loads in declaration order; a lifted relation's shadow loads for it.
    std::vector<ram::StmtPtr> Main;
    for (const auto &Rel : Prog->getRelations())
      if (Rel->isInput())
        Main.push_back(
            std::make_unique<ram::Io>(ram::Io::Direction::Load, Rel.get()));

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

  /// Lifts an .input relation R that also has clauses (maintenance builds
  /// only): a hidden EDB shadow R@edb takes R's load, reading the same
  /// file, and the exit clause R(x) :- R@edb(x) derives its tuples into R.
  /// R thereby becomes an ordinary derived relation, and a batch insert
  /// into R, staged into the shadow, outlives R's other derivations.
  void liftInput(const ast::RelationDecl &Decl, const ram::Relation &Rel) {
    const std::string &Name = Decl.getName();
    const std::string ShadowName = Name + "@edb";
    ram::Relation *Shadow = Prog->addRelation(
        ShadowName, Rel.getColumnTypes(),
        Rel.getStructure() == ram::StructureKind::Eqrel
            ? ram::StructureKind::Btree
            : Rel.getStructure());
    Shadow->markInput(Decl.getInputPath().empty() ? Name + ".facts"
                                                  : Decl.getInputPath());
    RelOf[ShadowName] = Shadow;
    EdbShadow[Name] = Shadow;

    std::vector<std::unique_ptr<ast::Argument>> HeadArgs, BodyArgs;
    for (std::size_t I = 0; I < Decl.getArity(); ++I)
      for (auto *Args : {&HeadArgs, &BodyArgs}) {
        Args->push_back(std::make_unique<ast::Variable>(
            "x" + std::to_string(I), Decl.getLoc()));
        TypeOverlay[Args->back().get()] = Decl.getAttributes()[I].Type;
      }
    std::vector<std::unique_ptr<ast::Literal>> Body;
    Body.push_back(std::make_unique<ast::Atom>(ShadowName, std::move(BodyArgs),
                                               Decl.getLoc()));
    SynthClauses.push_back(std::make_unique<ast::Clause>(
        std::make_unique<ast::Atom>(Name, std::move(HeadArgs), Decl.getLoc()),
        std::move(Body), Decl.getLoc()));
    CopyClauseOf[Name] = SynthClauses.back().get();
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
  //  * DRed (every stratum that is not Reeval): over-delete candidates
  //    into rederive_R with a semi-naive loop seeded from the lower
  //    deletion deltas (non-delta lower atoms over-approximated as NEW
  //    UNION delta_del, negations as (NOT N) OR delta_ins_N; a
  //    head-membership atom keeps candidates inside the old fixpoint),
  //    pruning each round's frontier of the candidates an exit clause (no
  //    positive SCC atom) or an exit unfolding (a clause whose SCC atoms
  //    are replaced by exit-clause bodies, see exitUnfoldings) still
  //    derives over the final lower strata, erase them, rederive survivors
  //    from the remaining tuples (candidate-restricted, so brand-new tuples
  //    are left to the insertion phase and correctly reach delta_ins_R),
  //    emit the net deletions with SUBTRACT, run the insertion semi-naive
  //    loop seeded from the lower insertion deltas, then drop from both
  //    deltas every tuple in both (over-deleted and re-inserted), so they
  //    stay disjoint. A kept candidate is in the new fixpoint and is
  //    neither over-deleted nor propagated; a check never reads the SCC,
  //    since over the not-yet-erased state cyclic support alone would
  //    satisfy it. The candidate-seeded checks (the [keep] versions and
  //    the rederive seed) stop each candidate at its first witness (see
  //    RuleVariant::FirstWitness), which keeps them sequential. In a
  //    non-recursive stratum every clause is an exit clause, so the prune
  //    is exact: nothing is over-deleted, no deletion cascades through a
  //    tuple that is still derivable, and the stratum has no fixpoint
  //    loop and no rederive phase.
  //  * Reeval (`$`, eqrel, aggregates, eqrel body dependencies, or rules
  //    too wide for delta versions): no statement. The maintenance driver
  //    snapshots the stratum's relations, clears them, re-runs the
  //    recorded [MainBegin, MainEnd) span of the main Sequence and diffs
  //    old against new into delta_ins_R / delta_del_R. Scoped, counted and
  //    reported - never a silent whole-program restart. `$` mints ids in
  //    evaluation order, so every stratum using it is Reeval and the
  //    driver restarts the counter at 0 before each batch: the `$` strata
  //    re-run in main order and mint a cold run's ids.
  //
  // Every program gets a plan. A rule-free program's plan is the prologue
  // alone. An .input relation that also has clauses is lifted (see
  // liftInput): its EDB shadow is one more clause-less relation, and its
  // copy clause an exit clause of R's stratum.

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

  /// Copies \p Arg with every variable in \p Subst replaced by (a copy
  /// of) its argument and every other variable renamed to \p Prefix + its
  /// name; an empty \p Subst and \p Prefix make a plain copy. Every copied
  /// node is registered under the type the analysis derived for its
  /// original: SemanticInfo keys types by node address, so copied argument
  /// trees would otherwise degrade to the Number fallback and mistranslate
  /// symbol comparisons and typed intrinsics.
  std::unique_ptr<ast::Argument>
  substArg(const ast::Argument &Arg,
           const std::unordered_map<std::string, const ast::Argument *>
               &Subst,
           const std::string &Prefix) {
    std::unique_ptr<ast::Argument> Copy;
    if (Arg.getKind() == ast::Argument::Kind::Variable) {
      const std::string &Name =
          static_cast<const ast::Variable &>(Arg).getName();
      if (auto It = Subst.find(Name); It != Subst.end())
        return substArg(*It->second, {}, "");
      Copy = std::make_unique<ast::Variable>(Prefix + Name, Arg.getLoc());
    } else if (Arg.getKind() == ast::Argument::Kind::Functor) {
      const auto &F = static_cast<const ast::Functor &>(Arg);
      std::vector<std::unique_ptr<ast::Argument>> Operands;
      for (const auto &Operand : F.getArgs())
        Operands.push_back(substArg(*Operand, Subst, Prefix));
      Copy = std::make_unique<ast::Functor>(F.getOp(), std::move(Operands),
                                            Arg.getLoc());
    } else {
      // Constants and wildcards; aggregates and `$` make a stratum Reeval,
      // so no unfolded clause holds one.
      Copy = Arg.clone();
    }
    TypeOverlay[Copy.get()] = typeOfArg(&Arg);
    return Copy;
  }

  std::unique_ptr<ast::Atom>
  substAtom(const ast::Atom &A,
            const std::unordered_map<std::string, const ast::Argument *>
                &Subst,
            const std::string &Prefix) {
    std::vector<std::unique_ptr<ast::Argument>> Args;
    for (const auto &Arg : A.getArgs())
      Args.push_back(substArg(*Arg, Subst, Prefix));
    return std::make_unique<ast::Atom>(A.getName(), std::move(Args),
                                       A.getLoc());
  }

  std::unique_ptr<ast::Literal>
  substLiteral(const ast::Literal &Lit,
               const std::unordered_map<std::string, const ast::Argument *>
                   &Subst,
               const std::string &Prefix) {
    switch (Lit.getKind()) {
    case ast::Literal::Kind::Atom:
      return substAtom(static_cast<const ast::Atom &>(Lit), Subst, Prefix);
    case ast::Literal::Kind::Negation:
      return std::make_unique<ast::Negation>(
          substAtom(static_cast<const ast::Negation &>(Lit).getAtom(), Subst,
                    Prefix),
          Lit.getLoc());
    case ast::Literal::Kind::Constraint: {
      const auto &Con = static_cast<const ast::Constraint &>(Lit);
      return std::make_unique<ast::Constraint>(
          Con.getOp(), substArg(Con.getLhs(), Subst, Prefix),
          substArg(Con.getRhs(), Subst, Prefix), Con.getLoc());
    }
    }
    unreachable("unknown literal kind");
  }

  /// Copies \p Orig over the relation \p NewName.
  std::unique_ptr<ast::Atom> cloneAtomMaint(const ast::Atom &Orig,
                                            std::string NewName) {
    std::vector<std::unique_ptr<ast::Argument>> Args;
    for (const auto &Arg : Orig.getArgs())
      Args.push_back(substArg(*Arg, {}, ""));
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
    DelScan,      ///< Positive atom over delta_del_B (negations with
                  ///< wildcards: plus a NOT B guard, since losing one
                  ///< matching tuple need not make NOT B true).
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
  /// commutative conjunction: the satisfying assignments are unchanged.
  /// The clause is kept alive for the translator's lifetime so the type
  /// overlay's node addresses stay unique.
  const ast::Clause *synthesizeMaintClause(const ast::Clause &C,
                                           const std::vector<LitMode> &Modes,
                                           const std::string &PrependRel,
                                           const std::string &AppendRel,
                                           int PivotLit = -1) {
    std::vector<std::unique_ptr<ast::Literal>> Body;
    std::vector<std::unique_ptr<ast::Literal>> Guards;
    int PivotBodyIdx = -1;
    if (!PrependRel.empty())
      Body.push_back(cloneAtomMaint(C.getHead(), PrependRel));
    std::size_t LitIdx = 0;
    for (const auto &Lit : C.getBody()) {
      if (Lit->getKind() == ast::Literal::Kind::Constraint) {
        Body.push_back(substLiteral(*Lit, {}, ""));
        continue;
      }
      const int ThisLit = static_cast<int>(LitIdx);
      const std::size_t BodyBefore = Body.size();
      const LitMode Mode = Modes[LitIdx++];
      if (ThisLit == PivotLit)
        PivotBodyIdx = static_cast<int>(BodyBefore);
      const bool Neg = Lit->getKind() == ast::Literal::Kind::Negation;
      const ast::Atom &A =
          Neg ? static_cast<const ast::Negation &>(*Lit).getAtom()
              : static_cast<const ast::Atom &>(*Lit);
      switch (Mode) {
      case LitMode::Keep:
        if (Neg)
          Body.push_back(std::make_unique<ast::Negation>(
              cloneAtomMaint(A, A.getName()), Lit->getLoc()));
        else
          Body.push_back(cloneAtomMaint(A, A.getName()));
        break;
      case LitMode::ScratchDelta:
        assert(!Neg && "scratch delta on a negation");
        Body.push_back(cloneAtomMaint(A, "delta_" + A.getName()));
        break;
      case LitMode::InsScan:
        Body.push_back(cloneAtomMaint(A, insName(A.getName())));
        break;
      case LitMode::DelScan:
        Body.push_back(cloneAtomMaint(A, delName(A.getName())));
        if (Neg && std::any_of(A.getArgs().begin(), A.getArgs().end(),
                               [](const auto &Arg) {
                                 return Arg->getKind() ==
                                        ast::Argument::Kind::UnnamedVariable;
                               }))
          Guards.push_back(std::make_unique<ast::Negation>(
              cloneAtomMaint(A, A.getName()), Lit->getLoc()));
        break;
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
      Body.push_back(cloneAtomMaint(C.getHead(), AppendRel));
    std::unique_ptr<ast::Atom> Head =
        cloneAtomMaint(C.getHead(), C.getHead().getName());
    SynthClauses.push_back(std::make_unique<ast::Clause>(
        std::move(Head), std::move(Body), C.getLoc()));
    return SynthClauses.back().get();
  }

  /// Most non-constraint literals a maintained rule body may have: DRed's
  /// availability splits emit up to 2^(literals - 1) over-deletion
  /// versions per delta position.
  static constexpr std::size_t MaxMaintLiterals = 6;
  /// Most exit-clause combinations one clause is unfolded into (see
  /// exitUnfoldings). Each combination is one more [keep] query over the
  /// frontier in every Phase A round, and the count multiplies per SCC
  /// atom (k exit clauses under each of n atoms give k^n). Four covers two
  /// SCC atoms over relations with up to two exit clauses each, the
  /// points-to clique shape, and bounds the queries per round on wider
  /// shapes; a skipped unfolding only loses a prune.
  static constexpr std::size_t MaxExitUnfoldings = 4;

  /// The checks DRed's Phase A prune runs for clause \p C of an SCC
  /// member: \p C itself when it is an exit clause (no positive SCC
  /// atom), else its exit unfoldings, one per combination of exit clauses.
  /// An unfolding replaces each positive SCC atom S(t) by the body of an
  /// exit clause of S: the exit head's variables are substituted by t,
  /// its other variables are renamed apart, and its head constants and
  /// repeated head variables become equalities with t. An exit clause
  /// with a head functor (x + 1 cannot be solved for x) is not used.
  /// Empty when some SCC atom's relation has no usable exit clause or
  /// there are more than MaxExitUnfoldings combinations; a combination
  /// whose body is wider than MaxMaintLiterals is dropped. An unfolded
  /// body reads only lower strata: exit bodies have no SCC atom, and the
  /// rest of \p C none but the replaced ones.
  std::vector<const ast::Clause *> exitUnfoldings(
      const ast::Clause &C,
      const std::function<bool(const ast::Literal &)> &IsSccAtom,
      const std::function<bool(const ast::Clause &)> &IsExitClause) {
    if (IsExitClause(C))
      return {&C};
    std::vector<std::vector<const ast::Clause *>> Exits;
    std::size_t Combinations = 1;
    for (const ast::Literal *Lit : maintLiterals(C)) {
      if (!IsSccAtom(*Lit))
        continue;
      std::vector<const ast::Clause *> Usable;
      for (const ast::Clause *E :
           clausesOf(static_cast<const ast::Atom &>(*Lit).getName())) {
        const auto &Head = E->getHead().getArgs();
        if (IsExitClause(*E) &&
            std::none_of(Head.begin(), Head.end(), [](const auto &Arg) {
              return Arg->getKind() == ast::Argument::Kind::Functor;
            }))
          Usable.push_back(E);
      }
      Combinations *= Usable.size();
      if (Combinations == 0 || Combinations > MaxExitUnfoldings)
        return {};
      Exits.push_back(std::move(Usable));
    }

    std::vector<const ast::Clause *> Unfoldings;
    for (std::size_t Combination = 0; Combination < Combinations;
         ++Combination) {
      std::vector<std::unique_ptr<ast::Literal>> Body;
      std::size_t Width = 0, Atom = 0, Digits = Combination;
      for (const auto &Lit : C.getBody()) {
        if (!IsSccAtom(*Lit)) {
          Width += Lit->getKind() != ast::Literal::Kind::Constraint;
          Body.push_back(substLiteral(*Lit, {}, ""));
          continue;
        }
        const auto &A = static_cast<const ast::Atom &>(*Lit);
        const std::vector<const ast::Clause *> &Choice = Exits[Atom];
        const ast::Clause &E = *Choice[Digits % Choice.size()];
        Digits /= Choice.size();
        const std::string Prefix = "@unf" + std::to_string(Atom++) + ".";
        std::unordered_map<std::string, const ast::Argument *> Subst;
        std::vector<std::unique_ptr<ast::Literal>> Equalities;
        for (std::size_t Col = 0; Col < A.getArgs().size(); ++Col) {
          const ast::Argument &Head = *E.getHead().getArgs()[Col];
          const ast::Argument &Arg = *A.getArgs()[Col];
          if (Arg.getKind() == ast::Argument::Kind::UnnamedVariable)
            continue;
          if (Head.getKind() == ast::Argument::Kind::Variable &&
              Subst.emplace(static_cast<const ast::Variable &>(Head).getName(),
                            &Arg)
                  .second)
            continue;
          Equalities.push_back(std::make_unique<ast::Constraint>(
              ast::ConstraintOp::Eq, substArg(Arg, {}, ""),
              substArg(Head, Subst, Prefix), Arg.getLoc()));
        }
        for (const auto &ELit : E.getBody()) {
          Width += ELit->getKind() != ast::Literal::Kind::Constraint;
          Body.push_back(substLiteral(*ELit, Subst, Prefix));
        }
        for (auto &Eq : Equalities)
          Body.push_back(std::move(Eq));
      }
      if (Width > MaxMaintLiterals)
        continue;
      SynthClauses.push_back(std::make_unique<ast::Clause>(
          substAtom(C.getHead(), {}, ""), std::move(Body), C.getLoc()));
      Unfoldings.push_back(SynthClauses.back().get());
    }
    return Unfoldings;
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

    // Per-stratum strategy classification.
    struct Plan {
      MaintStrategy Strategy = MaintStrategy::DRed;
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
      bool UsesCounter = false, TooWide = false, EqrelDep = false;
      for (const auto *Decl : Stratum.Relations) {
        if (Decl->getStructure() == ast::StructureKind::Eqrel)
          HasEqrel = true;
        for (const auto *C : clausesOf(Decl->getName())) {
          HasClauses = true;
          forEachClauseArg(*C, [&](const ast::Argument &Arg) {
            HasAgg |= Arg.getKind() == ast::Argument::Kind::Aggregator;
            UsesCounter |= Arg.getKind() == ast::Argument::Kind::Counter;
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
          }
          TooWide |= NumLits > MaxMaintLiterals;
        }
      }
      if (!HasClauses) {
        P.Edb = true;
        continue;
      }
      if (UsesCounter) {
        P.Strategy = MaintStrategy::Reeval;
        P.Reason = "`$` mints ids in evaluation order";
      } else if (HasEqrel) {
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
      }
    }

    // Every relation a batch can change: the declared ones, each lifted
    // .input relation followed by its EDB shadow.
    std::vector<std::string> Maintained;
    for (const auto &Decl : AstProg.Relations) {
      Maintained.push_back(Decl->getName());
      if (auto Shadow = EdbShadow.find(Decl->getName());
          Shadow != EdbShadow.end())
        Maintained.push_back(Shadow->second->getName());
    }

    // Aux relations: net ins/del deltas for every maintained relation (the
    // EDB staging area and the inter-stratum interface), and the DRed
    // over-deletion sets and scratch pairs.
    std::unordered_map<std::string, ram::Relation *> Ins, Del, Rederive;
    for (const std::string &Name : Maintained) {
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
      if (P.Edb || P.Strategy != MaintStrategy::DRed)
        continue;
      for (const auto *Decl : Info.Strata[SI].Relations) {
        const std::string &Name = Decl->getName();
        Rederive[Name] = EnsureScratch(Name, "rederive_", Rederive);
        EnsureScratch(Name, "delta_", MainDeltaRel);
        EnsureScratch(Name, "new_", MainNewRel);
      }
    }
    for (const std::string &Name : Maintained) {
      ram::Program::MaintAux Names;
      Names.Ins = Ins.at(Name)->getName();
      Names.Del = Del.at(Name)->getName();
      if (Rederive.count(Name))
        Names.Rederive = Rederive.at(Name)->getName();
      if (auto Shadow = EdbShadow.find(Name); Shadow != EdbShadow.end())
        Names.Edb = Shadow->second->getName();
      Prog->setMaintAux(Name, std::move(Names));
    }

    // Prologue: apply the staged EDB nets to the clause-less relations.
    std::vector<ram::StmtPtr> Pro;
    for (const std::string &Name : Maintained) {
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
    for (std::size_t SI = 0; SI < Info.Strata.size(); ++SI) {
      const Plan &P = Plans[SI];
      if (P.Edb)
        continue;
      MaintStratum MS;
      MS.Strategy = P.Strategy;
      MS.FallbackReason = P.Reason;
      for (const auto *Decl : Info.Strata[SI].Relations)
        MS.Relations.push_back(Decl->getName());
      if (P.Strategy == MaintStrategy::DRed) {
        MS.Stmt = emitDRedStratum(Info.Strata[SI], static_cast<int>(SI),
                                  Rederive, Ins, Del);
      } else {
        MS.MainBegin = StratumSpans[SI].first;
        MS.MainEnd = StratumSpans[SI].second;
      }
      Strata.push_back(std::move(MS));
    }

    // Epilogue: clear every staging/interface aux so the next batch starts
    // clean (run after the Maintainer has harvested telemetry and the
    // batch's change set).
    std::vector<ram::StmtPtr> Epi;
    for (const std::string &Name : Maintained) {
      Epi.push_back(std::make_unique<ram::Clear>(Ins.at(Name)));
      Epi.push_back(std::make_unique<ram::Clear>(Del.at(Name)));
      if (Rederive.count(Name))
        Epi.push_back(std::make_unique<ram::Clear>(Rederive.at(Name)));
    }
    Prog->setMaintEpilogue(
        std::make_unique<ram::Sequence>(std::move(Epi)));

    Prog->setMaintStrata(std::move(Strata));
  }

  /// Emits the DRed stratum statement: over-delete, erase, rederive,
  /// subtract, insert, then make the deltas disjoint.
  ram::StmtPtr
  emitDRedStratum(const ast::Stratum &Stratum, int StratumId,
                  std::unordered_map<std::string, ram::Relation *> &Rederive,
                  std::unordered_map<std::string, ram::Relation *> &Ins,
                  std::unordered_map<std::string, ram::Relation *> &Del) {
    std::unordered_set<std::string> Scc;
    for (const auto *Decl : Stratum.Relations)
      Scc.insert(Decl->getName());
    auto IsSccAtom = [&](const ast::Literal &Lit) {
      return Lit.getKind() == ast::Literal::Kind::Atom &&
             Scc.count(static_cast<const ast::Atom &>(Lit).getName());
    };
    // An exit clause has no positive body atom in the SCC (facts and
    // head-functor clauses included): it derives from lower strata only.
    auto IsExitClause = [&](const ast::Clause &C) {
      const std::vector<const ast::Literal *> Lits = maintLiterals(C);
      return std::none_of(Lits.begin(), Lits.end(),
                          [&](const ast::Literal *L) { return IsSccAtom(*L); });
    };
    // Whether some clause reads the SCC. When none does (a non-recursive
    // stratum), a frontier can never feed another round: no phase has a
    // fixpoint loop, and Phase C has nothing to rederive.
    bool ReadsScc = false;
    for (const auto *Decl : Stratum.Relations)
      for (const auto *C : clausesOf(Decl->getName()))
        ReadsScc |= !IsExitClause(*C);

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
    // accumulators, swapped into delta_R when a loop reads it, and cleared.
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
        if (ReadsScc)
          Dst.push_back(std::make_unique<ram::Swap>(MainDeltaRel.at(Name),
                                                    NewR));
        Dst.push_back(std::make_unique<ram::Clear>(NewR));
      }
    };
    // Emits one phase: seed versions, frontier publication, then, when
    // some clause reads the SCC, the semi-naive loop over its delta
    // versions.
    auto Phase =
        [&](const std::function<void(std::vector<ram::StmtPtr> &, bool)>
                &EmitVersions,
            const std::unordered_map<std::string, ram::Relation *> *Acc1,
            const std::unordered_map<std::string, ram::Relation *> *Acc2) {
          ClearScratch();
          EmitVersions(Out, /*LoopBody=*/false);
          Advance(Out, Acc1, Acc2);
          if (!ReadsScc)
            return;
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
    // inside the old fixpoint. Each round's frontier is then pruned of the
    // candidates an exit clause or an exit unfolding still derives ([keep]
    // versions). No check may read the SCC: an SCC clause read over the
    // not-yet-erased state can be satisfied by cyclic support alone (p(1)
    // from p(2) from p(1)) and would keep a tuple that is not in the new
    // fixpoint.
    Phase(
        [&](std::vector<ram::StmtPtr> &Dst, bool LoopBody) {
          for (const auto *Decl : Stratum.Relations) {
            const std::string &Name = Decl->getName();
            for (const auto *C : clausesOf(Name)) {
              const std::vector<const ast::Literal *> Lits =
                  maintLiterals(*C);
              std::vector<std::size_t> Lower;
              for (std::size_t I = 0; I < Lits.size(); ++I)
                if (!IsSccAtom(*Lits[I]))
                  Lower.push_back(I);
              for (std::size_t D = 0; D < Lits.size(); ++D) {
                if (IsSccAtom(*Lits[D]) != LoopBody)
                  continue;
                // A seed version telescopes over the first deleted lower
                // literal D: the literals before it still hold in NEW, so
                // only those after it are mask-split (2^n - 1 versions for
                // n lower literals). A loop-body version splits every
                // lower literal.
                std::vector<std::size_t> Maskable;
                for (std::size_t I : Lower)
                  if (LoopBody ? I != D : I > D)
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
                  RuleVariant V(" [odel]", /*MaxBound=*/true);
                  emitRule(*synthesizeMaintClause(*C, Modes, "", Name,
                                                  static_cast<int>(D)),
                           MainNewRel.at(Name), {}, -1, Rederive.at(Name),
                           {}, StratumId, Dst, V);
                }
              }
            }
          }
          // Prune the round's frontier. delta_R is dead between the
          // versions and Advance, so it collects the kept tuples.
          std::vector<ram::StmtPtr> Keep, Prune;
          for (const auto *Decl : Stratum.Relations) {
            const std::string &Name = Decl->getName();
            ram::Relation *NewR = MainNewRel.at(Name);
            ram::Relation *DeltaR = MainDeltaRel.at(Name);
            bool HasCheck = false;
            for (const auto *C : clausesOf(Name)) {
              for (const ast::Clause *Check :
                   exitUnfoldings(*C, IsSccAtom, IsExitClause)) {
                HasCheck = true;
                RuleVariant V(" [keep]", /*MaxBound=*/true,
                              /*FirstWitness=*/true);
                emitRule(*synthesizeMaintClause(
                             *Check,
                             std::vector<LitMode>(
                                 maintLiterals(*Check).size(), LitMode::Keep),
                             NewR->getName(), ""),
                         DeltaR, {}, -1, nullptr, {}, StratumId, Keep, V);
              }
            }
            if (!HasCheck)
              continue;
            Dst.push_back(std::make_unique<ram::Clear>(DeltaR));
            Prune.push_back(std::make_unique<ram::Erase>(DeltaR, NewR));
          }
          for (auto *Part : {&Keep, &Prune})
            for (auto &Stmt : *Part)
              Dst.push_back(std::move(Stmt));
        },
        &Rederive, nullptr);

    // Phase B: apply the over-deletions.
    for (const auto *Decl : Stratum.Relations)
      Out.push_back(std::make_unique<ram::Erase>(
          Rederive.at(Decl->getName()), RelOf.at(Decl->getName())));

    // Phase C: rederive candidates from the survivors (and the final
    // lower state). The candidate restriction keeps brand-new tuples out:
    // they belong to the insertion phase, which records them in
    // delta_ins_R for downstream strata. Without a clause over the SCC
    // there is nothing to rederive: Phase A kept every candidate an exit
    // clause derives.
    if (ReadsScc)
      Phase(
          [&](std::vector<ram::StmtPtr> &Dst, bool LoopBody) {
            for (const auto *Decl : Stratum.Relations) {
              const std::string &Name = Decl->getName();
              for (const auto *C : clausesOf(Name)) {
                const std::vector<const ast::Literal *> Lits =
                    maintLiterals(*C);
                if (!LoopBody) {
                  // Phase A kept every candidate an exit clause derives, so
                  // only clauses over the SCC can rederive one.
                  if (IsExitClause(*C))
                    continue;
                  std::vector<LitMode> Modes(Lits.size(), LitMode::Keep);
                  // The rederive candidate atom sits at position 0; MaxBound
                  // chains the body off its bindings so unconnected literals
                  // are not free-scanned once per candidate, and the check
                  // stops at the candidate's first witness.
                  RuleVariant V(" [rdrv]", /*MaxBound=*/true,
                                /*FirstWitness=*/true);
                  emitRule(*synthesizeMaintClause(
                               *C, Modes, Rederive.at(Name)->getName(), ""),
                           MainNewRel.at(Name), {}, -1, RelOf.at(Name), {},
                           StratumId, Dst, V);
                  continue;
                }
                for (std::size_t D = 0; D < Lits.size(); ++D) {
                  if (!IsSccAtom(*Lits[D]))
                    continue;
                  std::vector<LitMode> Modes(Lits.size(), LitMode::Keep);
                  Modes[D] = LitMode::ScratchDelta;
                  RuleVariant V(" [rdrv]", /*MaxBound=*/true);
                  emitRule(*synthesizeMaintClause(
                               *C, Modes, "", Rederive.at(Name)->getName(),
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
                if (IsSccAtom(*Lits[D]) != LoopBody)
                  continue;
                std::vector<LitMode> Modes(Lits.size(), LitMode::Keep);
                Modes[D] =
                    LoopBody ? LitMode::ScratchDelta
                             : (Lits[D]->getKind() ==
                                        ast::Literal::Kind::Negation
                                    ? LitMode::DelScan
                                    : LitMode::InsScan);
                RuleVariant V(" [ins]", /*MaxBound=*/true);
                emitRule(*synthesizeMaintClause(*C, Modes, "", "",
                                                static_cast<int>(D)),
                         MainNewRel.at(Name), {}, -1, RelOf.at(Name), {},
                         StratumId, Dst, V);
              }
            }
          }
        },
        &RelOf, &Ins);

    // A tuple over-deleted, not rederived and re-inserted by Phase E is in
    // R before and after the batch: drop it from both deltas, so they stay
    // disjoint and the harvested change set is the net change.
    for (const auto *Decl : Stratum.Relations) {
      const std::string &Name = Decl->getName();
      Out.push_back(std::make_unique<ram::Erase>(Ins.at(Name), Del.at(Name)));
      Out.push_back(
          std::make_unique<ram::Erase>(Rederive.at(Name), Ins.at(Name)));
    }

    // Leave the scratch pair empty for the next batch.
    ClearScratch();
    return std::make_unique<ram::Sequence>(std::move(Out));
  }

  /// The clauses of \p Name, led by its copy clause when it is a lifted
  /// .input relation.
  std::vector<const ast::Clause *>
  clausesOf(const std::string &Name) const {
    std::vector<const ast::Clause *> Clauses;
    if (auto Copy = CopyClauseOf.find(Name); Copy != CopyClauseOf.end())
      Clauses.push_back(Copy->second);
    if (auto It = Info.ClausesOf.find(Name); It != Info.ClausesOf.end())
      Clauses.insert(Clauses.end(), It->second.begin(), It->second.end());
    return Clauses;
  }

  //===--------------------------------------------------------------------===
  // Rule emission
  //===--------------------------------------------------------------------===

  /// Non-default rule-version shapes used by the maintenance program: \p
  /// LabelSuffix keeps maintenance-rule profile labels distinct from the
  /// main program's.
  struct RuleVariant {
    const char *LabelSuffix;
    /// Keeps the driving atom first and orders the rest max-bound; else
    /// the body keeps source order. Every maintenance version sets this:
    /// its driver sits at body position 0 (synthesizeMaintClause hoists
    /// the delta pivot or prepends the candidate atom), and the greedy
    /// bound-columns order chains the remaining atoms off the driver's
    /// bindings instead of free-scanning an unconnected literal per delta
    /// tuple.
    bool MaxBound;
    /// Stops each candidate's nest at its first witness: every range scan
    /// evaluated once the head is bound (by the prepended candidate atom,
    /// at depth 0) is guarded by NOT head IN Target, so after the first
    /// insert each remaining iteration costs one lookup. The query then
    /// reads its own target, which keeps it sequential.
    bool FirstWitness;
    // Explicitly defaulted arguments instead of member initializers: the
    // latter cannot feed a default argument of the enclosing class.
    RuleVariant(const char *LabelSuffix = "", bool MaxBound = false,
                bool FirstWitness = false)
        : LabelSuffix(LabelSuffix), MaxBound(MaxBound),
          FirstWitness(FirstWitness) {}
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
    Info.Sips = Variant.MaxBound ? "max-bound" : "source";
    Info.AtomOrder.assign(State.atomOrder().begin(),
                          State.atomOrder().end());
    Out.push_back(std::make_unique<ram::LogTimer>(
        std::move(Label), std::move(Info),
        std::make_unique<ram::Query>(std::move(Root))));
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
    /// atom scanned at depth i (identity for source-order bodies).
    const std::vector<std::size_t> &atomOrder() const { return Order; }

    ram::OpPtr build() {
      ram::OpPtr Root = buildLevel(0);
      if (!Root)
        return nullptr;
      if (Atoms.empty())
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
    /// and then, for a max-bound variant, permutes Atoms behind the driving
    /// atom at position 0. Must run before any emission: build() and
    /// buildAtom() index the permuted vectors.
    void planAtomOrder() {
      AtomRels.resize(Atoms.size());
      Order.resize(Atoms.size());
      for (std::size_t I = 0; I < Atoms.size(); ++I) {
        AtomRels[I] = resolveAtomRelation(I);
        Order[I] = I;
      }
      if (!Variant.MaxBound || Atoms.size() < 3)
        return;
      // An undeclared relation keeps the source order; buildAtom reports
      // the error with the original positions intact.
      for (const ram::Relation *Rel : AtomRels)
        if (!Rel)
          return;

      std::vector<SipsAtom> Desc(Atoms.size());
      for (std::size_t I = 0; I < Atoms.size(); ++I) {
        for (const auto &Arg : Atoms[I]->getArgs()) {
          SipsColumn Col;
          if (Arg->getKind() == ast::Argument::Kind::Variable) {
            Col.Binds = static_cast<const ast::Variable &>(*Arg).getName();
            Col.Vars.push_back(Col.Binds);
          } else if (Arg->getKind() != ast::Argument::Kind::UnnamedVariable) {
            collectVars(*Arg, Col.Vars);
            Col.Ground = Col.Vars.empty();
          }
          Desc[I].Columns.push_back(std::move(Col));
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

      Order = orderAtoms(Desc, Equalities, /*Pinned=*/1);
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
      std::vector<ram::ExprPtr> Witnessed;
      if (Variant.FirstWitness &&
          std::all_of(C.getHead().getArgs().begin(),
                      C.getHead().getArgs().end(),
                      [&](const auto &Arg) { return allVarsBound(*Arg); }))
        for (const auto &Arg : C.getHead().getArgs())
          Witnessed.push_back(translateExpr(*Arg));

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

      const std::uint32_t Signature = ram::searchSignature(Pattern);
      ram::OpPtr Scan;
      if (Signature == 0)
        Scan = std::make_unique<ram::Scan>(Rel, Tid, std::move(Nested));
      else
        Scan = std::make_unique<ram::IndexScan>(Rel, Tid, std::move(Pattern),
                                                std::move(Nested));
      if (Witnessed.empty() ||
          Signature == (1u << A->getArgs().size()) - 1)
        return Scan;
      return std::make_unique<ram::Filter>(
          std::make_unique<ram::Negation>(std::make_unique<ram::ExistenceCheck>(
              Target, std::move(Witnessed))),
          std::move(Scan));
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
  /// entries (see substArg).
  std::unordered_map<const ast::Argument *, ast::TypeKind> TypeOverlay;
  /// Owns every synthesized maintenance clause for the translator's
  /// lifetime, so TypeOverlay's pointer keys stay unique and valid.
  std::vector<std::unique_ptr<ast::Clause>> SynthClauses;
  /// Lifted .input relations (see liftInput): their EDB shadow, and the
  /// copy clause clausesOf prepends.
  std::unordered_map<std::string, ram::Relation *> EdbShadow;
  std::unordered_map<std::string, const ast::Clause *> CopyClauseOf;
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
