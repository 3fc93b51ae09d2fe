//===- interp/Generator.cpp - RAM to interpreter-tree generation ------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//

#include "interp/Generator.h"

#include "interp/ForEach.h"
#include "util/MiscUtil.h"

#include <bit>
#include <optional>
#include <unordered_map>
#include <utility>

using namespace stird;
using namespace stird::interp;

namespace {

/// The specializable operations of the static engine.
enum class SpecOp { Scan, IndexScan, Project, Existence, Aggregate };

/// Maps (operation, structure, arity) to the specialized opcode generated
/// by the STIRD_FOR_EACH expansion in Node.h.
NodeType specializedType(SpecOp Op, RelKind Kind, std::size_t Arity) {
#define STIRD_SPECIALIZE_CASE(Structure, ArityV)                              \
  if (Kind == RelKind::Structure && Arity == (ArityV)) {                      \
    switch (Op) {                                                             \
    case SpecOp::Scan:                                                        \
      return NodeType::Scan_##Structure##_##ArityV;                           \
    case SpecOp::IndexScan:                                                   \
      return NodeType::IndexScan_##Structure##_##ArityV;                      \
    case SpecOp::Project:                                                     \
      return NodeType::Project_##Structure##_##ArityV;                        \
    case SpecOp::Existence:                                                   \
      return NodeType::Existence_##Structure##_##ArityV;                      \
    case SpecOp::Aggregate:                                                   \
      return NodeType::Aggregate_##Structure##_##ArityV;                      \
    }                                                                         \
  }
  STIRD_FOR_EACH(STIRD_SPECIALIZE_CASE)
#undef STIRD_SPECIALIZE_CASE
  fatal("no specialized instruction for this relation shape");
}

NodeType genericType(SpecOp Op) {
  switch (Op) {
  case SpecOp::Scan:
    return NodeType::GenericScan;
  case SpecOp::IndexScan:
    return NodeType::GenericIndexScan;
  case SpecOp::Project:
    return NodeType::GenericProject;
  case SpecOp::Existence:
    return NodeType::GenericExistence;
  case SpecOp::Aggregate:
    return NodeType::GenericAggregate;
  }
  unreachable("unknown spec op");
}

/// Walks a RAM operation chain to find the number of tuple registers a
/// query needs.
std::size_t countTupleIds(const ram::Operation &Op) {
  switch (Op.getKind()) {
  case ram::Operation::Kind::Scan: {
    const auto &S = static_cast<const ram::Scan &>(Op);
    return std::max<std::size_t>(S.getTupleId() + 1,
                                 countTupleIds(S.getNested()));
  }
  case ram::Operation::Kind::IndexScan: {
    const auto &S = static_cast<const ram::IndexScan &>(Op);
    return std::max<std::size_t>(S.getTupleId() + 1,
                                 countTupleIds(S.getNested()));
  }
  case ram::Operation::Kind::Filter:
    return countTupleIds(static_cast<const ram::Filter &>(Op).getNested());
  case ram::Operation::Kind::Project:
    return 0;
  case ram::Operation::Kind::Aggregate: {
    const auto &A = static_cast<const ram::Aggregate &>(Op);
    return std::max<std::size_t>(A.getTupleId() + 1,
                                 countTupleIds(A.getNested()));
  }
  }
  unreachable("unknown operation kind");
}

//===----------------------------------------------------------------------===//
// Parallelization eligibility
//===----------------------------------------------------------------------===//

/// What a query touches, for deciding whether its outermost scan may be
/// partitioned across threads.
///
/// The expression language no longer contributes: the `$` auto-increment
/// counter is an atomic fetch-add, and the string functors (Cat / Substr /
/// ToString) intern through the concurrency-safe SymbolTable, so every
/// expression may run on a partition worker. (The resulting `$` ids and
/// freshly interned ordinals are dense but thread-order-dependent — the
/// documented determinism caveat of parallel evaluation.) What remains is
/// the relation footprint: which relations the query reads and writes.
struct QueryFootprint {
  std::vector<const ram::Relation *> Reads;
  std::vector<const ram::Relation *> Writes;
};

void collectCond(const ram::Condition &Cond, QueryFootprint &F) {
  using K = ram::Condition::Kind;
  switch (Cond.getKind()) {
  case K::True:
  case K::Constraint:
    return;
  case K::Conjunction: {
    const auto &C = static_cast<const ram::Conjunction &>(Cond);
    collectCond(C.getLhs(), F);
    collectCond(C.getRhs(), F);
    return;
  }
  case K::Negation:
    collectCond(static_cast<const ram::Negation &>(Cond).getInner(), F);
    return;
  case K::EmptinessCheck:
    F.Reads.push_back(
        &static_cast<const ram::EmptinessCheck &>(Cond).getRelation());
    return;
  case K::ExistenceCheck:
    F.Reads.push_back(
        &static_cast<const ram::ExistenceCheck &>(Cond).getRelation());
    return;
  }
}

void collectOp(const ram::Operation &Op, QueryFootprint &F) {
  using K = ram::Operation::Kind;
  switch (Op.getKind()) {
  case K::Scan: {
    const auto &S = static_cast<const ram::Scan &>(Op);
    F.Reads.push_back(&S.getRelation());
    collectOp(S.getNested(), F);
    return;
  }
  case K::IndexScan: {
    const auto &S = static_cast<const ram::IndexScan &>(Op);
    F.Reads.push_back(&S.getRelation());
    collectOp(S.getNested(), F);
    return;
  }
  case K::Filter: {
    const auto &Fl = static_cast<const ram::Filter &>(Op);
    collectCond(Fl.getCondition(), F);
    collectOp(Fl.getNested(), F);
    return;
  }
  case K::Project:
    F.Writes.push_back(&static_cast<const ram::Project &>(Op).getRelation());
    return;
  case K::Aggregate: {
    const auto &A = static_cast<const ram::Aggregate &>(Op);
    F.Reads.push_back(&A.getRelation());
    if (A.getCondition())
      collectCond(*A.getCondition(), F);
    collectOp(A.getNested(), F);
    return;
  }
  }
}

/// The generator proper.
class TreeGenerator {
public:
  TreeGenerator(const translate::IndexSelectionResult &Indexes,
                EngineState &State, const GeneratorOptions &Options)
      : Indexes(Indexes), State(State), Options(Options) {}

  NodePtr genStmt(const ram::Statement &Stmt) {
    using K = ram::Statement::Kind;
    switch (Stmt.getKind()) {
    case K::Sequence: {
      const auto &Seq = static_cast<const ram::Sequence &>(Stmt);
      const auto &Stmts = Seq.getStatements();
      std::vector<NodePtr> Children;
      for (std::size_t I = 0; I < Stmts.size();) {
        const std::size_t GroupEnd =
            Options.NumThreads > 1 ? extendRuleGroup(Stmts, I) : I + 1;
        if (GroupEnd > I + 1) {
          // A run of pairwise independent rules: execute the members as
          // concurrent jobs on the scheduler.
          std::vector<NodePtr> Members;
          CurrentParGroup = NextParGroup++;
          for (std::size_t J = I; J < GroupEnd; ++J)
            Members.push_back(genStmt(*Stmts[J]));
          CurrentParGroup = -1;
          Children.push_back(std::make_unique<ParallelSequenceNode>(
              &Stmt, std::move(Members)));
        } else {
          Children.push_back(genStmt(*Stmts[I]));
        }
        I = GroupEnd;
      }
      return std::make_unique<SequenceNode>(&Stmt, std::move(Children));
    }
    case K::Loop: {
      const auto &L = static_cast<const ram::Loop &>(Stmt);
      return std::make_unique<LoopNode>(&Stmt, genStmt(L.getBody()));
    }
    case K::Exit: {
      const auto &E = static_cast<const ram::Exit &>(Stmt);
      return std::make_unique<ExitNode>(&Stmt, genCond(E.getCondition()));
    }
    case K::Query: {
      const auto &Q = static_cast<const ram::Query &>(Stmt);
      RewriteOrders.clear();
      std::size_t NumIds = countTupleIds(Q.getRoot());
      if (Options.NumThreads > 1 && shouldParallelize(Q.getRoot()))
        ParallelRootIds = NumIds;
      NodePtr Root = genOp(Q.getRoot());
      ParallelRootIds.reset();
      return std::make_unique<QueryNode>(&Stmt, std::move(Root), NumIds);
    }
    case K::Clear: {
      const auto &C = static_cast<const ram::Clear &>(Stmt);
      return std::make_unique<ClearNode>(&Stmt,
                                         wrapper(C.getRelation()));
    }
    case K::Swap: {
      const auto &S = static_cast<const ram::Swap &>(Stmt);
      return std::make_unique<SwapNode>(&Stmt, wrapper(S.getFirst()),
                                        wrapper(S.getSecond()));
    }
    case K::MergeInto: {
      const auto &M = static_cast<const ram::MergeInto &>(Stmt);
      return std::make_unique<MergeNode>(&Stmt, wrapper(M.getSource()),
                                         wrapper(M.getDestination()));
    }
    case K::Erase: {
      const auto &E = static_cast<const ram::Erase &>(Stmt);
      return std::make_unique<EraseNode>(&Stmt, wrapper(E.getSource()),
                                         wrapper(E.getDestination()));
    }
    case K::SubtractInto: {
      const auto &S = static_cast<const ram::SubtractInto &>(Stmt);
      return std::make_unique<SubtractNode>(&Stmt, wrapper(S.getSource()),
                                            wrapper(S.getFilter()),
                                            wrapper(S.getDestination()));
    }
    case K::Io: {
      const auto &IoStmt = static_cast<const ram::Io &>(Stmt);
      return std::make_unique<IoNode>(&Stmt, wrapper(IoStmt.getRelation()),
                                      IoStmt.getDirection());
    }
    case K::LogTimer: {
      const auto &Log = static_cast<const ram::LogTimer &>(Stmt);
      const ram::LogTimer::RuleInfo &Info = Log.getInfo();
      RuleMeta Meta;
      Meta.Stratum = Info.Stratum;
      Meta.Relation = Info.Relation;
      Meta.Version = Info.Version;
      Meta.Recursive = Info.Recursive;
      Meta.Sips = Info.Sips;
      Meta.AtomOrder = Info.AtomOrder;
      Meta.ParGroup = CurrentParGroup;
      std::size_t Id = State.Prof.registerRule(Log.getLabel(), Meta);
      RelationWrapper *DeltaRel =
          Info.Target ? wrapper(*Info.Target) : nullptr;
      return std::make_unique<LogTimerNode>(&Stmt, Log.getLabel(), Id,
                                            DeltaRel, genStmt(Log.getBody()));
    }
    }
    unreachable("unknown statement kind");
  }

private:
  //===--------------------------------------------------------------------===
  // Search planning
  //===--------------------------------------------------------------------===

  struct SearchPlan {
    std::size_t IndexPos = 0;
    std::size_t PrefixLen = 0;
    std::uint32_t Mask = 0;
    bool NeedsEncode = false;
    /// Slots carry index-order positions (true) or source columns (false).
    bool SlotsInIndexOrder = false;
    const Order *Ord = nullptr;
  };

  SearchPlan planSearch(RelationWrapper *Rel,
                        const std::vector<ram::ExprPtr> &Pattern) {
    SearchPlan Plan;
    Plan.Mask = ram::searchSignature(Pattern);
    const auto &Info = Indexes.of(Rel->getDecl());
    if (Plan.Mask != 0) {
      auto It = Info.Placement.find(Plan.Mask);
      assert(It != Info.Placement.end() && "search was not planned");
      Plan.IndexPos = It->second.OrderIndex;
      Plan.PrefixLen = It->second.PrefixLength;
    }
    Plan.Ord = &Rel->getOrder(Plan.IndexPos);

    switch (Rel->getKind()) {
    case RelKind::Eqrel:
      // Served natively from the union-find; slots stay in source order.
      Plan.IndexPos = 0;
      Plan.SlotsInIndexOrder = false;
      Plan.NeedsEncode = false;
      break;
    case RelKind::Legacy:
      // The legacy relation expects keys in index order and permutes them
      // through its runtime comparator order itself.
      Plan.SlotsInIndexOrder = true;
      Plan.NeedsEncode = false;
      break;
    default:
      if (Options.StaticReordering) {
        Plan.SlotsInIndexOrder = true;
        Plan.NeedsEncode = false;
      } else {
        Plan.SlotsInIndexOrder = false;
        Plan.NeedsEncode = !Plan.Ord->isIdentity();
      }
      break;
    }
    return Plan;
  }

  /// Builds the super-instruction writing the bound pattern slots.
  SuperInstruction buildPatternSuper(const SearchPlan &Plan,
                                     const std::vector<ram::ExprPtr> &Pattern) {
    SuperInstruction Super;
    if (Plan.SlotsInIndexOrder) {
      for (std::size_t J = 0; J < Plan.PrefixLen; ++J) {
        const std::uint32_t SrcCol = Plan.Ord->column(J);
        addSlot(Super, static_cast<std::uint32_t>(J), *Pattern[SrcCol]);
      }
      return Super;
    }
    for (std::size_t Col = 0; Col < Pattern.size(); ++Col)
      if (Pattern[Col]->getKind() != ram::Expression::Kind::Undef)
        addSlot(Super, static_cast<std::uint32_t>(Col), *Pattern[Col]);
    return Super;
  }

  /// Builds the super-instruction for insert values (source order, all
  /// slots present).
  SuperInstruction buildValuesSuper(const std::vector<ram::ExprPtr> &Values) {
    SuperInstruction Super;
    for (std::size_t Col = 0; Col < Values.size(); ++Col)
      addSlot(Super, static_cast<std::uint32_t>(Col), *Values[Col]);
    return Super;
  }

  /// Classifies one slot writer: constant and tuple-element expressions are
  /// folded into the parent instruction (Section 4.4); everything else —
  /// and everything, when super-instructions are disabled — dispatches.
  void addSlot(SuperInstruction &Super, std::uint32_t Slot,
               const ram::Expression &Expr) {
    NodePtr Node = genExpr(Expr);
    if (Options.SuperInstructions) {
      if (Node->Type == NodeType::Constant) {
        Super.Constants.push_back(
            {Slot, static_cast<ConstantNode &>(*Node).Value});
        return;
      }
      if (Node->Type == NodeType::TupleElement) {
        auto &TE = static_cast<TupleElementNode &>(*Node);
        Super.TupleSources.push_back({Slot, TE.TupleId, TE.Element});
        return;
      }
    }
    Super.Generic.push_back({Slot, std::move(Node)});
  }

  //===--------------------------------------------------------------------===
  // Operations
  //===--------------------------------------------------------------------===

  NodeType opType(SpecOp Op, RelationWrapper *Rel) {
    // Legacy relations have no specialized instructions; they are always
    // driven through the virtual adapter.
    if (!Options.Specialize || Rel->getKind() == RelKind::Legacy)
      return genericType(Op);
    return specializedType(Op, Rel->getKind(), Rel->getArity());
  }

  NodePtr genOp(const ram::Operation &Op) {
    using K = ram::Operation::Kind;
    switch (Op.getKind()) {
    case K::Scan: {
      const auto &S = static_cast<const ram::Scan &>(Op);
      // Only the query root may carry the parallel marker; consume it
      // before generating the nested subtree.
      std::optional<std::size_t> Par = std::exchange(ParallelRootIds, {});
      RelationWrapper *Rel = wrapper(S.getRelation());
      const Order &Ord = Rel->getOrder(0);
      bool Decode = false;
      if (Rel->getKind() == RelKind::Btree ||
          Rel->getKind() == RelKind::Brie) {
        if (Options.StaticReordering) {
          if (!Ord.isIdentity())
            RewriteOrders[S.getTupleId()] = &Ord;
        } else {
          Decode = !Ord.isIdentity();
        }
      }
      NodePtr Nested = genOp(S.getNested());
      RewriteOrders.erase(S.getTupleId());
      if (Par)
        return std::make_unique<ParallelScanNode>(
            &Op, Rel, S.getTupleId(), /*IndexPos=*/0, Decode,
            std::move(Nested), *Par);
      return std::make_unique<ScanNode>(opType(SpecOp::Scan, Rel), &Op, Rel,
                                        S.getTupleId(), /*IndexPos=*/0,
                                        Decode, std::move(Nested));
    }
    case K::IndexScan: {
      const auto &S = static_cast<const ram::IndexScan &>(Op);
      std::optional<std::size_t> Par = std::exchange(ParallelRootIds, {});
      RelationWrapper *Rel = wrapper(S.getRelation());
      SearchPlan Plan = planSearch(Rel, S.getPattern());
      SuperInstruction Pattern = buildPatternSuper(Plan, S.getPattern());
      bool Decode = false;
      if (Rel->getKind() == RelKind::Btree ||
          Rel->getKind() == RelKind::Brie) {
        if (Options.StaticReordering) {
          if (!Plan.Ord->isIdentity())
            RewriteOrders[S.getTupleId()] = Plan.Ord;
        } else {
          Decode = !Plan.Ord->isIdentity();
        }
      }
      NodePtr Nested = genOp(S.getNested());
      RewriteOrders.erase(S.getTupleId());
      if (Par)
        return std::make_unique<ParallelIndexScanNode>(
            &Op, Rel, S.getTupleId(), std::move(Pattern), Plan.IndexPos,
            Plan.PrefixLen, Plan.Mask, Plan.NeedsEncode, Decode,
            std::move(Nested), *Par);
      return std::make_unique<IndexScanNode>(
          opType(SpecOp::IndexScan, Rel), &Op, Rel, S.getTupleId(),
          std::move(Pattern), Plan.IndexPos, Plan.PrefixLen, Plan.Mask,
          Plan.NeedsEncode, Decode, std::move(Nested));
    }
    case K::Filter: {
      const auto &F = static_cast<const ram::Filter &>(Op);
      NodePtr Cond = genCond(F.getCondition());
      return std::make_unique<FilterNode>(&Op, std::move(Cond),
                                          genOp(F.getNested()));
    }
    case K::Project: {
      const auto &P = static_cast<const ram::Project &>(Op);
      RelationWrapper *Rel = wrapper(P.getRelation());
      return std::make_unique<ProjectNode>(opType(SpecOp::Project, Rel),
                                           &Op, Rel,
                                           buildValuesSuper(P.getValues()));
    }
    case K::Aggregate: {
      const auto &A = static_cast<const ram::Aggregate &>(Op);
      RelationWrapper *Rel = wrapper(A.getRelation());
      SearchPlan Plan = planSearch(Rel, A.getPattern());
      SuperInstruction Pattern = buildPatternSuper(Plan, A.getPattern());
      bool Decode = false;
      if (Rel->getKind() == RelKind::Btree ||
          Rel->getKind() == RelKind::Brie) {
        if (Options.StaticReordering) {
          if (!Plan.Ord->isIdentity())
            RewriteOrders[A.getTupleId()] = Plan.Ord;
        } else {
          Decode = !Plan.Ord->isIdentity();
        }
      }
      // Target and condition see the scanned (possibly encoded) tuple.
      NodePtr Target =
          A.getTargetExpr() ? genExpr(*A.getTargetExpr()) : nullptr;
      NodePtr Cond = A.getCondition() ? genCond(*A.getCondition()) : nullptr;
      // The nested operation sees the one-cell result instead.
      RewriteOrders.erase(A.getTupleId());
      NodePtr Nested = genOp(A.getNested());
      return std::make_unique<AggregateNode>(
          opType(SpecOp::Aggregate, Rel), &Op, Rel, A.getFunc(),
          A.getTupleId(), std::move(Pattern), Plan.IndexPos, Plan.PrefixLen,
          Plan.Mask, Plan.NeedsEncode, Decode, std::move(Target),
          std::move(Cond), std::move(Nested));
    }
    }
    unreachable("unknown operation kind");
  }

  //===--------------------------------------------------------------------===
  // Conditions
  //===--------------------------------------------------------------------===

  NodePtr genCond(const ram::Condition &Cond) {
    if (Options.FuseConditions)
      if (NodePtr Fused = tryFuse(Cond))
        return Fused;
    using K = ram::Condition::Kind;
    switch (Cond.getKind()) {
    case K::True:
      return std::make_unique<TrueNode>(&Cond);
    case K::Conjunction: {
      // When the conjunction as a whole is not fusible (e.g. it carries an
      // existence check), recursing still fuses each maximal fusible
      // subtree on its own.
      const auto &C = static_cast<const ram::Conjunction &>(Cond);
      return std::make_unique<ConjunctionNode>(&Cond, genCond(C.getLhs()),
                                               genCond(C.getRhs()));
    }
    case K::Negation: {
      const auto &N = static_cast<const ram::Negation &>(Cond);
      return std::make_unique<NegationNode>(&Cond, genCond(N.getInner()));
    }
    case K::Constraint: {
      const auto &C = static_cast<const ram::Constraint &>(Cond);
      return std::make_unique<ConstraintNode>(
          &Cond, C.getOp(), genExpr(C.getLhs()), genExpr(C.getRhs()));
    }
    case K::EmptinessCheck: {
      const auto &E = static_cast<const ram::EmptinessCheck &>(Cond);
      return std::make_unique<EmptinessCheckNode>(&Cond,
                                                  wrapper(E.getRelation()));
    }
    case K::ExistenceCheck: {
      const auto &E = static_cast<const ram::ExistenceCheck &>(Cond);
      RelationWrapper *Rel = wrapper(E.getRelation());
      SearchPlan Plan = planSearch(Rel, E.getPattern());
      return std::make_unique<ExistenceNode>(
          opType(SpecOp::Existence, Rel), &Cond, Rel,
          buildPatternSuper(Plan, E.getPattern()), Plan.IndexPos,
          Plan.PrefixLen, Plan.Mask, Plan.NeedsEncode);
    }
    }
    unreachable("unknown condition kind");
  }

  //===--------------------------------------------------------------------===
  // Expressions
  //===--------------------------------------------------------------------===

  NodePtr genExpr(const ram::Expression &Expr) {
    using K = ram::Expression::Kind;
    switch (Expr.getKind()) {
    case K::Constant:
      return std::make_unique<ConstantNode>(
          &Expr, static_cast<const ram::Constant &>(Expr).getValue());
    case K::TupleElement: {
      const auto &TE = static_cast<const ram::TupleElement &>(Expr);
      std::uint32_t Element = TE.getElement();
      auto It = RewriteOrders.find(TE.getTupleId());
      if (It != RewriteOrders.end())
        Element = It->second->position(Element);
      return std::make_unique<TupleElementNode>(&Expr, TE.getTupleId(),
                                                Element);
    }
    case K::Intrinsic: {
      const auto &Op = static_cast<const ram::Intrinsic &>(Expr);
      std::vector<NodePtr> Args;
      for (const auto &Arg : Op.getArgs())
        Args.push_back(genExpr(*Arg));
      return std::make_unique<IntrinsicNode>(&Expr, Op.getOp(),
                                             std::move(Args));
    }
    case K::AutoIncrement:
      return std::make_unique<AutoIncrementNode>(&Expr);
    case K::Undef:
      unreachable("Undef must not be evaluated");
    }
    unreachable("unknown expression kind");
  }

  //===--------------------------------------------------------------------===
  // Condition fusion (Section 5.2)
  //===--------------------------------------------------------------------===

  /// Sentinel jump target patched to the program end after fusion.
  static constexpr std::uint32_t PendingJumpTarget = 0xFFFFFFFF;
  /// The static fusion rule: a condition is fused when its micro-program
  /// stands for at least this many more dispatches than the one the fused
  /// node costs. Two is what the smallest fusible condition (one
  /// comparison of two leaves) saves, so every fusible condition is fused:
  /// over the 13 fig15 programs, each larger floor (3 to 12) fused fewer
  /// conditions, left up to 1.7x the dispatches and ran no faster.
  static constexpr std::size_t MinSavedDispatches = 2;

  /// Attempts to compile \p Cond into a single fused-condition
  /// micro-program. Returns null if the tree contains non-fusible nodes
  /// (relation accesses, strings, floats) or saves too few dispatches.
  NodePtr tryFuse(const ram::Condition &Cond) {
    std::vector<MicroInst> Program;
    std::size_t Nodes = 0;
    if (!fuseCond(Cond, Program, Nodes))
      return nullptr;
    if (Nodes - 1 < MinSavedDispatches)
      return nullptr;
    // Patch the short-circuit jumps to the end of the program.
    for (MicroInst &Inst : Program)
      if (Inst.Kind == MicroInst::Op::JmpIfFalse &&
          Inst.B == PendingJumpTarget)
        Inst.B = static_cast<std::uint32_t>(Program.size());
    // Compute the maximum stack depth.
    std::size_t Depth = 0, MaxDepth = 0;
    for (const MicroInst &Inst : Program) {
      using Op = MicroInst::Op;
      if (Inst.Kind == Op::PushConst || Inst.Kind == Op::PushElem)
        ++Depth;
      else if (Inst.Kind == Op::Pop)
        --Depth;
      else if (Inst.Kind != Op::Neg && Inst.Kind != Op::BNot &&
               Inst.Kind != Op::LNot && Inst.Kind != Op::JmpIfFalse)
        --Depth;
      MaxDepth = std::max(MaxDepth, Depth);
    }
    if (MaxDepth > 32)
      return nullptr;
    return std::make_unique<FusedConditionNode>(&Cond, std::move(Program),
                                                MaxDepth);
  }

  bool fuseCond(const ram::Condition &Cond, std::vector<MicroInst> &Program,
                std::size_t &Nodes) {
    using K = ram::Condition::Kind;
    switch (Cond.getKind()) {
    case K::Conjunction: {
      // Short-circuit encoding: on a false left operand, jump over the
      // right operand (the false stays as the result). Jump targets are
      // patched to the end of the whole program by tryFuse.
      const auto &C = static_cast<const ram::Conjunction &>(Cond);
      if (!fuseCond(C.getLhs(), Program, Nodes))
        return false;
      Program.push_back({MicroInst::Op::JmpIfFalse, 0, PendingJumpTarget});
      Program.push_back({MicroInst::Op::Pop, 0, 0});
      if (!fuseCond(C.getRhs(), Program, Nodes))
        return false;
      ++Nodes;
      return true;
    }
    case K::Constraint: {
      const auto &C = static_cast<const ram::Constraint &>(Cond);
      MicroInst::Op CmpOp;
      using Op = MicroInst::Op;
      switch (C.getOp()) {
      case ram::CmpOp::Eq:
        CmpOp = Op::Eq;
        break;
      case ram::CmpOp::Ne:
        CmpOp = Op::Ne;
        break;
      case ram::CmpOp::Lt:
        CmpOp = Op::Lt;
        break;
      case ram::CmpOp::Le:
        CmpOp = Op::Le;
        break;
      case ram::CmpOp::Gt:
        CmpOp = Op::Gt;
        break;
      case ram::CmpOp::Ge:
        CmpOp = Op::Ge;
        break;
      case ram::CmpOp::ULt:
        CmpOp = Op::ULt;
        break;
      case ram::CmpOp::ULe:
        CmpOp = Op::ULe;
        break;
      case ram::CmpOp::UGt:
        CmpOp = Op::UGt;
        break;
      case ram::CmpOp::UGe:
        CmpOp = Op::UGe;
        break;
      default:
        return false; // float comparisons stay on the generic path
      }
      if (!fuseExpr(C.getLhs(), Program, Nodes) ||
          !fuseExpr(C.getRhs(), Program, Nodes))
        return false;
      Program.push_back({CmpOp, 0, 0});
      ++Nodes;
      return true;
    }
    default:
      return false;
    }
  }

  bool fuseExpr(const ram::Expression &Expr, std::vector<MicroInst> &Program,
                std::size_t &Nodes) {
    using K = ram::Expression::Kind;
    using Op = MicroInst::Op;
    switch (Expr.getKind()) {
    case K::Constant:
      Program.push_back(
          {Op::PushConst,
           static_cast<const ram::Constant &>(Expr).getValue(), 0});
      ++Nodes;
      return true;
    case K::TupleElement: {
      const auto &TE = static_cast<const ram::TupleElement &>(Expr);
      std::uint32_t Element = TE.getElement();
      auto It = RewriteOrders.find(TE.getTupleId());
      if (It != RewriteOrders.end())
        Element = It->second->position(Element);
      Program.push_back({Op::PushElem,
                         static_cast<RamDomain>(TE.getTupleId()), Element});
      ++Nodes;
      return true;
    }
    case K::Intrinsic: {
      const auto &In = static_cast<const ram::Intrinsic &>(Expr);
      Op MicroOp;
      bool Unary = false;
      switch (In.getOp()) {
      case ram::IntrinsicOp::Neg:
        MicroOp = Op::Neg;
        Unary = true;
        break;
      case ram::IntrinsicOp::BNot:
        MicroOp = Op::BNot;
        Unary = true;
        break;
      case ram::IntrinsicOp::LNot:
        MicroOp = Op::LNot;
        Unary = true;
        break;
      case ram::IntrinsicOp::Add:
        MicroOp = Op::Add;
        break;
      case ram::IntrinsicOp::Sub:
        MicroOp = Op::Sub;
        break;
      case ram::IntrinsicOp::Mul:
        MicroOp = Op::Mul;
        break;
      case ram::IntrinsicOp::Div:
        MicroOp = Op::Div;
        break;
      case ram::IntrinsicOp::Mod:
        MicroOp = Op::Mod;
        break;
      case ram::IntrinsicOp::Band:
        MicroOp = Op::Band;
        break;
      case ram::IntrinsicOp::Bor:
        MicroOp = Op::Bor;
        break;
      case ram::IntrinsicOp::Bxor:
        MicroOp = Op::Bxor;
        break;
      case ram::IntrinsicOp::Bshl:
        MicroOp = Op::Bshl;
        break;
      case ram::IntrinsicOp::Bshr:
        MicroOp = Op::Bshr;
        break;
      case ram::IntrinsicOp::UBshr:
        MicroOp = Op::UBshr;
        break;
      default:
        return false;
      }
      if (In.getArgs().size() != (Unary ? 1U : 2U))
        return false;
      for (const auto &Arg : In.getArgs())
        if (!fuseExpr(*Arg, Program, Nodes))
          return false;
      Program.push_back({MicroOp, 0, 0});
      ++Nodes;
      return true;
    }
    default:
      return false;
    }
  }

  //===--------------------------------------------------------------------===
  // Rule grouping (independent rules as concurrent jobs)
  //===--------------------------------------------------------------------===

  /// The rule body underneath a sequence statement, when the statement is
  /// a bare Query or a LogTimer wrapping one — the only two shapes rule
  /// grouping considers. Null for everything else (Clear, Swap, Merge,
  /// Io, Loop, nested Sequence), which terminates a group.
  static const ram::Operation *queryRootOf(const ram::Statement &Stmt) {
    using K = ram::Statement::Kind;
    if (Stmt.getKind() == K::Query)
      return &static_cast<const ram::Query &>(Stmt).getRoot();
    if (Stmt.getKind() == K::LogTimer) {
      const ram::Statement &Body =
          static_cast<const ram::LogTimer &>(Stmt).getBody();
      if (Body.getKind() == K::Query)
        return &static_cast<const ram::Query &>(Body).getRoot();
    }
    return nullptr;
  }

  /// True when rules \p A and \p B may run concurrently: neither writes a
  /// relation the other reads *or* writes. Write-write overlap is excluded
  /// too (unlike the per-scan check in shouldParallelize) so group members
  /// can insert directly into their targets with no merge step. Pointer
  /// identity on the ram::Relation objects, matching shouldParallelize.
  static bool independentRules(const QueryFootprint &A,
                               const QueryFootprint &B) {
    auto Touches = [](const QueryFootprint &F, const ram::Relation *Rel) {
      for (const ram::Relation *R : F.Reads)
        if (R == Rel)
          return true;
      for (const ram::Relation *W : F.Writes)
        if (W == Rel)
          return true;
      return false;
    };
    for (const ram::Relation *W : A.Writes)
      if (Touches(B, W))
        return false;
    for (const ram::Relation *W : B.Writes)
      for (const ram::Relation *R : A.Reads)
        if (W == R)
          return false;
    return true;
  }

  /// Greedily extends a contiguous run of pairwise independent rules
  /// starting at \p Begin; returns the exclusive end. Runs of length one
  /// mean "no group here" and the statement generates normally. Grouping
  /// stays contiguous: reordering across a non-rule statement (Swap,
  /// Clear, ...) could move a rule past a relation mutation it observes.
  std::size_t extendRuleGroup(const std::vector<ram::StmtPtr> &Stmts,
                              std::size_t Begin) {
    const ram::Operation *FirstRoot = queryRootOf(*Stmts[Begin]);
    if (!FirstRoot)
      return Begin + 1;
    std::vector<QueryFootprint> Group;
    Group.emplace_back();
    collectOp(*FirstRoot, Group.back());
    std::size_t End = Begin + 1;
    while (End < Stmts.size()) {
      const ram::Operation *Root = queryRootOf(*Stmts[End]);
      if (!Root)
        break;
      QueryFootprint F;
      collectOp(*Root, F);
      bool Compatible = true;
      for (const QueryFootprint &Member : Group)
        if (!independentRules(F, Member)) {
          Compatible = false;
          break;
        }
      if (!Compatible)
        break;
      Group.push_back(std::move(F));
      ++End;
    }
    return End;
  }

  /// A query's outermost scan may be partitioned when no relation it
  /// writes is also read anywhere in the same query. That is the whole
  /// analysis now:
  ///
  ///  * Expressions are always thread-safe — `$` is an atomic fetch-add
  ///    and the interning functors go through the concurrent SymbolTable.
  ///  * Equivalence relations may be read concurrently (atomic path
  ///    compression, locked cache refresh) and written through the same
  ///    per-worker buffers as every other relation kind: buffered pair
  ///    inserts are merged into the union-find at the barrier.
  ///
  /// The write/read disjointness check is exact per relation *object*, not
  /// per name, which is what admits the semi-naive shape: a recursive rule
  /// writes `new_R` while reading `delta_R` and the full `R` — three
  /// distinct ram::Relation objects — so buffering its inserts until the
  /// barrier is observably identical to direct insertion. A query whose
  /// reads genuinely include a relation it writes (its matches would
  /// depend on its own inserts) stays sequential.
  bool shouldParallelize(const ram::Operation &Root) {
    using K = ram::Operation::Kind;
    // Peel the guard filters the translator wraps around a rule body
    // (e.g. the non-emptiness check): their conditions run once on the
    // main thread, so the first scan underneath is still the query root.
    const ram::Operation *Op = &Root;
    while (Op->getKind() == K::Filter)
      Op = &static_cast<const ram::Filter *>(Op)->getNested();
    if (Op->getKind() != K::Scan && Op->getKind() != K::IndexScan)
      return false;
    QueryFootprint F;
    collectOp(Root, F);
    for (const ram::Relation *W : F.Writes)
      for (const ram::Relation *R : F.Reads)
        if (W == R)
          return false;
    return true;
  }

  RelationWrapper *wrapper(const ram::Relation &Rel) {
    auto It = State.Relations.find(Rel.getName());
    assert(It != State.Relations.end() && "relation was not materialized");
    return It->second.get();
  }

  const translate::IndexSelectionResult &Indexes;
  EngineState &State;
  const GeneratorOptions &Options;
  /// Per-query: tuple ids whose bound tuple is encoded, with the order to
  /// rewrite element accesses through (Section 4.2).
  std::unordered_map<std::uint32_t, const Order *> RewriteOrders;
  /// Set while generating the root operation of a parallelizable query:
  /// holds the query's NumTupleIds for the parallel node. Consumed by the
  /// first Scan / IndexScan so nested scans stay sequential.
  std::optional<std::size_t> ParallelRootIds;
  /// Id of the ParallelSequence group currently being generated (stamped
  /// into RuleMeta::ParGroup by the LogTimer case); -1 outside a group.
  int CurrentParGroup = -1;
  int NextParGroup = 0;
};

} // namespace

NodePtr stird::interp::generateTree(
    const ram::Program &Prog, const translate::IndexSelectionResult &Indexes,
    EngineState &State, const GeneratorOptions &Options) {
  TreeGenerator Gen(Indexes, State, Options);
  return Gen.genStmt(Prog.getMain());
}

NodePtr stird::interp::generateTree(
    const ram::Statement &Root,
    const translate::IndexSelectionResult &Indexes, EngineState &State,
    const GeneratorOptions &Options) {
  TreeGenerator Gen(Indexes, State, Options);
  return Gen.genStmt(Root);
}
