//===- translate/IndexSelection.cpp - Automatic index selection -------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//

#include "translate/IndexSelection.h"

#include "util/MiscUtil.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <map>
#include <set>

using namespace stird;
using namespace stird::translate;
using namespace stird::ram;

namespace {

/// Maximum bipartite matching via Kuhn's augmenting paths. Adj[U] lists the
/// right-side nodes reachable from left node U. Returns MatchLeft where
/// MatchLeft[U] is the matched right node or -1.
std::vector<int> maximumMatching(const std::vector<std::vector<int>> &Adj,
                                 std::size_t NumRight) {
  const std::size_t NumLeft = Adj.size();
  std::vector<int> MatchLeft(NumLeft, -1), MatchRight(NumRight, -1);
  std::vector<bool> Visited;

  std::function<bool(int)> TryAugment = [&](int U) -> bool {
    for (int V : Adj[U]) {
      if (Visited[V])
        continue;
      Visited[V] = true;
      if (MatchRight[V] == -1 || TryAugment(MatchRight[V])) {
        MatchLeft[U] = V;
        MatchRight[V] = U;
        return true;
      }
    }
    return false;
  };

  for (std::size_t U = 0; U < NumLeft; ++U) {
    Visited.assign(NumRight, false);
    TryAugment(static_cast<int>(U));
  }
  return MatchLeft;
}

/// Appends the columns of \p Mask (ascending) to \p Order if not yet
/// present.
void appendColumns(std::uint32_t Mask, std::vector<std::uint32_t> &Order,
                   std::uint32_t &Used) {
  for (std::uint32_t Col = 0; Col < 32; ++Col) {
    const std::uint32_t Bit = 1U << Col;
    if ((Mask & Bit) && !(Used & Bit)) {
      Order.push_back(Col);
      Used |= Bit;
    }
  }
}

/// Collects search signatures from every primitive search in a statement
/// tree into \p Searches.
class SearchCollector {
public:
  explicit SearchCollector(
      std::map<const Relation *, std::set<std::uint32_t>> &Searches)
      : Searches(Searches) {}

  void visitStmt(const Statement &Stmt) {
    switch (Stmt.getKind()) {
    case Statement::Kind::Sequence:
      for (const auto &Child :
           static_cast<const Sequence &>(Stmt).getStatements())
        visitStmt(*Child);
      return;
    case Statement::Kind::Loop:
      visitStmt(static_cast<const Loop &>(Stmt).getBody());
      return;
    case Statement::Kind::Exit:
      visitCond(static_cast<const Exit &>(Stmt).getCondition());
      return;
    case Statement::Kind::Query:
      visitOp(static_cast<const Query &>(Stmt).getRoot());
      return;
    case Statement::Kind::LogTimer:
      visitStmt(static_cast<const LogTimer &>(Stmt).getBody());
      return;
    case Statement::Kind::Clear:
    case Statement::Kind::Swap:
    case Statement::Kind::MergeInto:
    case Statement::Kind::Erase:
    case Statement::Kind::SubtractInto:
    case Statement::Kind::FoldCounts:
    case Statement::Kind::Io:
      // Bulk statements enumerate via full scans and full-tuple
      // membership only; no primitive searches to serve.
      return;
    }
  }

  void visitOp(const Operation &Op) {
    switch (Op.getKind()) {
    case Operation::Kind::Scan:
      visitOp(static_cast<const Scan &>(Op).getNested());
      return;
    case Operation::Kind::IndexScan: {
      const auto &S = static_cast<const IndexScan &>(Op);
      addSearch(S.getRelation(), searchSignature(S.getPattern()));
      for (const auto &Col : S.getPattern())
        visitExpr(*Col);
      visitOp(S.getNested());
      return;
    }
    case Operation::Kind::Filter: {
      const auto &F = static_cast<const Filter &>(Op);
      visitCond(F.getCondition());
      visitOp(F.getNested());
      return;
    }
    case Operation::Kind::Project: {
      for (const auto &Val :
           static_cast<const Project &>(Op).getValues())
        visitExpr(*Val);
      return;
    }
    case Operation::Kind::Aggregate: {
      const auto &A = static_cast<const Aggregate &>(Op);
      addSearch(A.getRelation(), searchSignature(A.getPattern()));
      for (const auto &Col : A.getPattern())
        visitExpr(*Col);
      if (A.getTargetExpr())
        visitExpr(*A.getTargetExpr());
      visitOp(A.getNested());
      return;
    }
    }
  }

  void visitCond(const Condition &Cond) {
    switch (Cond.getKind()) {
    case Condition::Kind::Conjunction: {
      const auto &C = static_cast<const Conjunction &>(Cond);
      visitCond(C.getLhs());
      visitCond(C.getRhs());
      return;
    }
    case Condition::Kind::Negation:
      visitCond(static_cast<const Negation &>(Cond).getInner());
      return;
    case Condition::Kind::Constraint: {
      const auto &C = static_cast<const Constraint &>(Cond);
      visitExpr(C.getLhs());
      visitExpr(C.getRhs());
      return;
    }
    case Condition::Kind::ExistenceCheck: {
      const auto &C = static_cast<const ExistenceCheck &>(Cond);
      addSearch(C.getRelation(), searchSignature(C.getPattern()));
      for (const auto &Col : C.getPattern())
        visitExpr(*Col);
      return;
    }
    case Condition::Kind::True:
    case Condition::Kind::EmptinessCheck:
      return;
    }
  }

  void visitExpr(const Expression &Expr) {
    if (Expr.getKind() == Expression::Kind::Intrinsic)
      for (const auto &Arg : static_cast<const Intrinsic &>(Expr).getArgs())
        visitExpr(*Arg);
  }

private:
  void addSearch(const Relation &Rel, std::uint32_t Signature) {
    if (Signature != 0)
      Searches[&Rel].insert(Signature);
  }

  std::map<const Relation *, std::set<std::uint32_t>> &Searches;
};

} // namespace

RelationIndexInfo
stird::translate::computeIndexes(const std::vector<std::uint32_t> &Signatures,
                                 std::size_t Arity) {
  RelationIndexInfo Info;

  // Deduplicate and drop the empty signature (served by any index).
  std::vector<std::uint32_t> Sigs;
  for (std::uint32_t Sig : Signatures)
    if (Sig != 0 &&
        std::find(Sigs.begin(), Sigs.end(), Sig) == Sigs.end())
      Sigs.push_back(Sig);
  // Sorting by popcount (then value) makes every containment edge point
  // forward, which both directs the DAG and stabilizes the output.
  std::sort(Sigs.begin(), Sigs.end(), [](std::uint32_t A, std::uint32_t B) {
    const int PopA = std::popcount(A), PopB = std::popcount(B);
    return PopA != PopB ? PopA < PopB : A < B;
  });

  const std::size_t N = Sigs.size();
  std::vector<std::vector<int>> Adj(N);
  for (std::size_t U = 0; U < N; ++U)
    for (std::size_t V = 0; V < N; ++V)
      if (U != V && (Sigs[U] & Sigs[V]) == Sigs[U] && Sigs[U] != Sigs[V])
        Adj[U].push_back(static_cast<int>(V));

  std::vector<int> Next = maximumMatching(Adj, N);
  std::vector<bool> HasPredecessor(N, false);
  for (std::size_t U = 0; U < N; ++U)
    if (Next[U] != -1)
      HasPredecessor[static_cast<std::size_t>(Next[U])] = true;

  // Materialize each chain head-to-tail into one order.
  for (std::size_t Head = 0; Head < N; ++Head) {
    if (HasPredecessor[Head])
      continue;
    std::vector<std::uint32_t> Order;
    std::uint32_t Used = 0;
    int Cur = static_cast<int>(Head);
    while (Cur != -1) {
      const std::uint32_t Sig = Sigs[static_cast<std::size_t>(Cur)];
      appendColumns(Sig, Order, Used);
      Info.Placement[Sig] = {Info.Orders.size(),
                             static_cast<std::size_t>(std::popcount(Sig))};
      Cur = Next[static_cast<std::size_t>(Cur)];
    }
    appendColumns((Arity >= 32 ? ~0U : (1U << Arity) - 1), Order, Used);
    Info.Orders.push_back(std::move(Order));
  }

  // Every relation needs at least one order for full scans and inserts.
  if (Info.Orders.empty()) {
    std::vector<std::uint32_t> Natural(Arity);
    for (std::size_t I = 0; I < Arity; ++I)
      Natural[I] = static_cast<std::uint32_t>(I);
    Info.Orders.push_back(std::move(Natural));
  }
  return Info;
}

IndexSelectionResult stird::translate::selectIndexes(ram::Program &Prog) {
  std::map<const Relation *, std::set<std::uint32_t>> Searches;
  SearchCollector Collector(Searches);
  if (Prog.hasMain())
    Collector.visitStmt(Prog.getMain());
  // The maintenance programs run over the same relations: their signed
  // delta versions search the ins_/del_/rederive_ aux relations with bound
  // patterns, and those searches must be index-served too.
  for (const auto &S : Prog.getMaintStrata())
    if (S.Stmt)
      Collector.visitStmt(*S.Stmt);
  if (const Statement *CountInit = Prog.getCountInit())
    Collector.visitStmt(*CountInit);
  if (const Statement *Prologue = Prog.getMaintPrologue())
    Collector.visitStmt(*Prologue);

  // Union-find over relations connected by Swap statements: swapped
  // relations must agree on their physical index layout.
  std::unordered_map<const Relation *, const Relation *> Leader;
  for (const auto &Rel : Prog.getRelations())
    Leader[Rel.get()] = Rel.get();
  std::function<const Relation *(const Relation *)> Find =
      [&](const Relation *R) -> const Relation * {
    while (Leader[R] != R)
      R = Leader[R] = Leader[Leader[R]];
    return R;
  };
  std::function<void(const Statement &)> FindSwaps =
      [&](const Statement &Stmt) {
        switch (Stmt.getKind()) {
        case Statement::Kind::Sequence:
          for (const auto &Child :
               static_cast<const Sequence &>(Stmt).getStatements())
            FindSwaps(*Child);
          return;
        case Statement::Kind::Loop:
          FindSwaps(static_cast<const Loop &>(Stmt).getBody());
          return;
        case Statement::Kind::LogTimer:
          FindSwaps(static_cast<const LogTimer &>(Stmt).getBody());
          return;
        case Statement::Kind::Swap: {
          const auto &S = static_cast<const Swap &>(Stmt);
          Leader[Find(&S.getFirst())] = Find(&S.getSecond());
          return;
        }
        default:
          return;
        }
      };
  if (Prog.hasMain())
    FindSwaps(Prog.getMain());
  for (const auto &S : Prog.getMaintStrata())
    if (S.Stmt)
      FindSwaps(*S.Stmt);

  // Merge search sets per swap group.
  std::map<const Relation *, std::set<std::uint32_t>> GroupSearches;
  for (const auto &Rel : Prog.getRelations()) {
    auto &Set = GroupSearches[Find(Rel.get())];
    auto It = Searches.find(Rel.get());
    if (It != Searches.end())
      Set.insert(It->second.begin(), It->second.end());
  }

  IndexSelectionResult Result;
  for (auto &Rel : Prog.getRelations()) {
    const Relation *Group = Find(Rel.get());
    const auto &Set = GroupSearches[Group];
    std::vector<std::uint32_t> Sigs(Set.begin(), Set.end());
    RelationIndexInfo Info = computeIndexes(Sigs, Rel->getArity());
    if (Rel->getStructure() == StructureKind::Eqrel) {
      // The equivalence relation serves every search natively from the
      // union-find; it keeps a single natural order.
      Info.Orders.assign(1, {0, 1});
      for (auto &Entry : Info.Placement) {
        Entry.second.OrderIndex = 0;
        Entry.second.PrefixLength =
            static_cast<std::size_t>(std::popcount(Entry.first));
      }
    }
    Rel->setOrders(Info.Orders);
    Result.Info.emplace(Rel.get(), std::move(Info));
  }
  return Result;
}
