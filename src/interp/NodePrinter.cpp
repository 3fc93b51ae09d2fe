//===- interp/NodePrinter.cpp - Interpreter-tree dump -------------------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//

#include "interp/NodePrinter.h"

#include "util/MiscUtil.h"

#include <sstream>

using namespace stird;
using namespace stird::interp;

const char *stird::interp::nodeTypeName(NodeType Type) {
  switch (Type) {
  case NodeType::Constant:
    return "Constant";
  case NodeType::TupleElement:
    return "TupleElement";
  case NodeType::Intrinsic:
    return "Intrinsic";
  case NodeType::AutoIncrement:
    return "AutoIncrement";
  case NodeType::True:
    return "True";
  case NodeType::Conjunction:
    return "Conjunction";
  case NodeType::Negation:
    return "Negation";
  case NodeType::Constraint:
    return "Constraint";
  case NodeType::FusedCondition:
    return "FusedCondition";
  case NodeType::EmptinessCheck:
    return "EmptinessCheck";
  case NodeType::GenericExistence:
    return "GenericExistence";
  case NodeType::GenericScan:
    return "GenericScan";
  case NodeType::GenericIndexScan:
    return "GenericIndexScan";
  case NodeType::ParallelScan:
    return "ParallelScan";
  case NodeType::ParallelIndexScan:
    return "ParallelIndexScan";
  case NodeType::Filter:
    return "Filter";
  case NodeType::GenericProject:
    return "GenericProject";
  case NodeType::GenericAggregate:
    return "GenericAggregate";
  case NodeType::Sequence:
    return "Sequence";
  case NodeType::ParallelSequence:
    return "ParallelSequence";
  case NodeType::Loop:
    return "Loop";
  case NodeType::Exit:
    return "Exit";
  case NodeType::Query:
    return "Query";
  case NodeType::Clear:
    return "Clear";
  case NodeType::SwapRel:
    return "SwapRel";
  case NodeType::Merge:
    return "Merge";
  case NodeType::EraseRel:
    return "EraseRel";
  case NodeType::Subtract:
    return "Subtract";
  case NodeType::Io:
    return "Io";
  case NodeType::LogTimer:
    return "LogTimer";
#define STIRD_NODE_NAME_CASE(Structure, Arity)                                \
  case NodeType::Scan_##Structure##_##Arity:                                  \
    return "Scan_" #Structure "_" #Arity;                                     \
  case NodeType::IndexScan_##Structure##_##Arity:                             \
    return "IndexScan_" #Structure "_" #Arity;                                \
  case NodeType::Project_##Structure##_##Arity:                               \
    return "Project_" #Structure "_" #Arity;                                  \
  case NodeType::Existence_##Structure##_##Arity:                             \
    return "Existence_" #Structure "_" #Arity;                                \
  case NodeType::Aggregate_##Structure##_##Arity:                             \
    return "Aggregate_" #Structure "_" #Arity;
    STIRD_FOR_EACH(STIRD_NODE_NAME_CASE)
#undef STIRD_NODE_NAME_CASE
  }
  unreachable("unknown node type");
}

namespace {

class TreePrinter {
public:
  explicit TreePrinter(std::ostringstream &Out) : Out(Out) {}

  void print(const Node &N) {
    indent();
    Out << nodeTypeName(N.Type);
    describe(N);
    Out << "\n";
    ++Depth;
    children(N);
    --Depth;
  }

private:
  void indent() {
    for (int I = 0; I < Depth; ++I)
      Out << "  ";
  }

  void printSuper(const SuperInstruction &Super) {
    Out << " slots{";
    bool First = true;
    for (const auto &C : Super.Constants) {
      Out << (First ? "" : " ") << C.Slot << "=const:" << C.Value;
      First = false;
    }
    for (const auto &T : Super.TupleSources) {
      Out << (First ? "" : " ") << T.Slot << "=t" << T.TupleId << "."
          << T.Element;
      First = false;
    }
    for (const auto &G : Super.Generic) {
      Out << (First ? "" : " ") << G.Slot << "=expr";
      First = false;
    }
    Out << "}";
  }

  void describe(const Node &N) {
    switch (N.Type) {
    case NodeType::Constant:
      Out << " " << static_cast<const ConstantNode &>(N).Value;
      return;
    case NodeType::TupleElement: {
      const auto &TE = static_cast<const TupleElementNode &>(N);
      Out << " t" << TE.TupleId << "." << TE.Element;
      return;
    }
    case NodeType::FusedCondition:
      Out << " ["
          << static_cast<const FusedConditionNode &>(N).Program.size()
          << " micro-ops]";
      return;
    case NodeType::LogTimer:
      Out << " \"" << static_cast<const LogTimerNode &>(N).Label << "\"";
      return;
    case NodeType::Query:
      Out << " tuples=" << static_cast<const QueryNode &>(N).NumTupleIds;
      return;
    default:
      break;
    }
    if (const auto *Rel = dynamic_cast<const RelationalNode *>(&N))
      Out << " rel=" << Rel->Rel->getName();
    if (const auto *E = dynamic_cast<const EraseNode *>(&N))
      Out << " from=" << E->Destination->getName();
    if (const auto *S = dynamic_cast<const SubtractNode *>(&N))
      Out << " without=" << S->Filter->getName()
          << " into=" << S->Destination->getName();
    if (const auto *Scan = dynamic_cast<const ScanNode *>(&N))
      Out << " index=" << Scan->IndexPos << " t" << Scan->TupleId
          << (Scan->Decode ? " decode" : "");
    if (const auto *Scan = dynamic_cast<const IndexScanNode *>(&N)) {
      Out << " index=" << Scan->IndexPos << " prefix=" << Scan->PrefixLen
          << " t" << Scan->TupleId
          << (Scan->NeedsEncode ? " encode" : "")
          << (Scan->Decode ? " decode" : "");
      printSuper(Scan->Pattern);
    }
    if (const auto *Exist = dynamic_cast<const ExistenceNode *>(&N)) {
      Out << " index=" << Exist->IndexPos << " prefix=" << Exist->PrefixLen;
      printSuper(Exist->Pattern);
    }
    if (const auto *Project = dynamic_cast<const ProjectNode *>(&N))
      printSuper(Project->Values);
  }

  void children(const Node &N) {
    if (const auto *Seq = dynamic_cast<const SequenceNode *>(&N)) {
      for (const auto &Child : Seq->Children)
        print(*Child);
      return;
    }
    if (const auto *L = dynamic_cast<const LoopNode *>(&N)) {
      print(*L->Body);
      return;
    }
    if (const auto *E = dynamic_cast<const ExitNode *>(&N)) {
      print(*E->Cond);
      return;
    }
    if (const auto *Q = dynamic_cast<const QueryNode *>(&N)) {
      print(*Q->Root);
      return;
    }
    if (const auto *Log = dynamic_cast<const LogTimerNode *>(&N)) {
      print(*Log->Body);
      return;
    }
    if (const auto *F = dynamic_cast<const FilterNode *>(&N)) {
      print(*F->Cond);
      print(*F->Nested);
      return;
    }
    if (const auto *C = dynamic_cast<const ConjunctionNode *>(&N)) {
      print(*C->Lhs);
      print(*C->Rhs);
      return;
    }
    if (const auto *Neg = dynamic_cast<const NegationNode *>(&N)) {
      print(*Neg->Inner);
      return;
    }
    if (const auto *Con = dynamic_cast<const ConstraintNode *>(&N)) {
      print(*Con->Lhs);
      print(*Con->Rhs);
      return;
    }
    if (const auto *Op = dynamic_cast<const IntrinsicNode *>(&N)) {
      for (const auto &Arg : Op->Args)
        print(*Arg);
      return;
    }
    if (const auto *Scan = dynamic_cast<const ScanNode *>(&N)) {
      print(*Scan->Nested);
      return;
    }
    if (const auto *Scan = dynamic_cast<const IndexScanNode *>(&N)) {
      for (const auto &G : Scan->Pattern.Generic)
        print(*G.Expr);
      print(*Scan->Nested);
      return;
    }
    if (const auto *Exist = dynamic_cast<const ExistenceNode *>(&N)) {
      for (const auto &G : Exist->Pattern.Generic)
        print(*G.Expr);
      return;
    }
    if (const auto *Project = dynamic_cast<const ProjectNode *>(&N)) {
      for (const auto &G : Project->Values.Generic)
        print(*G.Expr);
      return;
    }
    if (const auto *Agg = dynamic_cast<const AggregateNode *>(&N)) {
      for (const auto &G : Agg->Pattern.Generic)
        print(*G.Expr);
      if (Agg->Cond)
        print(*Agg->Cond);
      if (Agg->Target)
        print(*Agg->Target);
      print(*Agg->Nested);
      return;
    }
  }

  std::ostringstream &Out;
  int Depth = 0;
};

} // namespace

std::string stird::interp::printTree(const Node &Root) {
  std::ostringstream Out;
  TreePrinter(Out).print(Root);
  return Out.str();
}
