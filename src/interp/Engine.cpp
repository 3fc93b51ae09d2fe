//===- interp/Engine.cpp - Interpreter engine facade -------------------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//

#include "interp/Engine.h"

#include "interp/Generator.h"
#include "interp/NodePrinter.h"
#include "interp/Parallel.h"
#include "interp/Scheduler.h"
#include "obs/Trace.h"
#include "util/Csv.h"
#include "util/MiscUtil.h"

#include <algorithm>
#include <cstdio>
#include <fstream>

using namespace stird;
using namespace stird::interp;

EngineState::EngineState(SymbolTable &Symbols) : Symbols(Symbols) {}
EngineState::~EngineState() = default;

void EngineState::executeIo(const IoNode &Node) {
  const ram::Relation &Decl = Node.Rel->getDecl();
  switch (Node.Direction) {
  case ram::Io::Direction::Load: {
    if (SuppressIo)
      return;
    std::string Path = Decl.getInputPath().empty()
                           ? Decl.getName() + ".facts"
                           : Decl.getInputPath();
    Path = FactDir + "/" + Path;
    // A missing file is still fatal (the program demanded the input);
    // malformed rows are skipped and reported via IoErrors.
    std::ifstream In(Path);
    if (!In)
      fatal("cannot open fact file '" + Path + "'");
    for (const DynTuple &Tuple :
         readFactStream(In, Decl.getColumnTypes(), Symbols, &IoErrors, Path))
      Node.Rel->insert(Tuple.data());
    return;
  }
  case ram::Io::Direction::Store: {
    if (SuppressIo)
      return;
    std::string Path = Decl.getOutputPath().empty()
                           ? Decl.getName() + ".csv"
                           : Decl.getOutputPath();
    Path = OutputDir + "/" + Path;
    std::vector<DynTuple> Tuples;
    Node.Rel->forEach([&](const RamDomain *Tuple) {
      Tuples.emplace_back(Tuple, Tuple + Decl.getArity());
    });
    std::sort(Tuples.begin(), Tuples.end());
    writeFactFile(Path, Decl.getColumnTypes(), Symbols, Tuples);
    return;
  }
  case ram::Io::Direction::PrintSize: {
    PrintSizes.emplace_back(Decl.getName(), Node.Rel->size());
    if (EchoPrintSize)
      std::printf("%s\t%zu\n", Decl.getName().c_str(), Node.Rel->size());
    return;
  }
  }
  unreachable("unknown io direction");
}

Engine::Engine(const ram::Program &Prog,
               const translate::IndexSelectionResult &Indexes,
               SymbolTable &Symbols, EngineOptions Options)
    : Prog(Prog), Indexes(Indexes), Options(Options), State(Symbols) {
  State.FactDir = Options.FactDir;
  State.OutputDir = Options.OutputDir;
  State.EchoPrintSize = Options.EchoPrintSize;
  State.SuppressIo = Options.SuppressIo;
  State.NumThreads = Options.NumThreads > 0 ? Options.NumThreads : 1;
  if (Options.MorselSize > 0)
    State.MorselSize = Options.MorselSize;
  if (State.NumThreads > 1) {
    // Adopt the program-shared scheduler when its pool matches -jN, else
    // own a private one (engines constructed directly, tests).
    if (Options.Sched && Options.Sched->numThreads() == State.NumThreads)
      State.Sched = Options.Sched;
    else
      State.Sched = std::make_shared<Scheduler>(State.NumThreads);
  }
  if (Options.TheBackend == Backend::Legacy)
    State.StreamBufferCapacity = 1;

  const bool Legacy = Options.TheBackend == Backend::Legacy;
  for (const auto &Rel : Prog.getRelations()) {
    std::vector<Order> Orders;
    for (const auto &Columns : Rel->getOrders())
      Orders.push_back(Order(Columns));
    // The legacy interpreter's weakness is the runtime comparator of its
    // B-trees; equivalence relations keep their union-find structure (as
    // in historical Soufflé), since a plain B-tree would lose the closure
    // semantics.
    const bool UseLegacy =
        Legacy && Rel->getStructure() != ram::StructureKind::Eqrel;
    State.Relations.emplace(
        Rel->getName(), createRelation(*Rel, std::move(Orders), UseLegacy));
  }

  // Observability: assign dense stats ids in declaration order (stable
  // across runs and engines for the same RAM program) and size the engine
  // counter block to match.
  State.CollectStats = Options.CollectStats;
  for (const auto &Rel : Prog.getRelations()) {
    RelationWrapper *Wrapper = State.Relations.at(Rel->getName()).get();
    Wrapper->setStatsId(State.StatsRelations.size());
    State.StatsRelations.push_back(Wrapper);
  }
  State.Stats.resize(State.StatsRelations.size());
  if (Options.EnableTrace) {
    TraceRec = std::make_unique<obs::TraceRecorder>();
    State.Trace = TraceRec.get();
  }
}

Engine::~Engine() = default;

/// Generation options implied by the configured backend.
static GeneratorOptions generatorOptions(const EngineOptions &Options) {
  GeneratorOptions Gen;
  Gen.SuperInstructions = Options.SuperInstructions;
  Gen.StaticReordering = Options.StaticReordering;
  Gen.FuseConditions = Options.FuseConditions;
  Gen.NumThreads = Options.NumThreads > 0 ? Options.NumThreads : 1;
  switch (Options.TheBackend) {
  case Backend::StaticLambda:
  case Backend::StaticPlain:
    Gen.Specialize = true;
    break;
  case Backend::DynamicAdapter:
    Gen.Specialize = false;
    break;
  case Backend::Legacy:
    // The legacy interpreter predates every STI optimization.
    Gen.Specialize = false;
    Gen.SuperInstructions = false;
    Gen.StaticReordering = false;
    Gen.FuseConditions = false;
    break;
  }
  return Gen;
}

std::string Engine::dumpTree() {
  NodePtr Tree = generateTree(Prog, Indexes, State, generatorOptions(Options));
  return printTree(*Tree);
}

ExecutorBase &Engine::ensureExecutor() {
  if (Executor)
    return *Executor;
  switch (Options.TheBackend) {
  case Backend::StaticLambda:
    Executor = createStaticExecutorLambda(State);
    break;
  case Backend::StaticPlain:
    Executor = createStaticExecutorPlain(State);
    break;
  case Backend::DynamicAdapter:
  case Backend::Legacy:
    Executor = createDynamicExecutor(State);
    break;
  }
  return *Executor;
}

void Engine::run() {
  // Interpreter-tree generation counts as execution time, exactly as in
  // the paper's measurements (it explains the specrand outlier).
  if (State.Trace)
    State.Trace->begin("generate tree");
  Root = generateTree(Prog, Indexes, State, generatorOptions(Options));
  if (State.Trace)
    State.Trace->end();

  ExecutorBase &Exec = ensureExecutor();
  if (State.Trace)
    State.Trace->begin("execute");
  Exec.run(*Root);
  if (State.Trace)
    State.Trace->end();

  // Final sizes are also cardinality peaks (Clear/Swap record the peaks of
  // relations that shrink mid-run).
  if (State.CollectStats)
    for (std::size_t I = 0; I < State.StatsRelations.size(); ++I)
      State.Stats[I].notePeak(State.StatsRelations[I]->size());
}

ExecutorBase &Engine::ensureMaintExecutor() {
  switch (Options.TheBackend) {
  case Backend::DynamicAdapter:
  case Backend::Legacy:
    // Already the dynamic-adapter executor; share it (and its stream
    // buffer sizing).
    return ensureExecutor();
  case Backend::StaticLambda:
  case Backend::StaticPlain:
    break;
  }
  if (!MaintExecutor)
    MaintExecutor = createDynamicExecutor(State);
  return *MaintExecutor;
}

void Engine::runStatement(const ram::Statement &Stmt) {
  NodePtr &Tree = StmtTrees[&Stmt];
  if (!Tree) {
    // Force the de-specialized opcodes: the dynamic-adapter executor is
    // the only one that carries the generic operations and the
    // maintenance statements, and it drives any relation kind — including
    // the specialized structures of a static backend — through the
    // virtual RelationWrapper interface.
    GeneratorOptions Gen = generatorOptions(Options);
    Gen.Specialize = false;
    Tree = generateTree(Stmt, Indexes, State, Gen);
  }
  ExecutorBase &Exec = ensureMaintExecutor();
  Exec.run(*Tree);
  if (State.CollectStats)
    for (std::size_t I = 0; I < State.StatsRelations.size(); ++I)
      State.Stats[I].notePeak(State.StatsRelations[I]->size());
}

RelationWrapper *Engine::getRelation(const std::string &Name) {
  auto It = State.Relations.find(Name);
  return It == State.Relations.end() ? nullptr : It->second.get();
}

const RelationWrapper *Engine::getRelation(const std::string &Name) const {
  auto It = State.Relations.find(Name);
  return It == State.Relations.end() ? nullptr : It->second.get();
}

void Engine::insertTuples(const std::string &Name,
                          const std::vector<DynTuple> &Tuples) {
  RelationWrapper *Rel = getRelation(Name);
  if (!Rel)
    fatal("unknown relation '" + Name + "'");
  for (const DynTuple &Tuple : Tuples) {
    assert(Tuple.size() == Rel->getArity() && "tuple arity mismatch");
    Rel->insert(Tuple.data());
  }
}

std::vector<DynTuple> Engine::getTuples(const std::string &Name) const {
  const RelationWrapper *Rel = getRelation(Name);
  if (!Rel)
    fatal("unknown relation '" + Name + "'");
  std::vector<DynTuple> Tuples;
  Rel->forEach([&](const RamDomain *Tuple) {
    Tuples.emplace_back(Tuple, Tuple + Rel->getArity());
  });
  std::sort(Tuples.begin(), Tuples.end());
  return Tuples;
}
