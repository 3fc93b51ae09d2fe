//===- interp/Engine.h - Interpreter engines --------------------*- C++ -*-===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The interpreter engine facade. One Engine owns the runtime relations,
/// generates the interpreter tree from a RAM program, and executes it with
/// one of four executors:
///
///  * StaticLambda — the STI: specialized instructions, with the
///    register-pressure lambda-CASE trick of Section 4.3 enabled;
///  * StaticPlain — the STI compiled without the lambda trick (the
///    Section 5.5 register-pressure ablation);
///  * DynamicAdapter — the de-specialized virtual-adapter interpreter with
///    buffered iterators (the Fig 18 baseline);
///  * Legacy — the pre-STI interpreter with runtime-order comparators
///    (Section 5.1).
///
//===----------------------------------------------------------------------===//

#ifndef STIRD_INTERP_ENGINE_H
#define STIRD_INTERP_ENGINE_H

#include "interp/Node.h"
#include "interp/Profiler.h"
#include "interp/Relation.h"
#include "obs/Stats.h"
#include "ram/Ram.h"
#include "translate/IndexSelection.h"
#include "util/SymbolTable.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace stird::obs {
class TraceRecorder;
} // namespace stird::obs

namespace stird::interp {

class Scheduler;

/// Which executor runs the interpreter tree.
enum class Backend {
  StaticLambda,
  StaticPlain,
  DynamicAdapter,
  Legacy,
};

/// Engine configuration. The optimization toggles map one-to-one onto the
/// paper's ablation experiments.
struct EngineOptions {
  Backend TheBackend = Backend::StaticLambda;
  /// Section 4.4 super-instructions (Fig 19 ablation).
  bool SuperInstructions = true;
  /// Section 4.2 static tuple reordering (Section 5.5 ablation).
  bool StaticReordering = true;
  /// Section 5.2 hand-crafted fused-condition super-instructions.
  bool FuseConditions = false;
  /// Directory searched for .input fact files.
  std::string FactDir = ".";
  /// Directory receiving .output files.
  std::string OutputDir = ".";
  /// Echo .printsize results on stdout (they are always recorded in
  /// EngineState::PrintSizes); benchmarks switch this off.
  bool EchoPrintSize = true;
  /// Evaluation threads: eligible outermost scans are cut into morsels
  /// executed by a work-stealing scheduler (task-local contexts, per-morsel
  /// insert buffers merged at a barrier), and independent rules of a
  /// stratum run as concurrent jobs. 0 means "unset" — core::Program
  /// substitutes its own default; the engine then treats it as 1
  /// (sequential).
  std::size_t NumThreads = 0;
  /// Target tuples per morsel for partitioned scans (--morsel-size).
  /// 0 means the engine default (256). Smaller morsels rebalance skew
  /// better at higher cut/merge overhead; results are identical at any
  /// value (see TupleBuffer::flushAll).
  std::size_t MorselSize = 0;
  /// The scheduler to run on. Null (the default) makes the engine create
  /// its own when NumThreads > 1; core::Program injects a per-thread-count
  /// shared instance here so every engine of a program — including
  /// resident serving sessions and their update batches — reuses one warm
  /// pool. Ignored unless its thread count matches NumThreads.
  std::shared_ptr<Scheduler> Sched;
  /// Per-relation observability counters (inserts, scans, index hits,
  /// reorders, peaks). Hot-path cost is one non-atomic increment; the
  /// micro_obs benchmark guards the overhead.
  bool CollectStats = true;
  /// Record a Chrome trace-event timeline of the run (rule spans, worker
  /// partitions, merge barriers); read it back via Engine::getTrace().
  bool EnableTrace = false;
  /// Skip Load and Store Io statements (facts arrive programmatically,
  /// results are queried in memory). Used by resident sessions; .printsize
  /// results are still recorded.
  bool SuppressIo = false;
};

/// Mutable state shared between the engine facade and its executor.
struct EngineState {
  // Both out-of-line: Scheduler is incomplete here.
  explicit EngineState(SymbolTable &Symbols);
  ~EngineState();

  SymbolTable &Symbols;
  std::unordered_map<std::string, std::unique_ptr<RelationWrapper>> Relations;
  /// Dispatch counter: incremented on every execute() entry of whichever
  /// executor runs (Fig 19's dispatch-elimination metric).
  std::uint64_t NumDispatches = 0;
  /// The `$` auto-increment counter. Atomic so that rules using `$` stay
  /// eligible for parallel evaluation: workers fetch-add concurrently, so
  /// ids are always dense and unique, but *which* row receives which id is
  /// thread-order-dependent when the rule runs partitioned (stable within
  /// one run; identical across runs at -j1 or whenever the rule falls back
  /// to a single partition).
  std::atomic<RamDomain> Counter{0};
  Profiler Prof;
  std::string FactDir = ".";
  std::string OutputDir = ".";
  bool EchoPrintSize = true;
  bool SuppressIo = false;
  /// Malformed fact-file rows encountered by Load statements: the rows are
  /// skipped and reported here instead of aborting the run.
  std::vector<FactError> IoErrors;
  /// Tuples buffered per virtual iterator refill in the dynamic executor:
  /// 128 for the de-specialized adapter, 1 for the legacy interpreter
  /// (which predates the buffering mechanism).
  std::size_t StreamBufferCapacity = StreamBufferTuples;
  /// Results of .printsize directives, in execution order.
  std::vector<std::pair<std::string, std::size_t>> PrintSizes;
  /// Effective evaluation thread count (>= 1) and, when it exceeds 1, the
  /// work-stealing scheduler the parallel cases submit morsel and rule
  /// jobs to (possibly shared with other engines of the same program).
  std::size_t NumThreads = 1;
  std::shared_ptr<Scheduler> Sched;
  /// Target tuples per morsel for partitioned scans.
  std::size_t MorselSize = 256;
  /// How many morsels to cut a scan of \p Size tuples into: enough that
  /// every thread holds work and stragglers can be stolen around (at
  /// least NumThreads, about Size / MorselSize), but bounded (64 ×
  /// NumThreads) so cut/merge bookkeeping stays negligible.
  std::size_t morselParts(std::size_t Size) const {
    if (NumThreads <= 1)
      return 1;
    const std::size_t M = MorselSize > 0 ? MorselSize : 1;
    const std::size_t Wanted = (Size + M - 1) / M;
    const std::size_t Cap = NumThreads * 64;
    return std::max(NumThreads, std::min(Wanted, Cap));
  }
  /// Observability: the engine's counter block, indexed by each relation's
  /// StatsId. The main executor writes it directly; morsel and rule jobs
  /// write private blocks merged at their job barrier.
  obs::StatsBlock Stats;
  /// Relations in StatsId order (for reporting).
  std::vector<const RelationWrapper *> StatsRelations;
  bool CollectStats = true;
  /// Trace recorder, or null when tracing is off. Main-thread use only;
  /// workers buffer events privately (see obs/Trace.h).
  obs::TraceRecorder *Trace = nullptr;

  /// Executes an Io node (shared across executors; cold path).
  void executeIo(const IoNode &Node);
};

/// Interface of the per-backend executors.
class ExecutorBase {
public:
  virtual ~ExecutorBase() = default;
  /// Executes the whole interpreter tree rooted at \p Root.
  virtual void run(const Node &Root) = 0;
};

std::unique_ptr<ExecutorBase> createDynamicExecutor(EngineState &State);
std::unique_ptr<ExecutorBase> createStaticExecutorLambda(EngineState &State);
std::unique_ptr<ExecutorBase> createStaticExecutorPlain(EngineState &State);

/// The engine: builds relations + interpreter tree for a RAM program and
/// runs it. The RAM program, index selection result and symbol table must
/// outlive the engine.
class Engine {
public:
  Engine(const ram::Program &Prog,
         const translate::IndexSelectionResult &Indexes,
         SymbolTable &Symbols, EngineOptions Options = {});
  ~Engine();

  /// Generates the interpreter tree (timed as part of run(), as in the
  /// paper's measurements) and executes the program.
  void run();

  /// Executes one RAM statement of the engine's program over the resident
  /// relations. Used by the maintenance driver (inc::Maintainer) to run
  /// per-stratum update statements, the count-initialization statement,
  /// and recorded Main sub-ranges for re-evaluated strata. The statement
  /// must belong to (or be reachable from) the engine's ram::Program so
  /// its relation references resolve. Trees are generated on first use and
  /// cached per statement; execution always goes through the de-specialized
  /// dynamic-adapter executor, which is the only one carrying the
  /// maintenance opcodes (Erase / Subtract / FoldCounts) and every generic
  /// operation.
  void runStatement(const ram::Statement &Stmt);

  const ram::Program &getProgram() const { return Prog; }
  const translate::IndexSelectionResult &getIndexes() const {
    return Indexes;
  }

  /// Generates the interpreter tree without executing and renders it
  /// (one line per INode with opcodes and super-instruction slots).
  std::string dumpTree();

  /// Access to a relation's runtime contents.
  RelationWrapper *getRelation(const std::string &Name);
  const RelationWrapper *getRelation(const std::string &Name) const;

  /// Inserts tuples programmatically (before run(), e.g. EDB injection).
  void insertTuples(const std::string &Name,
                    const std::vector<DynTuple> &Tuples);
  /// Snapshot of a relation's tuples in source order, sorted.
  std::vector<DynTuple> getTuples(const std::string &Name) const;

  std::uint64_t getNumDispatches() const { return State.NumDispatches; }
  const Profiler &getProfiler() const { return State.Prof; }
  /// The engine's observability counter block (StatsId-indexed) and the
  /// relations in the same order. Counters are complete once run() returns.
  const obs::StatsBlock &getStats() const { return State.Stats; }
  const std::vector<const RelationWrapper *> &getStatsRelations() const {
    return State.StatsRelations;
  }
  /// The trace recorder, or null unless EngineOptions::EnableTrace was set.
  const obs::TraceRecorder *getTrace() const { return TraceRec.get(); }
  const std::vector<std::pair<std::string, std::size_t>> &
  getPrintSizes() const {
    return State.PrintSizes;
  }
  const EngineOptions &getOptions() const { return Options; }
  /// Malformed fact-file rows skipped by Load statements during run().
  const std::vector<FactError> &getIoErrors() const {
    return State.IoErrors;
  }

private:
  ExecutorBase &ensureExecutor();
  ExecutorBase &ensureMaintExecutor();

  const ram::Program &Prog;
  const translate::IndexSelectionResult &Indexes;
  EngineOptions Options;
  EngineState State;
  NodePtr Root;
  /// Per-statement tree cache for runStatement (maintenance strata run
  /// once per batch; regenerating their trees each time would dwarf small
  /// batches).
  std::unordered_map<const ram::Statement *, NodePtr> StmtTrees;
  std::unique_ptr<ExecutorBase> Executor;
  /// Dynamic-adapter executor for runStatement, distinct from Executor
  /// when the configured backend is static.
  std::unique_ptr<ExecutorBase> MaintExecutor;
  std::unique_ptr<obs::TraceRecorder> TraceRec;
};

} // namespace stird::interp

#endif // STIRD_INTERP_ENGINE_H
