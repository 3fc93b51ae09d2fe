//===- core/Program.h - Public engine facade --------------------*- C++ -*-===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The library's front door. A core::Program owns the full compilation
/// pipeline of Fig 1 — Datalog source → AST (checked) → RAM (with index
/// selection) — and hands out execution engines over the result:
///
/// \code
///   auto Prog = stird::core::Program::fromSource(R"(
///     .decl edge(a:number, b:number)
///     .decl path(a:number, b:number)
///     path(x, y) :- edge(x, y).
///     path(x, z) :- path(x, y), edge(y, z).
///   )");
///   auto Engine = Prog->makeEngine();
///   Engine->insertTuples("edge", {{1, 2}, {2, 3}});
///   Engine->run();
///   auto Paths = Engine->getTuples("path");
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef STIRD_CORE_PROGRAM_H
#define STIRD_CORE_PROGRAM_H

#include "ast/Ast.h"
#include "interp/Engine.h"
#include "ram/Ram.h"
#include "translate/AstToRam.h"
#include "translate/IndexSelection.h"
#include "util/SymbolTable.h"

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace stird::core {

/// Compilation-time choices (as opposed to the per-engine EngineOptions).
struct CompileOptions {
  /// Also emit the incremental maintenance program for mixed
  /// insert/retract batches (counting + DRed per stratum, scoped Reeval
  /// fallbacks — see translate::TranslationOptions::EmitMaintenance).
  bool EmitMaintenance = false;
  /// Join-ordering strategy for rule bodies (--sips). Source keeps the
  /// textual order, so nothing changes unless a caller opts in.
  translate::SipsStrategy Sips = translate::SipsStrategy::Source;
  /// Path of a stird-profile-v1/-v2 document seeding the profile strategy
  /// (--feedback=FILE); v2 access-pattern counters additionally drive
  /// per-relation substrate selection. Loaded during compilation; a
  /// malformed or stale document (one covering none of the program's
  /// relations) produces a stderr warning and a fallback to max-bound —
  /// never a compile error.
  std::string FeedbackPath;
  /// Preloaded feedback (not owned; must outlive compilation). Takes
  /// precedence over FeedbackPath — used by tests and benches that build
  /// profiles in memory.
  const translate::ProfileFeedback *Feedback = nullptr;
  /// Per-relation substrate forcing (--substrate=rel:kind,...): keys are
  /// relation names, values "btree" | "brie" | "art". An unknown relation,
  /// unknown kind or inapplicable combination (eqrel relations, arity
  /// outside the target portfolio) degrades with a stderr warning — never
  /// a compile error.
  std::map<std::string, std::string> SubstrateOverrides;
  /// Feedback-driven per-relation substrate selection: when the loaded
  /// feedback document carries stird-profile-v2 access-pattern counters,
  /// btree relations that the profiled run probed point-lookup-heavily
  /// over dense integer keys are switched to the ART substrate. Explicit
  /// SubstrateOverrides win. Decisions are recorded on the Program and
  /// surfaced in --dump-ram, the profile document and the serving stats
  /// reply.
  bool SubstrateFromFeedback = true;
};

/// A compiled Datalog program, ready to be executed any number of times by
/// independently configured engines (or synthesized to C++).
class Program {
public:
  /// Compiles Datalog source text. Returns null on any diagnostic; if
  /// \p Errors is given, diagnostics are appended there, otherwise they go
  /// to stderr.
  static std::unique_ptr<Program>
  fromSource(const std::string &Source,
             std::vector<std::string> *Errors = nullptr,
             const CompileOptions &Options = {});

  /// Compiles a .dl file.
  static std::unique_ptr<Program>
  fromFile(const std::string &Path,
           std::vector<std::string> *Errors = nullptr,
           const CompileOptions &Options = {});

  const ast::Program &getAst() const { return *Ast; }
  const ram::Program &getRam() const { return *Ram; }
  const translate::IndexSelectionResult &getIndexes() const {
    return Indexes;
  }
  SymbolTable &getSymbolTable() { return Symbols; }
  const SymbolTable &getSymbolTable() const { return Symbols; }

  /// Renders the RAM program (Fig 3 style).
  std::string dumpRam() const;

  /// Creates an execution engine over this program. The program must
  /// outlive the engine. When Options.NumThreads is 0 (unset), the
  /// program's own default thread count (setNumThreads) is substituted.
  /// Unless the options carry their own scheduler, parallel engines share
  /// the program's per-thread-count scheduler (one warm worker pool for
  /// the whole program — every run, serving session and update batch).
  std::unique_ptr<interp::Engine>
  makeEngine(interp::EngineOptions Options = {});

  /// The program's shared work-stealing scheduler for \p NumThreads,
  /// created on first use. Thread-safe.
  std::shared_ptr<interp::Scheduler> schedulerFor(std::size_t NumThreads);

  /// Default evaluation thread count applied to engines whose options
  /// leave NumThreads unset. Values <= 1 mean sequential evaluation.
  void setNumThreads(std::size_t N) { NumThreads = N; }
  std::size_t getNumThreads() const { return NumThreads; }

  /// Substrate decisions made during compilation: relation name → a short
  /// human-readable description ("art (forced by --substrate)", "art
  /// (feedback: point-lookup-heavy, dense keys)"). Empty when every
  /// relation kept its declared structure.
  const std::map<std::string, std::string> &getSubstrateDecisions() const {
    return SubstrateDecisions;
  }

private:
  Program() = default;

  std::unique_ptr<ast::Program> Ast;
  std::unique_ptr<ram::Program> Ram;
  translate::IndexSelectionResult Indexes;
  SymbolTable Symbols;
  std::map<std::string, std::string> SubstrateDecisions;
  std::size_t NumThreads = 1;
  /// Shared schedulers keyed by thread count (engines at different -jN
  /// coexist, e.g. a differential test). Guarded by SchedM.
  std::mutex SchedM;
  std::map<std::size_t, std::shared_ptr<interp::Scheduler>> Schedulers;
};

} // namespace stird::core

#endif // STIRD_CORE_PROGRAM_H
