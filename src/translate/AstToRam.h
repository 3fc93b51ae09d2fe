//===- translate/AstToRam.h - Datalog to RAM translation --------*- C++ -*-===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Translates a semantically checked Datalog program into a RAM program:
/// strata are evaluated bottom-up, recursive strata become semi-naive
/// fixpoint loops with delta/new relations (Fig 3 of the paper), rules
/// become nested Scan/IndexScan/Filter/Project operation chains behind a
/// Fig-3-style non-emptiness pre-check, and every rule version is wrapped
/// in a profiling timer. Main-program bodies keep source order;
/// maintenance versions open with their driving atom and order the rest
/// max-bound (translate/Sips.h).
///
//===----------------------------------------------------------------------===//

#ifndef STIRD_TRANSLATE_ASTTORAM_H
#define STIRD_TRANSLATE_ASTTORAM_H

#include "ast/Ast.h"
#include "ast/SemanticAnalysis.h"
#include "ram/Ram.h"
#include "util/SymbolTable.h"

#include <memory>
#include <string>
#include <vector>

namespace stird::translate {

/// Options controlling translation.
struct TranslationOptions {
  /// Force naive fixpoint evaluation for every recursive stratum (no
  /// delta relations; every round rescans the full relations). Slower but
  /// semantically identical — used by the semi-naive equivalence tests.
  bool ForceNaiveEvaluation = false;
  /// Additionally emit the incremental maintenance program for mixed
  /// insert/retract batches (src/inc): per-stratum DRed
  /// over-delete/rederive statements, plus the EDB prologue and the
  /// aux-clearing epilogue (see ram::Program::getMaintStrata). Every
  /// program gets a plan, so a session has one write path. Strata using `$`, eqrel or
  /// aggregates fall back to a scoped per-stratum re-evaluation recorded
  /// in the plan (the `$` strata re-run with the counter restarted, so
  /// they mint a cold run's ids). An .input relation that also has
  /// clauses is lifted: a hidden EDB shadow R@edb takes its loads and
  /// batch inserts, and the exit clause R(x) :- R@edb(x) derives them.
  /// Off by default: the extra aux relations would perturb dumps and
  /// index-selection goldens of the one-shot pipeline.
  bool EmitMaintenance = false;
};

/// Result of translation.
struct TranslationResult {
  std::unique_ptr<ram::Program> Prog;
  std::vector<std::string> Errors;

  bool succeeded() const { return Errors.empty(); }
};

/// Translates \p AstProg (checked by \p Info) into RAM. String constants
/// are interned into \p Symbols. Index selection is NOT run here; call
/// selectIndexes() on the result before execution.
TranslationResult translateToRam(const ast::Program &AstProg,
                                 const ast::SemanticInfo &Info,
                                 SymbolTable &Symbols,
                                 const TranslationOptions &Options = {});

} // namespace stird::translate

#endif // STIRD_TRANSLATE_ASTTORAM_H
