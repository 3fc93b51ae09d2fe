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
/// become nested Scan/IndexScan/Filter/Project operation chains, and every
/// rule version is wrapped in a profiling timer.
///
//===----------------------------------------------------------------------===//

#ifndef STIRD_TRANSLATE_ASTTORAM_H
#define STIRD_TRANSLATE_ASTTORAM_H

#include "ast/Ast.h"
#include "ast/SemanticAnalysis.h"
#include "ram/Ram.h"
#include "translate/Sips.h"
#include "util/SymbolTable.h"

#include <memory>
#include <string>
#include <vector>

namespace stird::translate {

/// Options controlling translation.
struct TranslationOptions {
  /// Wrap each rule version in a LogTimer so engines can attribute time to
  /// rules (required by the Fig 16 experiment).
  bool EnableProfiling = true;
  /// Emit the Fig-3-style non-emptiness pre-checks around each recursive
  /// rule body.
  bool EnableEmptinessChecks = true;
  /// Force naive fixpoint evaluation for every recursive stratum (no
  /// delta relations; every round rescans the full relations). Slower but
  /// semantically identical — used by the semi-naive equivalence tests.
  bool ForceNaiveEvaluation = false;
  /// Additionally emit the incremental maintenance program for mixed
  /// insert/retract batches (src/inc): per-stratum update statements
  /// selected between exact derivation counting (non-recursive strata)
  /// and DRed over-delete/rederive (recursive strata), plus the EDB
  /// prologue, the count-bootstrap statement and the aux-clearing
  /// epilogue (see ram::Program::getMaintStrata). Strata using eqrel or
  /// aggregates fall back to a scoped per-stratum re-evaluation recorded
  /// in the plan; programs using `$` get no maintenance at all and the
  /// reason is recorded via ram::Program::setMaintIneligibleReason. Off by
  /// default: the extra aux relations would perturb dumps and
  /// index-selection goldens of the one-shot pipeline.
  bool EmitMaintenance = false;
  /// Join-ordering strategy applied to every rule body (including
  /// maintenance rules, so the resident-session path plans identically to the one-shot
  /// path). Defaults to source order: plans and RAM goldens only change
  /// when a caller opts in.
  SipsStrategy Sips = SipsStrategy::Source;
  /// Relation cardinalities for SipsStrategy::Profile. Not owned; may be
  /// null, in which case the profile strategy falls back to its built-in
  /// default size for every relation (degrading to roughly max-bound).
  const ProfileFeedback *Feedback = nullptr;
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
