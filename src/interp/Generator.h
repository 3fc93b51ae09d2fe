//===- interp/Generator.h - RAM to interpreter-tree generation --*- C++ -*-===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates the interpreter tree (INodes) from a RAM program. This is
/// where the paper's generation-time optimizations are applied:
///
///  * opcode specialization — encodes (structure, arity) into the opcode
///    when targeting the static engine (Section 4.1);
///  * static tuple reordering — pattern slots are emitted in index order
///    and tuple-element accesses are rewritten through the order, removing
///    all runtime permutation (Section 4.2);
///  * super-instructions — constants and tuple-element reads are folded
///    into their parent instruction (Section 4.4, Fig 13);
///  * fused conditions — arithmetic filter conditions become one
///    micro-program instruction (the Section 5.2 hand-crafted
///    super-instructions).
///
//===----------------------------------------------------------------------===//

#ifndef STIRD_INTERP_GENERATOR_H
#define STIRD_INTERP_GENERATOR_H

#include "interp/Engine.h"
#include "interp/Node.h"
#include "translate/IndexSelection.h"

namespace stird::interp {

/// Generation-time switches (a subset of EngineOptions plus the backend's
/// specialization choice).
struct GeneratorOptions {
  bool Specialize = true;
  bool SuperInstructions = true;
  bool StaticReordering = true;
  bool FuseConditions = true;
  /// With more than one thread, eligible query roots are lowered to
  /// ParallelScan / ParallelIndexScan (see Generator.cpp for the
  /// eligibility rules that keep evaluation deterministic).
  std::size_t NumThreads = 1;
};

/// Builds the interpreter tree for \p Prog. Relations must already exist
/// in \p State (one wrapper per RAM relation); rule labels are registered
/// with the state's profiler.
NodePtr generateTree(const ram::Program &Prog,
                     const translate::IndexSelectionResult &Indexes,
                     EngineState &State, const GeneratorOptions &Options);

/// Same, but for an explicit root statement of the program (e.g. a
/// maintenance stratum's statement instead of main).
NodePtr generateTree(const ram::Statement &Root,
                     const translate::IndexSelectionResult &Indexes,
                     EngineState &State, const GeneratorOptions &Options);

} // namespace stird::interp

#endif // STIRD_INTERP_GENERATOR_H
