//===- interp/DynamicEngine.cpp - The de-specialized adapter engine ----------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic-adapter executor: the generic subset of the one executor
/// body, with the specialized cases compiled out. Every relation access
/// goes through the virtual RelationWrapper interface, iterators are
/// virtualized TupleStreams amortized by the 128-tuple buffer, and tuple
/// buffers live on the heap because arities are only known at runtime
/// (Section 3). This is the baseline the static instruction generation of
/// Section 4.1 is measured against (Fig 18), and — paired with
/// LegacyRelation storage — the legacy interpreter of Section 5.1.
///
//===----------------------------------------------------------------------===//

#define STIRD_USE_LAMBDA_CASE 0
#define STIRD_SPECIALIZE 0
#define STIRD_EXECUTOR_CLASS DynamicExecutor
#include "interp/StaticEngineImpl.inc"
#undef STIRD_EXECUTOR_CLASS
#undef STIRD_SPECIALIZE
#undef STIRD_USE_LAMBDA_CASE

namespace stird::interp {

std::unique_ptr<ExecutorBase> createDynamicExecutor(EngineState &State) {
  return std::make_unique<DynamicExecutor>(State);
}

} // namespace stird::interp
