//===- interp/StaticEnginePlain.cpp - STI without lambda CASE ----------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The STI executor compiled with plain case bodies — the ablation baseline
/// of the Section 5.5 register-pressure experiment: the compiler reserves
/// callee-saved registers for the heaviest case on every execute() entry.
///
//===----------------------------------------------------------------------===//

#define STIRD_USE_LAMBDA_CASE 0
#define STIRD_SPECIALIZE 1
#define STIRD_EXECUTOR_CLASS StaticExecutorPlain
#include "interp/StaticEngineImpl.inc"
#undef STIRD_EXECUTOR_CLASS
#undef STIRD_SPECIALIZE
#undef STIRD_USE_LAMBDA_CASE

namespace stird::interp {

std::unique_ptr<ExecutorBase> createStaticExecutorPlain(EngineState &State) {
  return std::make_unique<StaticExecutorPlain>(State);
}

} // namespace stird::interp
