//===- interp/StaticEngineLambda.cpp - STI with lambda CASE ------------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The STI executor with the Section 4.3 register-pressure optimization:
/// every case body is wrapped in an immediately invoked local lambda
/// (Fig 12), so execute()'s prologue saves no callee-saved registers for
/// the lightweight instructions. This is the default production executor.
///
//===----------------------------------------------------------------------===//

#define STIRD_USE_LAMBDA_CASE 1
#define STIRD_SPECIALIZE 1
#define STIRD_EXECUTOR_CLASS StaticExecutorLambda
#include "interp/StaticEngineImpl.inc"
#undef STIRD_EXECUTOR_CLASS
#undef STIRD_SPECIALIZE
#undef STIRD_USE_LAMBDA_CASE

namespace stird::interp {

std::unique_ptr<ExecutorBase> createStaticExecutorLambda(EngineState &State) {
  return std::make_unique<StaticExecutorLambda>(State);
}

} // namespace stird::interp
