//===- bench/micro_dispatch.cpp - Dispatch-cost microbenchmarks ----------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Microbenchmarks of interpreter dispatch cost (supporting the Section 6
/// discussion): the same filter-heavy program executed by each backend and
/// optimization level, reported as time per logical dispatch. Also shows
/// why the paper found threaded-code tricks marginal for Soufflé: each
/// dispatch here does real relational work.
///
//===----------------------------------------------------------------------===//

#include "core/Program.h"
#include "interp/Engine.h"

#include <benchmark/benchmark.h>

using namespace stird;

namespace {

/// Arithmetic-filter-dominated program: dispatch overhead is maximally
/// visible.
const char *FilterProgram = R"(
  .decl a(x:number, y:number)
  .decl out(x:number)
  out(x + y) :- a(x, y), (x * 3 + y) % 7 != 0, x band 15 != 9,
                x + y * 2 < 100000.
)";

std::unique_ptr<core::Program> &program() {
  static std::unique_ptr<core::Program> Prog =
      core::Program::fromSource(FilterProgram);
  return Prog;
}

std::vector<DynTuple> inputs() {
  std::vector<DynTuple> Result;
  for (RamDomain I = 0; I < 20000; ++I)
    Result.push_back({I % 997, (I * 13) % 991});
  return Result;
}

void runBackend(benchmark::State &State, interp::EngineOptions Options) {
  auto Data = inputs();
  std::uint64_t Dispatches = 0;
  for (auto _ : State) {
    auto Engine = program()->makeEngine(Options);
    Engine->insertTuples("a", Data);
    Engine->run();
    Dispatches = Engine->getNumDispatches();
    benchmark::DoNotOptimize(Engine->getRelation("out")->size());
  }
  State.counters["dispatches"] =
      benchmark::Counter(static_cast<double>(Dispatches));
  State.counters["ns_per_dispatch"] = benchmark::Counter(
      1e9 / static_cast<double>(Dispatches),
      benchmark::Counter::kIsIterationInvariantRate);
}

void BM_DispatchSti(benchmark::State &State) {
  runBackend(State, {});
}
BENCHMARK(BM_DispatchSti)->Unit(benchmark::kMillisecond);

void BM_DispatchStiPlainCase(benchmark::State &State) {
  interp::EngineOptions Options;
  Options.TheBackend = interp::Backend::StaticPlain;
  runBackend(State, Options);
}
BENCHMARK(BM_DispatchStiPlainCase)->Unit(benchmark::kMillisecond);

void BM_DispatchStiNoSuperInstructions(benchmark::State &State) {
  interp::EngineOptions Options;
  Options.SuperInstructions = false;
  runBackend(State, Options);
}
BENCHMARK(BM_DispatchStiNoSuperInstructions)
    ->Unit(benchmark::kMillisecond);

// The Section 5.2 ablation: the default STI fuses the filter chain into
// one micro-program; this case dispatches each node of it.
void BM_DispatchStiUnfusedConditions(benchmark::State &State) {
  interp::EngineOptions Options;
  Options.FuseConditions = false;
  runBackend(State, Options);
}
BENCHMARK(BM_DispatchStiUnfusedConditions)->Unit(benchmark::kMillisecond);

void BM_DispatchDynamicAdapter(benchmark::State &State) {
  interp::EngineOptions Options;
  Options.TheBackend = interp::Backend::DynamicAdapter;
  runBackend(State, Options);
}
BENCHMARK(BM_DispatchDynamicAdapter)->Unit(benchmark::kMillisecond);

void BM_DispatchLegacy(benchmark::State &State) {
  interp::EngineOptions Options;
  Options.TheBackend = interp::Backend::Legacy;
  runBackend(State, Options);
}
BENCHMARK(BM_DispatchLegacy)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
