//===- examples/dataflow.cpp - Reaching-definitions analysis ------------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A classic compiler dataflow analysis as Datalog: reaching definitions
/// over a synthetic control-flow graph, with kill sets expressed through
/// stratified negation and a per-variable definition count via aggregates.
/// Shows the per-rule profiler and the ablation switches from the paper.
///
///   $ ./dataflow [num_blocks] [--no-super] [--no-fuse-conditions]
///
//===----------------------------------------------------------------------===//

#include "core/Program.h"
#include "util/Timer.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <vector>

using namespace stird;

int main(int argc, char **argv) {
  int NumBlocks = 1500;
  interp::EngineOptions Options;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--no-super") == 0)
      Options.SuperInstructions = false;
    else if (std::strcmp(argv[I], "--no-fuse-conditions") == 0)
      Options.FuseConditions = false;
    else
      NumBlocks = std::atoi(argv[I]);
  }

  auto Prog = core::Program::fromSource(R"(
    // def(b, v): block b defines variable v.
    // use(b, v): block b uses variable v.
    // succ(a, b): control-flow edge.
    .decl def(b:number, v:number)
    .decl use(b:number, v:number)
    .decl succ(a:number, b:number)

    // reach(d, v, b): the definition of v at block d reaches block b.
    .decl reach(d:number, v:number, b:number)
    reach(d, v, d) :- def(d, v).
    reach(d, v, b) :- reach(d, v, a), succ(a, b), !def(b, v).

    // A use is live if some definition reaches it.
    .decl live_use(b:number, v:number, d:number)
    live_use(b, v, d) :- use(b, v), reach(d, v, b).

    // Uses of undefined variables.
    .decl undefined_use(b:number, v:number)
    undefined_use(b, v) :- use(b, v), !live_use(b, v, _).

    // How many distinct definitions reach each use (ambiguity measure).
    .decl fanin(b:number, v:number, n:number)
    fanin(b, v, n) :- use(b, v), n = count : { live_use(b, v, _) }.
  )");
  if (!Prog)
    return 1;

  // Synthetic CFG: a spine with branches; defs/uses sprinkled over 24
  // variables.
  std::mt19937 Rng(7);
  std::uniform_int_distribution<RamDomain> Var(0, 23);
  std::vector<DynTuple> Defs, Uses, Succs;
  for (RamDomain B = 0; B + 1 < NumBlocks; ++B) {
    Succs.push_back({B, B + 1});
    if (B % 5 == 0 && B + 7 < NumBlocks)
      Succs.push_back({B, B + 7});
    if (B % 3 == 0)
      Defs.push_back({B, Var(Rng)});
    if (B % 2 == 0)
      Uses.push_back({B, Var(Rng)});
  }

  auto Engine = Prog->makeEngine(Options);
  Engine->insertTuples("def", Defs);
  Engine->insertTuples("use", Uses);
  Engine->insertTuples("succ", Succs);

  Timer T;
  Engine->run();

  std::printf("reaching definitions over %d blocks (%zu defs, %zu uses)\n",
              NumBlocks, Defs.size(), Uses.size());
  std::printf("  reach:          %zu facts\n",
              Engine->getTuples("reach").size());
  std::printf("  live uses:      %zu\n",
              Engine->getTuples("live_use").size());
  std::printf("  undefined uses: %zu\n",
              Engine->getTuples("undefined_use").size());
  std::printf("  wall time:      %.3f ms (%llu dispatches)\n",
              T.seconds() * 1e3,
              static_cast<unsigned long long>(Engine->getNumDispatches()));

  std::printf("\nhottest rules:\n");
  double Best[3] = {0, 0, 0};
  const interp::RuleProfile *Top[3] = {nullptr, nullptr, nullptr};
  // rules() returns a snapshot; Top points into it, so it must outlive the
  // loop below.
  const std::vector<interp::RuleProfile> Rules =
      Engine->getProfiler().rules();
  for (const auto &Rule : Rules)
    for (int Slot = 0; Slot < 3; ++Slot)
      if (Rule.Seconds > Best[Slot]) {
        for (int Shift = 2; Shift > Slot; --Shift) {
          Best[Shift] = Best[Shift - 1];
          Top[Shift] = Top[Shift - 1];
        }
        Best[Slot] = Rule.Seconds;
        Top[Slot] = &Rule;
        break;
      }
  for (const auto *Rule : Top)
    if (Rule)
      std::printf("  %8.3f ms  %.70s\n", Rule->Seconds * 1e3,
                  Rule->Label.c_str());
  return 0;
}
