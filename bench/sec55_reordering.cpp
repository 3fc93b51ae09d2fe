//===- bench/sec55_reordering.cpp - Section 5.5 reordering ablation ------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces the first half of Section 5.5: static tuple reordering
/// (Section 4.2). With it disabled, search keys are permuted and scanned
/// tuples decoded at runtime. Paper: 3.2-5.1% improvement, consistent
/// across benchmarks (modest because inserts cannot be reordered).
///
//===----------------------------------------------------------------------===//

#include "workloads/Harness.h"

#include "util/MiscUtil.h"

#include <cstdio>
#include <vector>

using namespace stird;
using namespace stird::bench;

int main() {
  printHeader("Sec 5.5 — static tuple reordering ablation",
              "3.2-5.1% improvement, consistent across benchmarks");

  Harness H;
  std::printf("%-16s %-14s %12s %12s %10s\n", "suite", "benchmark",
              "dynamic(s)", "static(s)", "relative");

  std::vector<double> Relatives;
  for (const Workload &W : allSuites()) {
    interp::EngineOptions Off;
    Off.StaticReordering = false;
    InterpMeasurement Without = H.runInterp(W, Off);

    InterpMeasurement With = H.runInterp(W);

    if (Without.TotalTuples != With.TotalTuples) {
      std::printf("%-16s %-14s   RESULT MISMATCH\n", W.Suite.c_str(),
                  W.Name.c_str());
      continue;
    }
    const double Relative = With.Seconds / Without.Seconds;
    Relatives.push_back(Relative);
    std::printf("%-16s %-14s %12.4f %12.4f %10.3f\n", W.Suite.c_str(),
                W.Name.c_str(), Without.Seconds, With.Seconds, Relative);
  }

  if (!Relatives.empty())
    std::printf("\naverage relative runtime with static reordering: %.3f "
                "(%.1f%% improvement)\n",
                geomean(Relatives), 100.0 * (1.0 - geomean(Relatives)));

  return 0;
}
