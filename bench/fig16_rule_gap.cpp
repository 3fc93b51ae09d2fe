//===- bench/fig16_rule_gap.cpp - Fig 16 / Section 5.2 reproduction ------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces the Section 5.2 case study on the gamess-like benchmark:
///
///  1. Fig 16 — per-rule slowdown histogram (STI vs synthesized) with each
///     bin's contribution to the total performance gap. Paper: most rules
///     are < 2.5x; a few arithmetic-filter outlier rules (10-32x) carry
///     ~73% of the gap.
///  2. The hand-crafted super-instruction fix: fused conditions (the
///     engine default) collapse the outlier rules' filter dispatches to
///     one, recovering most of the gap (paper: 44s -> 4s on moved_label;
///     total 2.7x -> 1.7x). The histogram is taken on the unfused STI
///     (--no-fuse-conditions), the paper's starting point.
///
//===----------------------------------------------------------------------===//

#include "workloads/Harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

using namespace stird;
using namespace stird::bench;

int main() {
  printHeader("Fig 16 / Sec 5.2 — per-rule slowdown and fused conditions",
              "4 outlier rules carry ~73% of the gap; hand-crafted "
              "super-instructions fix them (2.7x -> 1.7x total)");

  Harness H;
  Workload W = gamessLike();

  SynthMeasurement Synth = H.runSynth(W);
  if (!Synth.Ok) {
    std::printf("synthesis failed\n");
    return 1;
  }
  interp::EngineOptions Unfused;
  Unfused.FuseConditions = false;
  InterpMeasurement Sti = H.runInterp(W, Unfused);

  // Per-rule slowdowns; rules under 1ms in the synthesized run are
  // discarded (paper: < 0.01 s at their scale).
  struct RuleGap {
    std::string Label;
    double SynthSeconds;
    double StiSeconds;
    double Slowdown;
  };
  std::vector<RuleGap> Rules;
  double TotalGap = 0;
  for (const auto &[Label, StiSeconds] : Sti.RuleSeconds) {
    auto It = Synth.RuleSeconds.find(Label);
    if (It == Synth.RuleSeconds.end())
      continue;
    const double SynthSeconds = It->second;
    if (SynthSeconds < 1e-3 && StiSeconds < 1e-3)
      continue;
    const double Base = std::max(SynthSeconds, 1e-6);
    Rules.push_back({Label, SynthSeconds, StiSeconds, StiSeconds / Base});
    TotalGap += std::max(0.0, StiSeconds - SynthSeconds);
  }

  // Histogram over slowdown, 30 bins as in the paper.
  if (!Rules.empty()) {
    double MaxSlowdown = 1;
    for (const RuleGap &Rule : Rules)
      MaxSlowdown = std::max(MaxSlowdown, Rule.Slowdown);
    const int NumBins = 30;
    const double BinWidth = MaxSlowdown / NumBins;
    std::vector<int> Counts(NumBins, 0);
    std::vector<double> GapShare(NumBins, 0);
    for (const RuleGap &Rule : Rules) {
      int Bin = std::min(NumBins - 1,
                         static_cast<int>(Rule.Slowdown / BinWidth));
      Counts[Bin] += 1;
      GapShare[Bin] += std::max(0.0, Rule.StiSeconds - Rule.SynthSeconds);
    }
    std::printf("\nhistogram of per-rule slowdown (%zu rules, 30 bins)\n",
                Rules.size());
    std::printf("%-18s %6s %18s\n", "slowdown bin", "rules",
                "share of total gap");
    for (int Bin = 0; Bin < NumBins; ++Bin) {
      if (Counts[Bin] == 0)
        continue;
      std::printf("[%6.2fx,%6.2fx) %6d %17.2f%%\n", Bin * BinWidth,
                  (Bin + 1) * BinWidth, Counts[Bin],
                  TotalGap > 0 ? 100.0 * GapShare[Bin] / TotalGap : 0.0);
    }

    std::sort(Rules.begin(), Rules.end(),
              [](const RuleGap &A, const RuleGap &B) {
                return (A.StiSeconds - A.SynthSeconds) >
                       (B.StiSeconds - B.SynthSeconds);
              });
    std::printf("\ntop outlier rules by absolute gap:\n");
    for (std::size_t I = 0; I < std::min<std::size_t>(4, Rules.size());
         ++I)
      std::printf("  %5.1fx  sti=%.4fs synth=%.4fs  %.60s\n",
                  Rules[I].Slowdown, Rules[I].StiSeconds,
                  Rules[I].SynthSeconds, Rules[I].Label.c_str());
  }

  // Section 5.2: the hand-crafted super-instruction (fused conditions).
  InterpMeasurement StiFused = H.runInterp(W);
  if (StiFused.TotalTuples != Sti.TotalTuples) {
    std::printf("\nFUSED RESULT MISMATCH\n");
    return 1;
  }

  std::printf("\nfused-condition super-instructions (Sec 5.2):\n");
  std::printf("  total:      sti %.4fs -> fused %.4fs  (slowdown %.2fx -> "
              "%.2fx vs synth %.4fs)\n",
              Sti.Seconds, StiFused.Seconds, Sti.Seconds / Synth.RunSeconds,
              StiFused.Seconds / Synth.RunSeconds, Synth.RunSeconds);
  // The moved_label analog specifically.
  for (const auto &[Label, Before] : Sti.RuleSeconds) {
    if (Label.find("moved_label") == std::string::npos ||
        Label.find(":-") == std::string::npos)
      continue;
    auto It = StiFused.RuleSeconds.find(Label);
    if (It == StiFused.RuleSeconds.end() || Before < 1e-3)
      continue;
    std::printf("  %-50.50s %.4fs -> %.4fs (%.1fx faster)\n", Label.c_str(),
                Before, It->second, Before / std::max(It->second, 1e-9));
  }
  std::printf("  dispatches: %llu -> %llu (%.1f%% eliminated)\n",
              static_cast<unsigned long long>(Sti.Dispatches),
              static_cast<unsigned long long>(StiFused.Dispatches),
              100.0 * (1.0 - static_cast<double>(StiFused.Dispatches) /
                                 static_cast<double>(Sti.Dispatches)));
  return 0;
}
