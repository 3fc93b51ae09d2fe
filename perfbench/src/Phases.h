//===- perfbench/src/Phases.h - One-shot and serving phases -----*- C++ -*-===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PHASES_H
#define PERFBENCH_PHASES_H

#include "Bench.h"

#include <memory>

namespace perfbench {

/// One pass of the one-shot phase.
struct PassResult {
  /// Program name -> its parse-to-output seconds.
  std::map<std::string, double> Program;
  /// Per-layer metric name -> this pass's value (traced passes only).
  std::map<std::string, double> Layer;
};

/// Runs the one-shot programs in pass order, one time slice at a time, so
/// that passes interleave with the serving phase across the whole run and a
/// slow spell of the machine touches only some samples of each. Each
/// program runs with a fresh pipeline (Program::fromSource -> makeEngine ->
/// run, STI, -j1, facts loaded by .input); its outputs are checked against
/// the references off the clock. With a tracer, each layer call is a span,
/// the compile phases are also timed one by one (off the clock), and the
/// engine's counters are summed into PassResult::Layer.
class OneShotRunner {
public:
  OneShotRunner(const Workload &W, const std::vector<std::string> &FactDirs,
                std::string OutDir, const References &Refs, Tracer *T);

  /// Runs programs until \p Seconds passed (at least one program).
  void runFor(double Seconds, RunResult &Result);
  /// Runs programs until \p MinPasses passes are complete and none is
  /// partial.
  void finish(std::size_t MinPasses, RunResult &Result);

  /// Completed passes.
  const std::vector<PassResult> &passes() const { return Passes; }

private:
  void runNext(RunResult &Result);

  const Workload &W;
  const std::vector<std::string> &FactDirs;
  const std::string OutDir;
  const References &Refs;
  Tracer *T;
  std::vector<PassResult> Passes;
  PassResult Current;
  std::size_t Next = 0;
};

/// Geomean over the fig15 programs of STI seconds / synthesized-binary
/// seconds (Fig 15 method). Binaries are cached under \p CacheDir by source
/// hash; their relation sizes are checked against \p Refs. nullopt when no
/// binary could be built.
std::optional<double>
stiOverSynth(const Workload &W, const std::vector<std::string> &FactDirs,
             const std::map<std::string, double> &StiSeconds,
             const std::string &CacheDir, const References &Refs,
             RunResult &Result);

/// Compiles (or finds cached) the synthesized binary of \p Source.
std::optional<std::string> synthBinary(const std::string &Source,
                                       const std::string &CacheDir);

/// Whether \p Reply is a successful query reply at \p Epoch whose count
/// matches its tuples. Error replies (an "overloaded" refusal included) and
/// wrong answers are not. Stores the server-side "micros" in \p Micros.
bool queryReplyValid(const std::string &Reply, std::uint64_t Epoch,
                     double *Micros = nullptr);

/// The serving phase: a resident stird server (event loop plus 2 pool
/// threads) hosting the workload's served program, driven in a closed loop
/// by this thread over 4 TCP connections — three issue point/prefix
/// queries with Zipf keys, one issues 24-op mixed insert/retract batches.
/// How many queries fall between batches is drawn from the seed, and a run
/// sends a fixed number of batches, so every build serves the same request
/// sequence whatever its speed.
class ServingPhase {
public:
  /// Draws the initial EDB, boots the session, loads it and starts the
  /// server: the serving part of set-up.
  ServingPhase(const Workload &W, Tracer *T);
  ~ServingPhase();
  ServingPhase(const ServingPhase &) = delete;
  ServingPhase &operator=(const ServingPhase &) = delete;

  /// Runs the closed loop until \p UntilBatches batches were sent in all
  /// calls so far. Replies are checked as they arrive and, at checkpoints,
  /// against a from-scratch legacy evaluation of the net EDB (off the
  /// clock).
  void run(std::uint64_t UntilBatches, RunResult &Result, Tracer *T);
  /// The last checkpoint; reads the served tenant's cache counters.
  void finish(RunResult &Result, Tracer *T);

  /// Replays the recorded batch and query stream through single layers
  /// in process (inc::Maintainer::apply, EngineSession::applyMixed,
  /// Snapshot::query, handleRequest) and adds their metrics to
  /// \p Result's per-layer set.
  void probeLayers(RunResult &Result, Tracer *T);

  std::vector<double> WriteMs, QueryUs, OverheadUs;
  /// Sum of all round trips (the closed loop's busy time).
  double BusySeconds = 0;
  std::uint64_t CacheHits = 0, CacheMisses = 0;

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

} // namespace perfbench

#endif // PERFBENCH_PHASES_H
