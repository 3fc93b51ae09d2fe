//===- perfbench/src/Bench.h - The stird benchmark --------------*- C++ -*-===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared declarations of the benchmark binary: seeded input generation,
/// sample statistics, the span recorder of the traced run, the one-shot and
/// serving phases, and the per-run result. The benchmark drives the stird
/// library only through its public headers; every span it records wraps a
/// call into one layer (ast, translate, ram, core, interp, der, inc, srv,
/// wire) from this side of the API.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "util/RamTypes.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using stird::DynTuple;
using stird::RamDomain;

/// The seed that reproduces the inputs the repository's bench/ binaries use.
inline constexpr std::uint64_t DefaultSeed = 1;

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// Samples fewer than this many beyond a percentile make it unmeasurable.
inline constexpr std::size_t MinTailSamples = 10;

/// The \p P quantile (0 < P < 1) of \p Samples by nearest rank, or nullopt
/// when fewer than MinTailSamples samples lie beyond it (a p99 needs at
/// least 1000 samples, a p50 at least 20).
std::optional<double> percentile(std::vector<double> Samples, double P);

/// The median of \p Samples (any count >= 1); nullopt when empty.
std::optional<double> median(std::vector<double> Samples);

/// Failed operations over attempted ones (0 when nothing was attempted).
double failRatio(std::uint64_t Failed, std::uint64_t Attempted);

/// 64-bit digest of one tuple. A relation's digest is the sum over its
/// tuples, so it does not depend on enumeration order.
std::uint64_t tupleHash(const RamDomain *Tuple, std::size_t Arity);

/// Deterministic 64-bit generator (identical streams on every platform).
class Rng {
public:
  explicit Rng(std::uint64_t Seed)
      : State(Seed * 2862933555777941757ULL + 1) {}
  std::uint64_t next() {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return State >> 33;
  }
  std::uint64_t next(std::uint64_t Bound) { return next() % Bound; }

private:
  std::uint64_t State;
};

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

using Clock = std::chrono::steady_clock;

/// One closed span. Parent is an index into the recorder's span list, or -1.
struct Span {
  std::string Name;
  Clock::time_point Start, End;
  int Parent = -1;
  std::uint64_t RequestId = 0;
};

/// Keeps spans in memory (benchmark thread only) and writes them when the
/// run ends. A disabled recorder costs one branch per span.
class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }
  /// Opens a span under the innermost open one; returns its id or -1.
  int open(std::string Name, std::uint64_t RequestId = 0);
  void close(int Id);

  const std::vector<Span> &spans() const { return Spans; }
  /// Chrome trace-event JSON (complete "X" events, microsecond units).
  std::string chromeJson() const;
  /// Self time per span name (duration minus the part its children cover),
  /// in seconds.
  std::map<std::string, double> selfSeconds() const;

private:
  bool Enabled;
  std::vector<Span> Spans;
  std::vector<int> Stack;
  Clock::time_point Origin = Clock::now();
};

/// RAII span; a null or disabled tracer records nothing.
class Scope {
public:
  Scope(Tracer *T, std::string Name, std::uint64_t RequestId = 0)
      : T(T && T->enabled() ? T : nullptr),
        Id(this->T ? this->T->open(std::move(Name), RequestId) : -1) {}
  ~Scope() {
    if (T)
      T->close(Id);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer *T;
  int Id;
};

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

/// One one-shot program: source plus the facts its .input directives read.
struct OneShotProgram {
  std::string Name;
  std::string Source;
  std::vector<std::pair<std::string, std::vector<DynTuple>>> Facts;
};

/// One EDB relation of a served program: tuples are drawn inside partition
/// blocks of PartSize values, the locality real update streams have.
struct EdbSpec {
  std::string Name;
  std::size_t Arity;
  RamDomain Domain;
  RamDomain PartSize;
  std::size_t Initial;
  std::size_t SkewPct; ///< % of draws forced into partition 0
};

/// One point/prefix query shape: the first Bound columns are bound, the
/// first from a Zipf draw over [0, KeyDomain), the rest from its partition.
struct QueryShape {
  std::string Relation;
  std::size_t Arity;
  std::size_t Bound;
  RamDomain KeyDomain;
  RamDomain PartSize;
};

/// A program served by an in-process stird server, its initial EDB and the
/// shapes of the queries clients send.
struct ServedProgram {
  std::string Name;
  std::string Source;
  std::vector<EdbSpec> Edb;
  std::vector<QueryShape> Queries;
};

/// A workload: the programs of its one-shot phase, the program of its
/// serving phase, and how the run's seconds split between the two.
struct Workload {
  std::string Name;
  std::vector<OneShotProgram> OneShot;
  ServedProgram Served;
  /// Seed of the served program's initial EDB and request schedule.
  std::uint64_t StreamSeed = 0;
  double OneShotShare = 0.5;
  /// Batches the serving phase sends per second of its share of the run:
  /// the rate the tuning machine reached, fixed so that every build serves
  /// the same requests.
  double ServeBatchesPerSecond = 100;
};

/// The workload names the benchmark accepts, in documentation order.
std::vector<std::string> workloadNames();

/// Names of the 13 fig15 programs, in suite order.
std::vector<std::string> fig15ProgramNames();

/// Generates every input of \p Name from \p Seed. Unknown names: nullopt.
std::optional<Workload> makeWorkload(const std::string &Name,
                                     std::uint64_t Seed);

/// The served program's initial EDB (one tuple set per EdbSpec), drawn
/// from \p R.
std::vector<std::vector<DynTuple>> initialEdb(const ServedProgram &P, Rng &R);

/// Draws one tuple of \p Spec from \p R.
DynTuple drawTuple(Rng &R, const EdbSpec &Spec);

//===----------------------------------------------------------------------===//
// Results
//===----------------------------------------------------------------------===//

/// One reported metric: value, unit, and the sample count behind it.
struct Metric {
  double Value = 0;
  std::string Unit;
  std::size_t Samples = 0;
};

/// Everything one run reports.
struct RunResult {
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  std::map<std::string, Metric> EndToEnd;
  std::map<std::string, Metric> PerLayer;
  /// Printed with the report, not among the result's metrics: fig15-exec's
  /// per-program times, which no other workload can measure.
  std::map<std::string, Metric> ReportOnly;
  std::vector<std::string> Errors; ///< first few failure descriptions

  void fail(const std::string &What);
};

/// Run configuration.
struct RunConfig {
  std::string Workload;
  std::uint64_t Seed = DefaultSeed;
  double Seconds = 10;
  bool Trace = false;
  std::string WorkDir = ".bench_build/work";
  std::string RefsPath;  ///< committed references of the default seed
};

/// The \p P quantile of \p Samples as a metric. A refused percentile (too
/// few samples beyond it) reports 0 and counts as a failure of \p R, so a
/// run too short for its tails is not a correct run.
Metric tailMetric(RunResult &R, const std::string &Name,
                  const std::vector<double> &Samples, double P,
                  const std::string &Unit);

/// Runs one workload end to end (and, when traced, layer by layer).
RunResult runWorkload(const RunConfig &Config, Tracer &Trace);

/// The metric names (and units) every untraced run reports; mirrored by
/// BENCHMARK.json's end_to_end list.
std::vector<std::pair<std::string, std::string>> endToEndNames();
/// The metric names (and units) every traced run reports, whatever the
/// workload: a layer the workload does not exercise reports 0 with no
/// samples. Mirrored by BENCHMARK.json's per_layer list.
std::vector<std::pair<std::string, std::string>> perLayerNames();

//===----------------------------------------------------------------------===//
// One-shot phase
//===----------------------------------------------------------------------===//

/// Per-relation (count, digest) of one program's declared relations.
using Signature = std::map<std::string, std::pair<std::size_t, std::uint64_t>>;

/// References: program name -> signature.
using References = std::map<std::string, Signature>;

/// Reads a references file (program, relation, count, digest per line).
std::optional<References> readReferences(const std::string &Path);
bool writeReferences(const std::string &Path, const References &Refs);

/// Evaluates \p P once on the legacy backend and returns its signature.
Signature legacySignature(const OneShotProgram &P, const std::string &FactDir);

/// Writes \p P's facts under \p Dir (one .facts file per relation).
void materializeFacts(const OneShotProgram &P, const std::string &Dir);

/// Resident set size of this process now, in MB.
double currentRssMb();
/// Peak resident set size of this process since the last resetPeakRss()
/// (or since it started), in MB.
double peakRssMb();
void resetPeakRss();

/// The machine block printed with every result (one JSON object).
std::string machineBlock();

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
