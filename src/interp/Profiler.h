//===- interp/Profiler.h - Per-rule execution profiling ---------*- C++ -*-===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Soufflé-profiler analog: accumulates wall time, invocation counts,
/// dispatch counts and produced-tuple deltas per LogTimer label (one label
/// per rule version), keeping every individual sample of the main run so
/// recursive rules expose their full stratum → version → iteration
/// hierarchy. Maintenance executions of a resident engine add to the
/// totals only: one sample per rule and batch would grow without bound. Drives the
/// Section 5.2 case study (Fig 16), the dispatch-elimination measurement
/// of the super-instruction experiment (Fig 19), and the JSON profile sink
/// of the observability layer.
///
//===----------------------------------------------------------------------===//

#ifndef STIRD_INTERP_PROFILER_H
#define STIRD_INTERP_PROFILER_H

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace stird::interp {

/// Static position of a rule version in the program: which stratum emitted
/// it, which relation its head writes, and which semi-naive version it is.
/// Defaults describe a rule registered without translation metadata
/// (hand-built profilers in tests, non-rule timers).
struct RuleMeta {
  int Stratum = -1;
  std::string Relation;
  /// Semi-naive version index ([vN] in the label); -1 for non-recursive.
  int Version = -1;
  bool Recursive = false;
  /// The planner that ordered the rule body: "source" or "max-bound" (""
  /// when unknown).
  std::string Sips;
  /// Chosen join order: element i is the source-order body-atom index
  /// scanned at depth i. Empty for non-rule timers.
  std::vector<int> AtomOrder;
  /// Parallel-rule group id: rules sharing an id were found pairwise
  /// independent and run as concurrent jobs on the scheduler; -1 for
  /// ungrouped (sequential) rules and non-rule timers.
  int ParGroup = -1;
};

/// One timed execution of a rule. For a recursive rule the samples line up
/// with the fixpoint loop's iterations, so the sequence of DeltaTuples is
/// the rule's semi-naive convergence curve.
struct IterationSample {
  double Seconds = 0;
  std::uint64_t Dispatches = 0;
  /// Tuples the target relation gained during this execution.
  std::uint64_t DeltaTuples = 0;
};

/// Accumulated statistics of one rule version.
struct RuleProfile {
  std::string Label;
  RuleMeta Meta;
  double Seconds = 0;
  std::uint64_t Invocations = 0;
  std::uint64_t Dispatches = 0;
  std::uint64_t DeltaTuples = 0;
  /// Per-execution samples of the executions recorded while sampling was
  /// on (Engine::run), in execution order (iteration order for rules
  /// inside a fixpoint loop).
  std::vector<IterationSample> Iterations;
};

/// Collects per-rule statistics across a run.
class Profiler {
public:
  /// Registers \p Label (idempotent) and returns its dense id.
  std::size_t registerRule(const std::string &Label) {
    return registerRule(Label, RuleMeta{});
  }

  /// Registers \p Label with its translation metadata. Idempotent on the
  /// label; the first registration's metadata wins.
  std::size_t registerRule(const std::string &Label, RuleMeta Meta);

  /// Accumulates one timed execution of rule \p Id. Thread-safe: LogTimer
  /// currently fires on the main thread only, but the profiler must not be
  /// the reason rules inside parallel sections can't be timed — recording
  /// is cold (once per rule invocation), so one mutex suffices.
  void record(std::size_t Id, double Seconds, std::uint64_t Dispatches,
              std::uint64_t DeltaTuples = 0) {
    std::lock_guard<std::mutex> Lock(M);
    RuleProfile &Profile = Rules[Id];
    Profile.Seconds += Seconds;
    Profile.Invocations += 1;
    Profile.Dispatches += Dispatches;
    Profile.DeltaTuples += DeltaTuples;
    if (Sampling)
      Profile.Iterations.push_back({Seconds, Dispatches, DeltaTuples});
  }

  /// Whether record() appends an IterationSample (on by default). Call
  /// only while no rule executes.
  void setSampling(bool On) {
    std::lock_guard<std::mutex> Lock(M);
    Sampling = On;
  }

  /// Snapshot of every rule profile, copied under the mutex: safe to call
  /// concurrently with record().
  std::vector<RuleProfile> rules() const {
    std::lock_guard<std::mutex> Lock(M);
    return Rules;
  }

  /// Snapshot of one rule's accumulated profile by label; nullopt if the
  /// label was never registered.
  std::optional<RuleProfile> find(const std::string &Label) const;

private:
  std::vector<RuleProfile> Rules;
  std::unordered_map<std::string, std::size_t> IdOf;
  bool Sampling = true;
  mutable std::mutex M;
};

} // namespace stird::interp

#endif // STIRD_INTERP_PROFILER_H
