//===- perfbench/src/main.cpp - Benchmark entry point -------------------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
///           [--work-dir DIR] [--refs FILE]
///   Runs one workload. Prints a human-readable report (machine block and
///   every metric with its unit and sample count) and, as the last line of
///   stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}
///   with the end-to-end metrics (--trace 0) or the per-layer ones
///   (--trace 1).
///
/// perfbench --write-refs FILE [--work-dir DIR]
///   Evaluates every one-shot program of the default seed on the legacy
///   backend and as synthesized C++, checks that both agree, and writes
///   the reference file.
///
/// perfbench --prepare [--work-dir DIR]
///   Compiles the synthesized fig15 binaries into the cache, so traced runs
///   only run them.
///
//===----------------------------------------------------------------------===//

#include "Phases.h"

#include "synth/CompilerDriver.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sched.h>
#include <stdexcept>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--work-dir DIR] [--refs FILE]\n"
               "       perfbench --write-refs FILE | --prepare "
               "[--work-dir DIR]\nworkloads:",
               Why);
  for (const std::string &W : workloadNames())
    std::fprintf(stderr, " %s", W.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

int writeRefs(const std::string &Path, const std::string &WorkDir) {
  References Refs;
  bool Agree = true;
  for (const std::string &Name : workloadNames()) {
    const Workload W = *makeWorkload(Name, DefaultSeed);
    for (const OneShotProgram &P : W.OneShot) {
      const std::string Dir = WorkDir + "/refs-gen/" + P.Name;
      materializeFacts(P, Dir);
      const Signature Legacy = legacySignature(P, Dir);
      std::optional<std::string> Binary =
          synthBinary(P.Source, WorkDir + "/synth");
      if (!Binary) {
        std::fprintf(stderr, "%s: synthesized binary failed to build\n",
                     P.Name.c_str());
        return 1;
      }
      std::filesystem::create_directories(Dir + "/synth-out");
      const stird::synth::RunOutcome Run =
          stird::synth::runSynthesized(*Binary, Dir, Dir + "/synth-out", false);
      std::size_t Compared = 0;
      for (const auto &[Relation, CountHash] : Legacy) {
        auto It = Run.RelationSizes.find(Relation);
        if (It == Run.RelationSizes.end())
          continue;
        ++Compared;
        if (It->second != CountHash.first) {
          std::fprintf(stderr, "%s: %s has %zu tuples on legacy, %zu "
                               "synthesized\n",
                       P.Name.c_str(), Relation.c_str(), CountHash.first,
                       It->second);
          Agree = false;
        }
      }
      if (Run.ExitCode != 0 || Compared != Legacy.size()) {
        std::fprintf(stderr, "%s: synthesized run compared %zu of %zu "
                             "relations (exit %d)\n",
                     P.Name.c_str(), Compared, Legacy.size(), Run.ExitCode);
        Agree = false;
      }
      std::fprintf(stderr, "%s: %zu relations agree\n", P.Name.c_str(),
                   Compared);
      Refs[P.Name] = Legacy;
    }
  }
  if (!Agree)
    return 1;
  return writeReferences(Path, Refs) ? 0 : 1;
}

int prepare(const std::string &WorkDir) {
  const Workload W = *makeWorkload("fig15-exec", DefaultSeed);
  int Status = 0;
  for (const OneShotProgram &P : W.OneShot)
    if (!synthBinary(P.Source, WorkDir + "/synth")) {
      std::fprintf(stderr, "%s: synthesized binary failed to build\n",
                   P.Name.c_str());
      Status = 1;
    }
  return Status;
}

void printMetrics(const char *Kind, const std::map<std::string, Metric> &M) {
  for (const auto &[Name, Value] : M)
    std::printf("# %-9s %-34s %16.6f %-6s n=%zu\n", Kind, Name.c_str(),
                Value.Value, Value.Unit.c_str(), Value.Samples);
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig Config;
  std::string WriteRefs;
  bool Prepare = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    auto value = [&]() -> std::string {
      if (I + 1 >= Argc)
        throw std::invalid_argument(Arg + " needs a value");
      return Argv[++I];
    };
    try {
      if (Arg == "--workload")
        Config.Workload = value();
      else if (Arg == "--seed")
        Config.Seed = std::stoull(value());
      else if (Arg == "--seconds")
        Config.Seconds = std::stod(value());
      else if (Arg == "--trace")
        Config.Trace = std::stoi(value()) != 0;
      else if (Arg == "--work-dir")
        Config.WorkDir = value();
      else if (Arg == "--refs")
        Config.RefsPath = value();
      else if (Arg == "--write-refs")
        WriteRefs = value();
      else if (Arg == "--prepare")
        Prepare = true;
      else
        return usage(("unknown argument " + Arg).c_str());
    } catch (const std::exception &E) {
      return usage(E.what());
    }
  }
  if (!WriteRefs.empty())
    return writeRefs(WriteRefs, Config.WorkDir);
  if (Prepare)
    return prepare(Config.WorkDir);
  const std::vector<std::string> Names = workloadNames();
  if (std::find(Names.begin(), Names.end(), Config.Workload) == Names.end())
    return usage("unknown or missing --workload");
  if (!(Config.Seconds > 0))
    return usage("--seconds must be positive");

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              Config.Workload.c_str(),
              static_cast<unsigned long long>(Config.Seed), Config.Seconds,
              Config.Trace ? 1 : 0);
  std::printf("# machine %s\n", machineBlock().c_str());
  // Evaluation is -j1 and a shared machine may lend one core: pin the whole
  // process (server threads included) to one CPU, so wake-ups between the
  // client, the event loop and the pool do not depend on migrations.
  const int Cpu = sched_getcpu();
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (Cpu >= 0)
    CPU_SET(Cpu, &Set);
  if (Cpu >= 0 && sched_setaffinity(0, sizeof(Set), &Set) == 0)
    std::printf("# pinned to cpu %d\n", Cpu);
  else
    std::printf("# not pinned\n");
  std::fflush(stdout);

  Tracer Trace(Config.Trace);
  RunResult Result;
  try {
    Result = runWorkload(Config, Trace);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 1;
  }

  // Exactly the declared metric set, every value finite.
  std::map<std::string, Metric> &Reported =
      Config.Trace ? Result.PerLayer : Result.EndToEnd;
  for (const auto &[Name, Unit] :
       Config.Trace ? perLayerNames() : endToEndNames())
    if (!Reported.count(Name))
      Reported[Name] = {0, Unit, 0};
  for (auto &[Name, M] : Reported)
    if (!std::isfinite(M.Value)) {
      Result.fail(Name + " is not finite");
      M.Value = 0;
    }

  printMetrics("end2end", Result.EndToEnd);
  printMetrics("layer", Result.PerLayer);
  printMetrics("report", Result.ReportOnly);
  std::printf("# %-9s %-34s %16.6f %-6s n=%llu\n", "end2end", "fail_ratio",
              failRatio(Result.Failed, Result.Attempted), "ratio",
              static_cast<unsigned long long>(Result.Attempted));
  for (const std::string &E : Result.Errors)
    std::printf("# failure: %s\n", E.c_str());

  std::string Json = "{\"correct\": ";
  Json += Result.Failed == 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(Result.Attempted);
  Json += ", \"failed\": " + std::to_string(Result.Failed);
  Json += ", \"metrics\": {";
  bool First = true;
  char Buf[64];
  for (const auto &[Name, M] : Reported) {
    std::snprintf(Buf, sizeof(Buf), "%.17g", M.Value);
    Json += (First ? "\"" : ", \"") + Name + "\": {\"value\": " + Buf +
            ", \"unit\": \"" + M.Unit + "\"}";
    First = false;
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
