//===- perfbench/src/Measure.cpp - Statistics, spans, machine block -----------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "obs/Json.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <malloc.h>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>

using namespace perfbench;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

std::optional<double> perfbench::percentile(std::vector<double> Samples,
                                            double P) {
  const std::size_t N = Samples.size();
  if (N == 0 || P <= 0 || P >= 1)
    return std::nullopt;
  const auto Rank = static_cast<std::size_t>(std::ceil(P * N));
  if (Rank < 1 || N - Rank < MinTailSamples)
    return std::nullopt;
  std::nth_element(Samples.begin(), Samples.begin() + (Rank - 1),
                   Samples.end());
  return Samples[Rank - 1];
}

std::optional<double> perfbench::median(std::vector<double> Samples) {
  if (Samples.empty())
    return std::nullopt;
  std::sort(Samples.begin(), Samples.end());
  const std::size_t N = Samples.size();
  return N % 2 ? Samples[N / 2] : 0.5 * (Samples[N / 2 - 1] + Samples[N / 2]);
}

double perfbench::failRatio(std::uint64_t Failed, std::uint64_t Attempted) {
  return Attempted ? static_cast<double>(Failed) / Attempted : 0.0;
}

static std::uint64_t mix64(std::uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

std::uint64_t perfbench::tupleHash(const RamDomain *Tuple,
                                   std::size_t Arity) {
  std::uint64_t H = Arity;
  for (std::size_t I = 0; I < Arity; ++I)
    H = mix64(H ^ static_cast<std::uint32_t>(Tuple[I]));
  return mix64(H);
}

void RunResult::fail(const std::string &What) {
  ++Failed;
  if (Errors.size() < 8)
    Errors.push_back(What);
}

Metric perfbench::tailMetric(RunResult &R, const std::string &Name,
                             const std::vector<double> &Samples, double P,
                             const std::string &Unit) {
  const std::optional<double> Value = percentile(Samples, P);
  if (!Value)
    R.fail(Name + ": too few samples (" + std::to_string(Samples.size()) +
           ") for this percentile");
  return {Value.value_or(0), Unit, Samples.size()};
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

int Tracer::open(std::string Name, std::uint64_t RequestId) {
  if (!Enabled)
    return -1;
  Span S;
  S.Name = std::move(Name);
  S.Parent = Stack.empty() ? -1 : Stack.back();
  // Children inherit the request id of the span that caused them.
  S.RequestId = RequestId || S.Parent < 0 ? RequestId
                                          : Spans[S.Parent].RequestId;
  S.Start = Clock::now();
  Spans.push_back(std::move(S));
  Stack.push_back(static_cast<int>(Spans.size() - 1));
  return Stack.back();
}

void Tracer::close(int Id) {
  if (!Enabled || Id < 0)
    return;
  Spans[Id].End = Clock::now();
  // Spans close in LIFO order (RAII scopes).
  if (!Stack.empty() && Stack.back() == Id)
    Stack.pop_back();
}

std::string Tracer::chromeJson() const {
  using namespace stird::obs::json;
  Array Events;
  auto Micros = [this](Clock::time_point T) {
    return std::chrono::duration<double, std::micro>(T - Origin).count();
  };
  for (std::size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    Object Args;
    Args.emplace_back("id", static_cast<std::uint64_t>(I));
    Args.emplace_back("parent", static_cast<std::int64_t>(S.Parent));
    Args.emplace_back("request", S.RequestId);
    Object E;
    E.emplace_back("name", S.Name);
    E.emplace_back("cat", S.Name.substr(0, S.Name.find('.')));
    E.emplace_back("ph", std::string("X"));
    E.emplace_back("ts", Micros(S.Start));
    E.emplace_back("dur", Micros(S.End) - Micros(S.Start));
    E.emplace_back("pid", std::uint64_t(1));
    E.emplace_back("tid", std::uint64_t(1));
    E.emplace_back("args", std::move(Args));
    Events.emplace_back(std::move(E));
  }
  Object Doc;
  Doc.emplace_back("traceEvents", std::move(Events));
  Doc.emplace_back("displayTimeUnit", std::string("ms"));
  return Value(std::move(Doc)).dump();
}

std::map<std::string, double> Tracer::selfSeconds() const {
  std::vector<double> Self(Spans.size());
  for (std::size_t I = 0; I < Spans.size(); ++I)
    Self[I] =
        std::chrono::duration<double>(Spans[I].End - Spans[I].Start).count();
  // Children nest inside their parent (one thread), so subtracting each
  // child's duration leaves the parent's uncovered part.
  for (std::size_t I = 0; I < Spans.size(); ++I)
    if (Spans[I].Parent >= 0)
      Self[Spans[I].Parent] -= std::chrono::duration<double>(
                                   Spans[I].End - Spans[I].Start)
                                   .count();
  std::map<std::string, double> Out;
  for (std::size_t I = 0; I < Spans.size(); ++I)
    Out[Spans[I].Name] += std::max(0.0, Self[I]);
  return Out;
}

//===----------------------------------------------------------------------===//
// Process and machine
//===----------------------------------------------------------------------===//

double perfbench::currentRssMb() {
  std::ifstream In("/proc/self/statm");
  long Pages = 0, Resident = 0;
  In >> Pages >> Resident;
  return static_cast<double>(Resident) * sysconf(_SC_PAGESIZE) / 1048576.0;
}

void perfbench::resetPeakRss() {
  // Hand freed heap back first, so the count restarts from live memory;
  // "5" restarts the kernel's peak-RSS count (VmHWM) from the current RSS.
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double perfbench::peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // kB
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/// Seconds \p Threads threads take to each spin through the same fixed
/// amount of work concurrently.
static double spinSeconds(unsigned Threads) {
  constexpr std::uint64_t Work = 60'000'000;
  std::atomic<std::uint64_t> Sink{0};
  const auto Start = Clock::now();
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&Sink, T] {
      std::uint64_t X = T + 1;
      for (std::uint64_t I = 0; I < Work; ++I)
        X = X * 6364136223846793005ULL + 1442695040888963407ULL;
      Sink += X;
    });
  for (std::thread &T : Pool)
    T.join();
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

std::string perfbench::machineBlock() {
  using namespace stird::obs::json;
  const double One = spinSeconds(1);
  const double Four = spinSeconds(4);
  const char *Commit = std::getenv("PERFBENCH_COMMIT");
  const char *Digest = std::getenv("PERFBENCH_SRC_DIGEST");
#ifdef __OPTIMIZE__
  const bool Optimized = true;
#else
  const bool Optimized = false;
#endif
  Object O;
  O.emplace_back("commit", std::string(Commit ? Commit : "unknown"));
  O.emplace_back("src_digest", std::string(Digest ? Digest : "unknown"));
  O.emplace_back("compiler", std::string("g++ ") + __VERSION__);
  O.emplace_back("build_type", std::string(PERFBENCH_BUILD_TYPE));
  O.emplace_back("optimized", Optimized);
  O.emplace_back("nproc", static_cast<std::uint64_t>(
                              std::thread::hardware_concurrency()));
  O.emplace_back("spin1_s", One);
  O.emplace_back("spin4_over_spin1", Four / One);
  O.emplace_back("effective_cores", 4.0 * One / Four);
  O.emplace_back("eval_threads", std::uint64_t(1));
  O.emplace_back("note", std::string(
                             "evaluation runs at -j1; scheduler scaling is "
                             "not measured by this benchmark"));
  if (!Optimized)
    O.emplace_back("warning", std::string("NOT AN OPTIMIZED BUILD"));
  return Value(std::move(O)).dump();
}
