//===- perfbench/src/Run.cpp - One run of one workload ------------------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//

#include "Phases.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

using namespace perfbench;

namespace {

/// Fewest batches a run sends: the write p99 needs 1000 samples.
constexpr std::uint64_t MinServeBatches = 1000;
/// Times the whole set-up is repeated; setup_s is the median.
constexpr int SetupRepeats = 9;
/// Fewest complete one-shot passes (per runner, in a traced run).
constexpr std::size_t MinPasses = 2;

double since(Clock::time_point From) {
  return std::chrono::duration<double>(Clock::now() - From).count();
}

std::string workDirOf(const RunConfig &C) {
  return C.WorkDir + "/" + C.Workload + "/seed-" + std::to_string(C.Seed);
}

/// The reference signatures of every one-shot program: the committed file
/// for the default seed, otherwise a legacy-backend evaluation (cached per
/// seed in the work directory). Computed off the clock.
References loadReferences(const RunConfig &C, const Workload &W,
                          const std::vector<std::string> &FactDirs,
                          Tracer &T) {
  auto Covers = [&W](const References &R) {
    for (const OneShotProgram &P : W.OneShot)
      if (!R.count(P.Name))
        return false;
    return true;
  };
  if (C.Seed == DefaultSeed && !C.RefsPath.empty())
    if (auto Committed = readReferences(C.RefsPath); Committed &&
                                                     Covers(*Committed))
      return *Committed;
  const std::string Cache = workDirOf(C) + "/legacy.refs";
  if (auto Cached = readReferences(Cache); Cached && Covers(*Cached))
    return *Cached;
  Scope S(&T, "check.legacy_reference");
  References Refs;
  for (std::size_t I = 0; I < W.OneShot.size(); ++I)
    Refs[W.OneShot[I].Name] = legacySignature(W.OneShot[I], FactDirs[I]);
  writeReferences(Cache, Refs);
  return Refs;
}

/// Median over passes of one layer value (0 when no pass recorded it).
double passMedian(const std::vector<PassResult> &Passes,
                  const std::string &Key) {
  std::vector<double> V;
  for (const PassResult &P : Passes) {
    auto It = P.Layer.find(Key);
    V.push_back(It == P.Layer.end() ? 0 : It->second);
  }
  return median(V).value_or(0);
}

void writeTraceFiles(const RunConfig &C, const Tracer &T,
                     const RunResult &R) {
  const std::string Dir = C.WorkDir + "/traces";
  std::filesystem::create_directories(Dir);
  const std::string Base =
      Dir + "/" + C.Workload + "-seed" + std::to_string(C.Seed);
  std::ofstream(Base + ".trace.json") << T.chromeJson() << "\n";

  // Self time per span name and per layer (the name's first component).
  const std::map<std::string, double> Self = T.selfSeconds();
  std::map<std::string, double> ByLayer;
  double Total = 0;
  for (const auto &[Name, Seconds] : Self) {
    ByLayer[Name.substr(0, Name.find('.'))] += Seconds;
    Total += Seconds;
  }
  std::ofstream Out(Base + ".summary.json");
  Out << "{\n  \"workload\": \"" << C.Workload << "\",\n  \"seed\": "
      << C.Seed << ",\n  \"layers\": {";
  bool First = true;
  for (const auto &[Layer, Seconds] : ByLayer) {
    Out << (First ? "\n" : ",\n") << "    \"" << Layer
        << "\": {\"self_s\": " << Seconds
        << ", \"share\": " << (Total > 0 ? Seconds / Total : 0) << "}";
    First = false;
  }
  Out << "\n  },\n  \"spans\": {";
  First = true;
  for (const auto &[Name, Seconds] : Self) {
    Out << (First ? "\n" : ",\n") << "    \"" << Name
        << "\": {\"self_s\": " << Seconds << "}";
    First = false;
  }
  Out << "\n  },\n  \"per_layer\": {";
  First = true;
  for (const auto &[Name, M] : R.PerLayer) {
    Out << (First ? "\n" : ",\n") << "    \"" << Name
        << "\": {\"value\": " << M.Value << ", \"unit\": \"" << M.Unit
        << "\", \"samples\": " << M.Samples << "}";
    First = false;
  }
  Out << "\n  }\n}\n";
  std::fprintf(stderr, "# trace: %s.trace.json\n# self time by layer:\n",
               Base.c_str());
  for (const auto &[Layer, Seconds] : ByLayer)
    std::fprintf(stderr, "#   %-10s %9.4f s  %5.1f%%\n", Layer.c_str(),
                 Seconds, Total > 0 ? 100 * Seconds / Total : 0.0);
}

} // namespace

std::vector<std::pair<std::string, std::string>> perfbench::endToEndNames() {
  return {{"oneshot_s", "s"},      {"write_p50_ms", "ms"},
          {"write_p99_ms", "ms"},  {"query_p50_us", "us"},
          {"query_p99_us", "us"},  {"ops_per_s", "1/s"},
          {"setup_s", "s"},        {"peak_rss_mb", "MB"}};
}

std::vector<std::pair<std::string, std::string>> perfbench::perLayerNames() {
  std::vector<std::pair<std::string, std::string>> Names = {
      {"ast.parse_ms", "ms"},
      {"ast.sema_ms", "ms"},
      {"translate.ram_ms", "ms"},
      {"translate.index_ms", "ms"},
      {"ram.opt_ms", "ms"},
      {"core.compile_ms", "ms"},
      {"core.compile_share_pct", "%"},
      {"core.phase_sum_pct", "%"},
      {"interp.engine_ms", "ms"},
      {"interp.run_ms", "ms"},
      {"interp.rules_ms", "ms"},
      {"interp.glue_ms", "ms"},
      {"interp.dispatches", "count"},
      {"interp.sti_over_synth", "ratio"},
      {"der.inserts", "count"},
      {"der.point_lookups", "count"},
      {"der.range_scans", "count"},
      {"der.tuples_visited", "count"},
      {"der.insert_new_ratio", "ratio"},
      {"der.index_hit_ratio", "ratio"},
      {"inc.apply_p50_ms", "ms"},
      {"inc.rederive_ratio", "ratio"},
      {"inc.reeval_strata", "count"},
      {"inc.derived_changes", "count"},
      {"srv.apply_mixed_p50_ms", "ms"},
      {"srv.leftright_ratio", "ratio"},
      {"srv.write_share_pct", "%"},
      {"srv.snapshot_query_p50_us", "us"},
      {"srv.rss_growth_mb", "MB"},
      {"wire.handle_miss_p50_us", "us"},
      {"wire.handle_hit_p50_us", "us"},
      {"wire.load_p50_ms", "ms"},
      {"wire.cache_hit_ratio", "ratio"},
      {"server.overhead_p50_us", "us"},
      {"server.overhead_p99_us", "us"},
      {"trace.overhead_pct", "%"},
  };
  return Names;
}

RunResult perfbench::runWorkload(const RunConfig &C, Tracer &T) {
  RunResult R;
  Tracer *Traced = T.enabled() ? &T : nullptr;

  // Set-up, repeated: input generation, fact materialization, session boot
  // and initial load. The last repetition's state is the one measured.
  std::optional<Workload> W;
  std::vector<std::string> FactDirs;
  std::unique_ptr<ServingPhase> Serve;
  std::vector<double> SetupSeconds;
  for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
    Serve.reset();
    const auto From = Clock::now();
    Scope S(Traced, "setup");
    {
      Scope G(Traced, "setup.generate");
      W = makeWorkload(C.Workload, C.Seed);
    }
    FactDirs.clear();
    {
      Scope M(Traced, "setup.materialize");
      for (const OneShotProgram &P : W->OneShot) {
        FactDirs.push_back(workDirOf(C) + "/" + P.Name);
        materializeFacts(P, FactDirs.back());
      }
    }
    Serve = std::make_unique<ServingPhase>(*W, Traced);
    SetupSeconds.push_back(since(From));
  }
  const double RssAfterSetup = currentRssMb();
  const References Refs = loadReferences(C, *W, FactDirs, T);
  // The legacy reference is off the clock and, when computed in this run,
  // the largest resident set; peak_rss_mb covers set-up state and the
  // measured phases only.
  resetPeakRss();
  const std::string OutDir = workDirOf(C) + "/out";
  std::filesystem::create_directories(OutDir);

  // The one-shot and serving phases alternate in Rounds slices, so a slow
  // spell of the machine touches a few samples of every metric rather than
  // all samples of one. A traced run spends half of each one-shot slice
  // untraced, so the tracing overhead is measured within the run.
  constexpr int Rounds = 6;
  const double OneShotSlice = C.Seconds * W->OneShotShare / Rounds;
  const auto Batches = std::max<std::uint64_t>(
      MinServeBatches,
      std::llround(W->ServeBatchesPerSecond * C.Seconds *
                   (1 - W->OneShotShare)));
  OneShotRunner Plain(*W, FactDirs, OutDir, Refs, nullptr);
  OneShotRunner TracedRunner(*W, FactDirs, OutDir, Refs, Traced);
  for (int Round = 0; Round < Rounds; ++Round) {
    Plain.runFor(Traced ? OneShotSlice / 2 : OneShotSlice, R);
    if (Traced)
      TracedRunner.runFor(OneShotSlice / 2, R);
    Serve->run(Batches * (Round + 1) / Rounds, R, Traced);
  }
  Plain.finish(MinPasses, R);
  if (Traced)
    TracedRunner.finish(MinPasses, R);
  Serve->finish(R, Traced);
  const std::vector<PassResult> &TracedPasses = TracedRunner.passes();

  // A pass's time is the sum of its programs' times, each the fastest of
  // the run's passes: a program's own work is the same on every pass, and
  // contention from other tenants of a shared machine only ever adds time.
  auto passSeconds = [&W](const std::vector<PassResult> &Passes) {
    double Sum = 0;
    for (const OneShotProgram &P : W->OneShot) {
      double Fastest = 0;
      for (const PassResult &Pass : Passes)
        Fastest = Fastest == 0 ? Pass.Program.at(P.Name)
                               : std::min(Fastest, Pass.Program.at(P.Name));
      Sum += Fastest;
    }
    return Sum;
  };
  auto pct = [](const std::vector<double> &V, double P) {
    return percentile(V, P).value_or(0);
  };
  const double OneShot = passSeconds(Plain.passes());
  const double WriteP50 = pct(Serve->WriteMs, 0.5);

  if (!Traced) {
    auto &E = R.EndToEnd;
    E["oneshot_s"] = {OneShot, "s", Plain.passes().size()};
    E["write_p50_ms"] =
        tailMetric(R, "write_p50_ms", Serve->WriteMs, 0.5, "ms");
    E["write_p99_ms"] =
        tailMetric(R, "write_p99_ms", Serve->WriteMs, 0.99, "ms");
    E["query_p50_us"] =
        tailMetric(R, "query_p50_us", Serve->QueryUs, 0.5, "us");
    E["query_p99_us"] =
        tailMetric(R, "query_p99_us", Serve->QueryUs, 0.99, "us");
    const std::size_t Ops = Serve->WriteMs.size() + Serve->QueryUs.size();
    E["ops_per_s"] = {Serve->BusySeconds > 0 ? Ops / Serve->BusySeconds : 0,
                      "1/s", Ops};
    E["setup_s"] = {median(SetupSeconds).value_or(0), "s",
                    SetupSeconds.size()};
    E["peak_rss_mb"] = {peakRssMb(), "MB", 1};
    return R;
  }

  // Per-layer metrics of the traced run.
  Serve->probeLayers(R, Traced);
  auto &L = R.PerLayer;
  const std::size_t N = TracedPasses.size();
  for (const char *Key :
       {"ast.parse_ms", "ast.sema_ms", "translate.ram_ms", "translate.index_ms",
        "ram.opt_ms", "core.compile_ms", "interp.engine_ms", "interp.run_ms",
        "interp.rules_ms"})
    L[Key] = {passMedian(TracedPasses, Key), "ms", N};
  L["interp.glue_ms"] = {L["interp.run_ms"].Value - L["interp.rules_ms"].Value,
                         "ms", N};
  // The phases are timed one by one after each program, off the clock; their
  // sum against fromSource as a whole shows whether they still cover it.
  double PhaseSum = 0;
  for (const char *Key : {"ast.parse_ms", "ast.sema_ms", "translate.ram_ms",
                          "ram.opt_ms", "translate.index_ms"})
    PhaseSum += L[Key].Value;
  const double CompileMs = L["core.compile_ms"].Value;
  L["core.phase_sum_pct"] = {CompileMs > 0 ? 100 * PhaseSum / CompileMs : 0,
                             "%", N};
  for (const char *Key : {"interp.dispatches", "der.inserts",
                          "der.point_lookups", "der.range_scans",
                          "der.tuples_visited"})
    L[Key] = {passMedian(TracedPasses, Key), "count", N};
  auto ratio = [&](const char *Num, const char *Den) -> Metric {
    const double D = passMedian(TracedPasses, Den);
    return {D > 0 ? passMedian(TracedPasses, Num) / D : 0, "ratio",
            static_cast<std::size_t>(D)};
  };
  L["der.insert_new_ratio"] = ratio("der.inserts_new", "der.inserts");
  L["der.index_hit_ratio"] = ratio("der.index_scan_hits", "der.index_scans");
  const double TracedOneShot = passSeconds(TracedPasses);
  L["core.compile_share_pct"] = {
      TracedOneShot > 0
          ? 100 * L["core.compile_ms"].Value / (1e3 * TracedOneShot)
          : 0,
      "%", N};
  L["trace.overhead_pct"] = {
      OneShot > 0 ? 100 * (TracedOneShot - OneShot) / OneShot : 0, "%",
      Plain.passes().size() + N};

  // Per-program wall time of the fig15 programs (median of the untraced
  // passes), and the interpretive overhead against synthesized C++.
  std::map<std::string, double> ProgramSeconds;
  for (const OneShotProgram &P : W->OneShot) {
    std::vector<double> V;
    for (const PassResult &Pass : Plain.passes())
      V.push_back(Pass.Program.at(P.Name));
    ProgramSeconds[P.Name] = median(V).value_or(0);
  }
  const bool Fig15 = C.Workload == "fig15-exec";
  if (Fig15)
    for (const std::string &Name : fig15ProgramNames())
      R.ReportOnly["run." + Name + "_ms"] = {1e3 * ProgramSeconds[Name], "ms",
                                             Plain.passes().size()};
  std::optional<double> Ratio;
  if (Fig15) {
    Scope S(Traced, "probe.synth");
    Ratio = stiOverSynth(*W, FactDirs, ProgramSeconds, C.WorkDir + "/synth",
                         Refs, R);
    if (!Ratio)
      R.fail("interp.sti_over_synth: no synthesized binary ran");
  }
  L["interp.sti_over_synth"] = {Ratio.value_or(0), "ratio",
                                Ratio ? W->OneShot.size() : 0};

  // Serving layers seen from the client side.
  L["server.overhead_p50_us"] = {pct(Serve->OverheadUs, 0.5), "us",
                                 Serve->OverheadUs.size()};
  L["server.overhead_p99_us"] = {pct(Serve->OverheadUs, 0.99), "us",
                                 Serve->OverheadUs.size()};
  const double Lookups = Serve->CacheHits + Serve->CacheMisses;
  L["wire.cache_hit_ratio"] = {Lookups > 0 ? Serve->CacheHits / Lookups : 0,
                               "ratio", static_cast<std::size_t>(Lookups)};
  L["srv.write_share_pct"] = {
      WriteP50 > 0 ? 100 * L["srv.apply_mixed_p50_ms"].Value / WriteP50 : 0,
      "%", Serve->WriteMs.size()};
  L["srv.rss_growth_mb"] = {currentRssMb() - RssAfterSetup, "MB", 1};
  writeTraceFiles(C, T, R);
  return R;
}
