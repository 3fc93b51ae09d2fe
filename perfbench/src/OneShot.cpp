//===- perfbench/src/OneShot.cpp - The one-shot phase -------------------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//

#include "Phases.h"

#include "ast/Parser.h"
#include "ast/SemanticAnalysis.h"
#include "core/Program.h"
#include "ram/Transforms.h"
#include "synth/CompilerDriver.h"
#include "synth/CppSynthesizer.h"
#include "translate/AstToRam.h"
#include "translate/IndexSelection.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <malloc.h>
#include <sstream>

using namespace perfbench;
using namespace stird;

namespace {

double since(Clock::time_point From) {
  return std::chrono::duration<double>(Clock::now() - From).count();
}

Signature signatureOf(const core::Program &Prog, const interp::Engine &Eng) {
  Signature Sig;
  for (const auto &Decl : Prog.getAst().Relations) {
    const interp::RelationWrapper *Rel = Eng.getRelation(Decl->getName());
    std::size_t Count = 0;
    std::uint64_t Digest = 0;
    Rel->forEach([&](const RamDomain *Tuple) {
      ++Count;
      Digest += tupleHash(Tuple, Rel->getArity());
    });
    Sig[Decl->getName()] = {Count, Digest};
  }
  return Sig;
}

/// Times the compile phases one by one, in Program::fromSource's order and
/// with its default options, adding milliseconds to \p Layer.
void timeCompilePhases(const std::string &Source,
                       std::map<std::string, double> &Layer, Tracer *T) {
  Scope Probe(T, "probe.compile_phases");
  auto Step = [&](const char *Name, auto &&Fn) {
    Scope S(T, Name);
    const auto From = Clock::now();
    Fn();
    Layer[std::string(Name) + "_ms"] += 1e3 * since(From);
  };
  ast::ParseResult Parsed;
  Step("ast.parse", [&] { Parsed = ast::parseProgram(Source); });
  if (!Parsed.succeeded())
    return;
  ast::SemanticInfo Info;
  Step("ast.sema", [&] { Info = ast::analyze(*Parsed.Prog); });
  SymbolTable Symbols;
  translate::TranslationResult Translated;
  Step("translate.ram", [&] {
    Translated = translate::translateToRam(*Parsed.Prog, Info, Symbols);
  });
  if (!Translated.succeeded())
    return;
  Step("ram.opt", [&] {
    ram::foldConstants(*Translated.Prog, Symbols);
    ram::mergeAdjacentFilters(*Translated.Prog);
  });
  Step("translate.index",
       [&] { (void)translate::selectIndexes(*Translated.Prog); });
}

/// Sums the engine's counters into the pass's layer metrics.
void addEngineCounters(const interp::Engine &Eng,
                       std::map<std::string, double> &Layer) {
  double Rules = 0;
  for (const interp::RuleProfile &R : Eng.getProfiler().rules())
    Rules += R.Seconds;
  Layer["interp.rules_ms"] += 1e3 * Rules;
  Layer["interp.dispatches"] += static_cast<double>(Eng.getNumDispatches());
  for (const obs::RelationStats &S : Eng.getStats()) {
    Layer["der.inserts"] += S.Inserts;
    Layer["der.inserts_new"] += S.InsertsNew;
    Layer["der.point_lookups"] += S.PointLookups;
    Layer["der.range_scans"] += S.RangeScans;
    Layer["der.tuples_visited"] += S.ScanTuples + S.IndexScanTuples;
    Layer["der.index_scans"] += S.IndexScans;
    Layer["der.index_scan_hits"] += S.IndexScanHits;
  }
}

} // namespace

void perfbench::materializeFacts(const OneShotProgram &P,
                                 const std::string &Dir) {
  std::filesystem::create_directories(Dir);
  for (const auto &[Relation, Tuples] : P.Facts) {
    std::string Text;
    for (const DynTuple &Tuple : Tuples) {
      for (std::size_t I = 0; I < Tuple.size(); ++I) {
        if (I)
          Text += '\t';
        Text += std::to_string(Tuple[I]);
      }
      Text += '\n';
    }
    std::ofstream(Dir + "/" + Relation + ".facts") << Text;
  }
}

Signature perfbench::legacySignature(const OneShotProgram &P,
                                     const std::string &FactDir) {
  std::vector<std::string> Errors;
  auto Prog = core::Program::fromSource(P.Source, &Errors);
  if (!Prog)
    return {};
  interp::EngineOptions Opts;
  Opts.TheBackend = interp::Backend::Legacy;
  Opts.FactDir = FactDir;
  Opts.OutputDir = FactDir + "/legacy-out";
  Opts.EchoPrintSize = false;
  std::filesystem::create_directories(Opts.OutputDir);
  auto Eng = Prog->makeEngine(Opts);
  Eng->run();
  return signatureOf(*Prog, *Eng);
}

std::optional<References> perfbench::readReferences(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return std::nullopt;
  References Refs;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Fields(Line);
    std::string Program, Relation;
    std::size_t Count = 0;
    std::uint64_t Hash = 0;
    if (!(Fields >> Program >> Relation >> Count >> Hash))
      return std::nullopt;
    Refs[Program][Relation] = {Count, Hash};
  }
  return Refs;
}

bool perfbench::writeReferences(const std::string &Path,
                                const References &Refs) {
  std::ofstream Out(Path);
  Out << "# program relation tuple_count order_independent_digest\n";
  for (const auto &[Program, Sig] : Refs)
    for (const auto &[Relation, CountHash] : Sig)
      Out << Program << '\t' << Relation << '\t' << CountHash.first << '\t'
          << CountHash.second << '\n';
  return static_cast<bool>(Out);
}

OneShotRunner::OneShotRunner(const Workload &W,
                             const std::vector<std::string> &FactDirs,
                             std::string OutDir, const References &Refs,
                             Tracer *T)
    : W(W), FactDirs(FactDirs), OutDir(std::move(OutDir)), Refs(Refs), T(T) {}

void OneShotRunner::runFor(double Seconds, RunResult &Result) {
  Scope Slice(T, "oneshot.slice");
  const auto From = Clock::now();
  do
    runNext(Result);
  while (since(From) < Seconds);
}

void OneShotRunner::finish(std::size_t MinPasses, RunResult &Result) {
  while (Passes.size() < MinPasses || Next != 0)
    runNext(Result);
}

void OneShotRunner::runNext(RunResult &Result) {
  const OneShotProgram &P = W.OneShot[Next];
  const bool Traced = T && T->enabled();
  Scope ProgramSpan(T, "oneshot." + P.Name, Passes.size() + 1);

  interp::EngineOptions Opts;
  Opts.FactDir = FactDirs[Next];
  Opts.OutputDir = OutDir;
  Opts.EchoPrintSize = false;
  Opts.NumThreads = 1;
  double Compile = 0, Engine = 0, Run = 0;
  std::vector<std::string> Errors;
  std::unique_ptr<core::Program> Prog;
  std::unique_ptr<interp::Engine> Eng;
  {
    Scope S(T, "core.compile");
    const auto From = Clock::now();
    Prog = core::Program::fromSource(P.Source, &Errors);
    Compile = since(From);
  }
  if (Prog) {
    {
      Scope S(T, "interp.engine");
      const auto From = Clock::now();
      Eng = Prog->makeEngine(Opts);
      Engine = since(From);
    }
    Scope S(T, "interp.run");
    const auto From = Clock::now();
    Eng->run();
    Run = since(From);
  }
  Current.Program[P.Name] = Compile + Engine + Run;

  // Off the clock: the outputs against the reference.
  {
    Scope Check(T, "check.outputs");
    ++Result.Attempted;
    auto Ref = Refs.find(P.Name);
    if (!Prog)
      Result.fail(P.Name + ": compile failed: " +
                  (Errors.empty() ? "?" : Errors[0]));
    else if (Ref == Refs.end())
      Result.fail(P.Name + ": no reference");
    else if (signatureOf(*Prog, *Eng) != Ref->second)
      Result.fail(P.Name + ": outputs differ from the reference");
    if (Eng && !Eng->getIoErrors().empty())
      Result.fail(P.Name + ": malformed fact rows");
  }
  // Off the clock and after the timed compile, so that one stays cold.
  if (Traced)
    timeCompilePhases(P.Source, Current.Layer, T);
  if (Traced && Eng) {
    Current.Layer["core.compile_ms"] += 1e3 * Compile;
    Current.Layer["interp.engine_ms"] += 1e3 * Engine;
    Current.Layer["interp.run_ms"] += 1e3 * Run;
    addEngineCounters(*Eng, Current.Layer);
  }
  // Off the clock: hand the program's freed heap back, so every program
  // starts from live memory only, as in a fresh process. Otherwise
  // peak_rss_mb varies between runs by up to a quarter.
  Eng.reset();
  Prog.reset();
  malloc_trim(0);
  if (++Next == W.OneShot.size()) {
    Passes.push_back(std::move(Current));
    Current = {};
    Next = 0;
  }
}

std::optional<std::string> perfbench::synthBinary(const std::string &Source,
                                                  const std::string &CacheDir) {
  auto Prog = core::Program::fromSource(Source);
  if (!Prog)
    return std::nullopt;
  const std::string Cpp = synth::synthesize(
      Prog->getRam(), Prog->getIndexes(), Prog->getSymbolTable());
  // Keyed by the generated source, so a synthesizer change rebuilds.
  const std::string Dir =
      CacheDir + "/" + std::to_string(std::hash<std::string>{}(Cpp));
  const std::string Binary = Dir + "/synth.bin";
  if (std::filesystem::exists(Dir + "/ready"))
    return Binary;
  std::filesystem::create_directories(Dir);
  auto Compiled = synth::compileSynthesized(Cpp, Dir, "synth");
  if (!Compiled)
    return std::nullopt;
  std::ofstream(Dir + "/ready") << Compiled->CompileSeconds << "\n";
  return Binary;
}

std::optional<double>
perfbench::stiOverSynth(const Workload &W,
                        const std::vector<std::string> &FactDirs,
                        const std::map<std::string, double> &StiSeconds,
                        const std::string &CacheDir, const References &Refs,
                        RunResult &Result) {
  double LogSum = 0;
  std::size_t N = 0;
  for (std::size_t I = 0; I < W.OneShot.size(); ++I) {
    const OneShotProgram &P = W.OneShot[I];
    ++Result.Attempted;
    std::optional<std::string> Binary = synthBinary(P.Source, CacheDir);
    auto Sti = StiSeconds.find(P.Name);
    if (!Binary || Sti == StiSeconds.end()) {
      Result.fail(P.Name + (Binary ? ": no STI time"
                                   : ": synthesized binary failed to build"));
      continue;
    }
    const std::string OutDir = FactDirs[I] + "/synth-out";
    std::filesystem::create_directories(OutDir);
    synth::RunOutcome Run =
        synth::runSynthesized(*Binary, FactDirs[I], OutDir, false);
    if (Run.ExitCode != 0) {
      Result.fail(P.Name + ": synthesized binary failed");
      continue;
    }
    auto Ref = Refs.find(P.Name);
    if (Ref != Refs.end())
      for (const auto &[Relation, Size] : Run.RelationSizes) {
        auto It = Ref->second.find(Relation);
        if (It != Ref->second.end() && It->second.first != Size)
          Result.fail(P.Name + ": synthesized size of " + Relation +
                      " differs from the reference");
      }
    LogSum += std::log(Sti->second / Run.WallSeconds);
    ++N;
  }
  if (N == 0)
    return std::nullopt;
  return std::exp(LogSum / static_cast<double>(N));
}
