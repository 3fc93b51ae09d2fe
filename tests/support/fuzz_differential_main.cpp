//===- tests/support/fuzz_differential_main.cpp - Differential fuzz driver -----===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// stird_fuzz: the open-ended version of DifferentialSipsTest and the
/// maintenance differential suite. Walks seeds forward from a starting
/// point (--seed, or the wall clock when omitted) for a wall-clock time
/// budget (--seconds), checking that (a) the -j4 run reproduces the
/// sequential one, (b) declaring every relation brie instead of btree
/// changes nothing — a failure witness names the diverging substrate
/// pair —, (c) the unfused STI
/// (--no-fuse-conditions) agrees with the default, which fuses filter
/// chains, and (d) replaying a seeded mixed insert/retract stream through
/// the maintenance plan matches a one-shot evaluation of the net EDB at
/// every batch prefix, at -j1 and -j4. Each seed is checked twice: as
/// generated, and with the generator's arithmetic filter chains added (a
/// witness from the second says so).
/// Generated programs use only negation/recursion/constraints, so
/// maintenance ineligibility itself is reported as a failure (the plan
/// must never silently fall back for such programs). On a mismatch it
/// writes these artifacts into --out and exits nonzero:
///
///   failing_seed.txt   the seed (and the generator's full source)
///   failing.dl         the generated program verbatim
///   minimized.dl       the same failure, greedily shrunk line by line
///
/// An incremental failure also writes its stream, replayable against
/// stird-serve with `stird-client --batch`:
///
///   failing_rules.dl   the program without its fact block
///   failing_batches/   NN.txt per batch up to the failing one, as
///                      "+rel(v, ...)" / "-rel(v, ...)" lines; 00.txt
///                      inserts the initial facts
///
///   stird_fuzz [--seconds N] [--seed N] [--out DIR]
///
//===----------------------------------------------------------------------===//

#include "core/Program.h"
#include "inc/Maintainer.h"
#include "interp/Engine.h"
#include "support/ProgramGen.h"
#include "util/Args.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace stird;

namespace {

using Contents =
    std::vector<std::pair<std::string, std::vector<DynTuple>>>;

/// Declared relation names, straight from the .decl lines — works on
/// minimization candidates too, where the generator's metadata is stale.
std::vector<std::string> declaredRelations(const std::string &Source) {
  std::vector<std::string> Names;
  std::istringstream In(Source);
  std::string Line;
  while (std::getline(In, Line)) {
    const std::size_t At = Line.find(".decl ");
    if (At == std::string::npos)
      continue;
    std::size_t Start = At + 6;
    while (Start < Line.size() && Line[Start] == ' ')
      ++Start;
    std::size_t End = Start;
    while (End < Line.size() && Line[End] != '(' && Line[End] != ' ')
      ++End;
    if (End > Start)
      Names.push_back(Line.substr(Start, End - Start));
  }
  return Names;
}

/// Runs \p Source under one configuration. Returns false on compile
/// failure (relations left empty) — callers treat that as "not the bug we
/// are chasing", never as a mismatch.
bool run(const std::string &Source, std::size_t Threads, Contents &Out,
         bool FuseConditions = true) {
  std::vector<std::string> Errors;
  auto Prog = core::Program::fromSource(Source, &Errors);
  if (!Prog)
    return false;
  interp::EngineOptions Options;
  Options.NumThreads = Threads;
  Options.EchoPrintSize = false;
  Options.FuseConditions = FuseConditions;
  auto Engine = Prog->makeEngine(Options);
  Engine->run();
  Out.clear();
  for (const std::string &Name : declaredRelations(Source)) {
    std::vector<DynTuple> Tuples = Engine->getTuples(Name);
    std::sort(Tuples.begin(), Tuples.end());
    Out.emplace_back(Name, std::move(Tuples));
  }
  return true;
}

/// True when some thread count, substrate or fusion setting disagrees
/// with the sequential run. \p Witness names the first bad combination.
bool mismatches(const std::string &Source, std::string &Witness) {
  Contents Reference;
  if (!run(Source, 1, Reference))
    return false;
  Contents Parallel;
  if (run(Source, 4, Parallel) && Parallel != Reference) {
    Witness = "-j4";
    return true;
  }

  // Substrate axis: every declaration qualified brie, sequential and
  // parallel. A witness names the diverging substrate pair — the
  // reference runs on the declared (btree) structures.
  const std::string OnBrie = testgen::withStructure(Source, "brie");
  for (std::size_t Threads : {std::size_t(1), std::size_t(4)}) {
    Contents Out;
    if (!run(OnBrie, Threads, Out))
      continue;
    if (Out != Reference) {
      Witness = "substrate pair btree vs brie -j" + std::to_string(Threads);
      return true;
    }
  }

  // Fusion axis: the reference fuses every filter chain that saves enough
  // dispatches; the unfused tree must agree.
  Contents Unfused;
  if (run(Source, 1, Unfused, /*FuseConditions=*/false) &&
      Unfused != Reference) {
    Witness = "--no-fuse-conditions -j1";
    return true;
  }
  return false;
}

static DynTuple toTuple(const std::vector<int> &Values) {
  DynTuple Tuple(Values.size());
  for (std::size_t I = 0; I < Values.size(); ++I)
    Tuple[I] = static_cast<RamDomain>(Values[I]);
  return Tuple;
}

/// Ops per generated stream, and per batch of it.
constexpr std::size_t StreamOps = 60, BatchOps = 12;

/// One batch: per relation, tuple -> retract.
using NetBatch = std::map<std::string, std::map<DynTuple, bool>>;

/// The net effect of ops [Begin, End) (last op per tuple wins), the
/// semantics both the Maintainer's retract-then-insert order and a
/// sequentially tracked state agree on.
NetBatch netBatch(const std::vector<testgen::GeneratedOp> &Ops,
                  std::size_t Begin, std::size_t End) {
  NetBatch Net;
  for (std::size_t I = Begin; I < End; ++I)
    Net[Ops[I].Relation][toTuple(Ops[I].Values)] = Ops[I].Retract;
  return Net;
}

/// Writes \p Net in stird-client's --batch format.
void writeBatch(const std::string &Path, const NetBatch &Net) {
  std::ofstream Out(Path);
  for (const auto &[Name, Tuples] : Net)
    for (const auto &[Tuple, Retract] : Tuples) {
      Out << (Retract ? '-' : '+') << Name << '(';
      for (std::size_t I = 0; I < Tuple.size(); ++I)
        Out << (I ? ", " : "") << Tuple[I];
      Out << ")\n";
    }
}

/// Writes the replayable stream of an incremental failure in batch
/// \p FailedBatch (1-based): the rules, the initial facts as batch 00,
/// then every stream batch up to the failing one.
void writeStream(const testgen::GeneratedProgram &P,
                 std::size_t FailedBatch, const std::string &OutDir) {
  std::ofstream(OutDir + "/failing_rules.dl") << P.RulesOnly;
  const std::string Dir = OutDir + "/failing_batches";
  std::filesystem::create_directories(Dir);
  auto PathOf = [&](std::size_t Index) {
    char Name[16];
    std::snprintf(Name, sizeof(Name), "/%02zu.txt", Index);
    return Dir + Name;
  };
  NetBatch Initial;
  for (const testgen::GeneratedFact &Fact : P.Facts)
    Initial[Fact.Relation][toTuple(Fact.Values)] = false;
  writeBatch(PathOf(0), Initial);
  const std::vector<testgen::GeneratedOp> Ops =
      testgen::generateMixedStream(P, P.Seed, StreamOps);
  for (std::size_t Batch = 1; Batch <= FailedBatch; ++Batch)
    writeBatch(PathOf(Batch),
               netBatch(Ops, (Batch - 1) * BatchOps,
                        std::min(StreamOps, Batch * BatchOps)));
}

/// True when replaying a mixed insert/retract stream through the
/// maintenance plan diverges from a one-shot evaluation of the net EDB at
/// some batch prefix (or the plan rejects a program it must handle);
/// \p FailedBatch is then the failing batch's 1-based index.
/// Mirrors tests/inc/MaintenanceDifferentialTest over generated programs.
bool mismatchesIncremental(const testgen::GeneratedProgram &P,
                           std::string &Witness, std::size_t &FailedBatch) {
  core::CompileOptions Compile;
  Compile.EmitMaintenance = true;
  auto Prog = core::Program::fromSource(P.RulesOnly, nullptr, Compile);
  if (!Prog)
    return false; // not the bug we are chasing
  // Every program compiled with EmitMaintenance has a plan.
  assert(Prog->getRam().hasMaintenance());

  const std::vector<testgen::GeneratedOp> Ops =
      testgen::generateMixedStream(P, P.Seed, StreamOps);
  const std::vector<std::string> Relations = declaredRelations(P.RulesOnly);

  for (std::size_t Threads : {std::size_t(1), std::size_t(4)}) {
    interp::EngineOptions Opts;
    Opts.SuppressIo = true;
    Opts.NumThreads = Threads;
    Opts.EchoPrintSize = false;
    auto Eng = Prog->makeEngine(Opts);
    // Net EDB per base relation, tracked alongside the maintained engine;
    // seeded with the program's initial facts.
    std::map<std::string, std::set<DynTuple>> State;
    for (const testgen::GeneratedFact &Fact : P.Facts)
      State[Fact.Relation].insert(toTuple(Fact.Values));
    for (const auto &[Name, Tuples] : State)
      Eng->insertTuples(Name, {Tuples.begin(), Tuples.end()});
    Eng->run();
    inc::Maintainer Maint(Prog->getRam(), *Eng);
    Maint.bootstrap();

    for (std::size_t Begin = 0; Begin < StreamOps; Begin += BatchOps) {
      const std::size_t End = std::min(StreamOps, Begin + BatchOps);
      FailedBatch = Begin / BatchOps + 1;
      const NetBatch Net = netBatch(Ops, Begin, End);
      inc::MixedBatch Batch;
      for (const auto &[Name, Tuples] : Net) {
        inc::RelationOps RO;
        RO.Relation = Name;
        for (const auto &[Tuple, Retract] : Tuples)
          (Retract ? RO.Retracts : RO.Inserts).push_back(Tuple);
        Batch.push_back(std::move(RO));
      }
      const std::string Reject = Maint.rejectReason(Batch);
      if (!Reject.empty()) {
        Witness = "maintenance rejected a base-relation batch (" + Reject +
                  ") -j" + std::to_string(Threads);
        return true;
      }
      Maint.apply(Batch);
      for (const auto &[Name, Tuples] : Net)
        for (const auto &[Tuple, Retract] : Tuples) {
          if (Retract)
            State[Name].erase(Tuple);
          else
            State[Name].insert(Tuple);
        }

      // One-shot oracle over the net EDB.
      interp::EngineOptions OracleOpts;
      OracleOpts.SuppressIo = true;
      OracleOpts.EchoPrintSize = false;
      auto Oracle = Prog->makeEngine(OracleOpts);
      for (const auto &[Name, Tuples] : State)
        Oracle->insertTuples(Name, {Tuples.begin(), Tuples.end()});
      Oracle->run();
      for (const std::string &Rel : Relations) {
        std::vector<DynTuple> Got = Eng->getTuples(Rel);
        std::vector<DynTuple> Want = Oracle->getTuples(Rel);
        std::sort(Got.begin(), Got.end());
        std::sort(Want.begin(), Want.end());
        if (Got != Want) {
          Witness = "incremental relation=" + Rel + " -j" +
                    std::to_string(Threads) + " prefix=[0," +
                    std::to_string(End) + ")";
          return true;
        }
      }
    }
  }
  return false;
}

/// Greedy line-wise shrink: drop each fact/rule line in turn, keeping the
/// removal whenever the mismatch survives. Declarations stay (removing a
/// referenced .decl only trades the mismatch for a compile error).
std::string minimize(const std::string &Source) {
  std::vector<std::string> Lines;
  std::istringstream In(Source);
  std::string Line;
  while (std::getline(In, Line))
    Lines.push_back(Line);

  auto Render = [&](std::size_t Skip) {
    std::string Text;
    for (std::size_t I = 0; I < Lines.size(); ++I)
      if (I != Skip)
        Text += Lines[I] + "\n";
    return Text;
  };

  bool Shrunk = true;
  while (Shrunk) {
    Shrunk = false;
    for (std::size_t I = 0; I < Lines.size(); ++I) {
      if (Lines[I].empty() || Lines[I].find(".decl") != std::string::npos)
        continue;
      std::string Witness;
      if (mismatches(Render(I), Witness)) {
        Lines.erase(Lines.begin() + I);
        Shrunk = true;
        break;
      }
    }
  }
  return Render(Lines.size());
}

} // namespace

int main(int Argc, char **Argv) {
  double Seconds = 60;
  std::uint64_t Seed = 0;
  bool SeedGiven = false;
  std::string OutDir = ".";

  util::Args Args("stird_fuzz", "[options]");
  Args.option({"--seconds"}, "n", "wall-clock time budget (default 60)",
              [&](const std::string &Value) -> std::string {
                char *End = nullptr;
                Seconds = std::strtod(Value.c_str(), &End);
                if (End == Value.c_str() || *End != '\0' || Seconds <= 0)
                  return "invalid --seconds '" + Value + "'";
                return "";
              });
  Args.option({"--seed"}, "n", "starting seed (default: wall clock)",
              [&](const std::string &Value) -> std::string {
                char *End = nullptr;
                Seed = std::strtoull(Value.c_str(), &End, 10);
                if (End == Value.c_str() || *End != '\0')
                  return "invalid --seed '" + Value + "'";
                SeedGiven = true;
                return "";
              });
  Args.option({"--out"}, "dir", "artifact directory for failures (default .)",
              [&](const std::string &Value) {
                OutDir = Value;
                return std::string();
              });
  Args.parseOrExit(Argc, Argv);

  if (!SeedGiven)
    Seed = static_cast<std::uint64_t>(std::time(nullptr));
  std::fprintf(stderr, "stird_fuzz: starting at seed %llu for %.0f s\n",
               static_cast<unsigned long long>(Seed), Seconds);

  // Wall-clock budget: CI timeouts are wall time, and process CPU time
  // runs slower than the clock whenever other processes share the CPU.
  using Clock = std::chrono::steady_clock;
  const Clock::time_point Deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(Seconds));
  std::size_t Checked = 0;
  for (std::uint64_t S = Seed; Clock::now() < Deadline; ++S, ++Checked) {
    for (bool Chains : {false, true}) {
      const testgen::GeneratedProgram P = testgen::generateProgram(S, Chains);
      std::string Witness;
      std::size_t FailedBatch = 0;
      const bool OneShotBug = mismatches(P.Source, Witness);
      if (!OneShotBug && !mismatchesIncremental(P, Witness, FailedBatch))
        continue;
      if (Chains)
        Witness += " (program generated with arithmetic chains)";

      std::fprintf(stderr, "stird_fuzz: seed %llu FAILS under %s\n",
                   static_cast<unsigned long long>(S), Witness.c_str());
      std::ofstream(OutDir + "/failing_seed.txt")
          << S << "\n" << Witness << "\n";
      std::ofstream(OutDir + "/failing.dl") << P.Source;
      // Line-wise shrinking only preserves one-shot mismatches; incremental
      // failures depend on the seed-derived stream, which a reduced source
      // no longer reproduces, so the full program is the artifact.
      std::ofstream(OutDir + "/minimized.dl")
          << (OneShotBug ? minimize(P.Source) : P.Source);
      if (!OneShotBug)
        writeStream(P, FailedBatch, OutDir);
      std::fprintf(stderr,
                   "stird_fuzz: artifacts written to %s "
                   "(failing_seed.txt, failing.dl, minimized.dl%s)\n",
                   OutDir.c_str(),
                   OneShotBug ? "" : ", failing_rules.dl, failing_batches/");
      return 1;
    }
  }

  std::fprintf(stderr, "stird_fuzz: %zu seeds checked, no mismatches\n",
               Checked);
  return 0;
}
