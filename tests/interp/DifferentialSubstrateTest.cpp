//===- tests/interp/DifferentialSubstrateTest.cpp - Substrate invariance ------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The substrate-invariance contract, checked end-to-end: which concrete
/// data structure a relation lives in (B-tree or Brie) is a storage
/// decision, never a semantic one. For every seeded random program the
/// resolved relation contents must be bit-identical across every substrate,
/// at -j1 and -j4, both for a one-shot evaluation and for a k-batch mixed
/// insert/retract stream replayed through the incremental Maintainer.
///
/// A substrate is chosen program-wide by qualifying every `.decl` line
/// (testgen::withStructure), so the delta_/new_/@edb auxiliaries inherit
/// it too; each compiled program is checked to really live on it. On a
/// mismatch the failing seed and program are written into
/// $STIRD_ARTIFACT_DIR (when set), the artifact naming the diverging
/// substrate, mirroring the scheduler suite.
///
//===----------------------------------------------------------------------===//

#include "core/Program.h"
#include "inc/Maintainer.h"
#include "interp/Engine.h"
#include "ram/Ram.h"
#include "support/ProgramGen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

using namespace stird;

namespace {

using Contents = std::vector<std::pair<std::string, std::vector<DynTuple>>>;

const char *const Substrates[] = {"btree", "brie"};

/// Compiles \p Source with every declaration qualified by \p Substrate
/// (generated programs never use eqrel and stay at arity <= 3, so every
/// qualifier is legal) and checks that every relation of the resulting
/// RAM, auxiliaries included, lives on it. Maintenance count stores are
/// arity-generic and exempt.
std::unique_ptr<core::Program> compileOn(const testgen::GeneratedProgram &P,
                                         const std::string &Source,
                                         const std::string &Substrate,
                                         bool WithMaintenance = false) {
  core::CompileOptions Compile;
  Compile.EmitMaintenance = WithMaintenance;
  std::vector<std::string> Errors;
  auto Prog = core::Program::fromSource(
      testgen::withStructure(Source, Substrate), &Errors, Compile);
  EXPECT_NE(Prog, nullptr) << "seed " << P.Seed << " substrate " << Substrate
                           << ": "
                           << (Errors.empty() ? "compile failed" : Errors[0]);
  if (!Prog)
    return nullptr;
  const ram::StructureKind Want = Substrate == "brie"
                                      ? ram::StructureKind::Brie
                                      : ram::StructureKind::Btree;
  for (const auto &Rel : Prog->getRam().getRelations())
    EXPECT_EQ(Rel->getStructure(), Want)
        << "seed " << P.Seed << " relation " << Rel->getName()
        << " is not on " << Substrate;
  return Prog;
}

Contents runOneShot(const testgen::GeneratedProgram &P,
                    const std::string &Substrate, std::size_t Threads) {
  auto Prog = compileOn(P, P.Source, Substrate);
  if (!Prog)
    return {};

  interp::EngineOptions Options;
  Options.NumThreads = Threads;
  Options.EchoPrintSize = false;
  auto Engine = Prog->makeEngine(Options);
  Engine->run();

  Contents Out;
  for (const std::string &Name : P.Relations) {
    std::vector<DynTuple> Tuples = Engine->getTuples(Name);
    std::sort(Tuples.begin(), Tuples.end());
    Out.emplace_back(Name, std::move(Tuples));
  }
  return Out;
}

void writeFailureArtifacts(const testgen::GeneratedProgram &P,
                           const std::string &Description) {
  const char *Dir = std::getenv("STIRD_ARTIFACT_DIR");
  if (!Dir || !*Dir)
    return;
  const std::string Base(Dir);
  std::ofstream SeedOut(Base + "/failing_seed.txt");
  SeedOut << P.Seed << " " << Description << "\n";
  std::ofstream SrcOut(Base + "/failing.dl");
  SrcOut << P.Source;
}

DynTuple toTuple(const std::vector<int> &Values) {
  DynTuple Tuple(Values.size());
  for (std::size_t I = 0; I < Values.size(); ++I)
    Tuple[I] = static_cast<RamDomain>(Values[I]);
  return Tuple;
}

//===----------------------------------------------------------------------===//
// One-shot sweep: substrate x thread count
//===----------------------------------------------------------------------===//

class DifferentialSubstrateTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialSubstrateTest, OneShotAllSubstratesAgree) {
  const testgen::GeneratedProgram P = testgen::generateProgram(GetParam());

  const Contents Reference = runOneShot(P, "btree", 1);
  if (Reference.empty())
    return; // compile failure already reported

  for (const char *Substrate : Substrates) {
    for (std::size_t Threads : {std::size_t(1), std::size_t(4)}) {
      const Contents Out = runOneShot(P, Substrate, Threads);
      const std::string Description = std::string("every .decl ") +
                                      Substrate + " -j" +
                                      std::to_string(Threads);
      if (Out != Reference)
        writeFailureArtifacts(P, Description);
      EXPECT_EQ(Out, Reference)
          << "seed " << P.Seed << " under " << Description << "\n"
          << P.Source;
    }
  }
}

//===----------------------------------------------------------------------===//
// Incremental sweep: substrate x thread count x k-batch mixed streams
//===----------------------------------------------------------------------===//

TEST_P(DifferentialSubstrateTest, IncrementalAllSubstratesAgree) {
  const testgen::GeneratedProgram P = testgen::generateProgram(GetParam());
  constexpr std::size_t NumOps = 40;
  const std::vector<testgen::GeneratedOp> Ops =
      testgen::generateMixedStream(P, P.Seed, NumOps);

  for (const char *Substrate : Substrates) {
    auto Prog =
        compileOn(P, P.RulesOnly, Substrate, /*WithMaintenance=*/true);
    ASSERT_NE(Prog, nullptr);
    ASSERT_TRUE(Prog->getRam().hasMaintenance());

    for (std::size_t K : {std::size_t(1), std::size_t(4)}) {
      for (std::size_t Threads : {std::size_t(1), std::size_t(4)}) {
        const std::string Description = std::string("incremental ") +
                                        Substrate + " k=" +
                                        std::to_string(K) + " -j" +
                                        std::to_string(Threads);
        interp::EngineOptions Opts;
        Opts.SuppressIo = true;
        Opts.NumThreads = Threads;
        Opts.EchoPrintSize = false;
        auto Eng = Prog->makeEngine(Opts);
        std::map<std::string, std::set<DynTuple>> State;
        for (const testgen::GeneratedFact &Fact : P.Facts)
          State[Fact.Relation].insert(toTuple(Fact.Values));
        for (const auto &[Name, Tuples] : State)
          Eng->insertTuples(Name, {Tuples.begin(), Tuples.end()});
        Eng->run();
        inc::Maintainer Maint(Prog->getRam(), *Eng);
        Maint.bootstrap();

        const std::size_t PerBatch = (NumOps + K - 1) / K;
        for (std::size_t Begin = 0; Begin < NumOps; Begin += PerBatch) {
          const std::size_t End = std::min(NumOps, Begin + PerBatch);
          // Net effect of the slice (last op per tuple wins) — the
          // semantics the Maintainer's retract-then-insert order and the
          // sequentially tracked State agree on.
          std::map<std::string, std::map<DynTuple, bool>> Net;
          for (std::size_t I = Begin; I < End; ++I)
            Net[Ops[I].Relation][toTuple(Ops[I].Values)] = Ops[I].Retract;
          inc::MixedBatch Batch;
          for (const auto &[Name, Tuples] : Net) {
            inc::RelationOps RO;
            RO.Relation = Name;
            for (const auto &[Tuple, Retract] : Tuples)
              (Retract ? RO.Retracts : RO.Inserts).push_back(Tuple);
            Batch.push_back(std::move(RO));
          }
          ASSERT_EQ(Maint.rejectReason(Batch), "")
              << "seed " << P.Seed << " " << Description;
          Maint.apply(Batch);
          for (const auto &[Name, Tuples] : Net)
            for (const auto &[Tuple, Retract] : Tuples) {
              if (Retract)
                State[Name].erase(Tuple);
              else
                State[Name].insert(Tuple);
            }

          // One-shot oracle over the net EDB, on the same substrate.
          interp::EngineOptions OracleOpts;
          OracleOpts.SuppressIo = true;
          OracleOpts.EchoPrintSize = false;
          auto Oracle = Prog->makeEngine(OracleOpts);
          for (const auto &[Name, Tuples] : State)
            Oracle->insertTuples(Name, {Tuples.begin(), Tuples.end()});
          Oracle->run();
          for (const std::string &Rel : P.Relations) {
            std::vector<DynTuple> Got = Eng->getTuples(Rel);
            std::vector<DynTuple> Want = Oracle->getTuples(Rel);
            std::sort(Got.begin(), Got.end());
            std::sort(Want.begin(), Want.end());
            if (Got != Want)
              writeFailureArtifacts(P, Description + " relation=" + Rel);
            ASSERT_EQ(Got, Want)
                << "seed " << P.Seed << " " << Description << " relation="
                << Rel << " prefix=[0," << End << ")";
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SeededPrograms, DifferentialSubstrateTest,
                         ::testing::Range<std::uint64_t>(1, 21));

} // namespace
