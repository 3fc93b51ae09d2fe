//===- bench/micro_update.cpp - Incremental vs full re-evaluation -------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the incremental maintenance subsystem on mixed insert/retract
/// streams: each batch is applied once through the Maintainer (DRed +
/// scoped Reeval) and once as a full re-evaluation of the net EDB
/// from scratch, on the two serving-shaped workloads — skewed transitive
/// closure (many small communities, one hot community drawing a quarter
/// of the churn) and a doop-like points-to program (mutually recursive
/// vpt/heap plus a non-recursive consumer, partitioned into modules the
/// way intra-procedural locality partitions real call graphs).
/// A session leg runs the same batches through EngineSession::applyMixed,
/// the left-right write path: the passive side replays the previous
/// batch's change set, then maintains the new batch and publishes it.
/// Every batch is cross-checked: the maintained engine's relations and the
/// session's published side must both equal the from-scratch oracle's
/// exactly, so the numbers are only reported for runs that were also
/// correct.
///
/// Emits one JSON document (array of per-batch records, then one summary
/// record per workload) on stdout:
///
///   [{"workload": "skewed-tc", "batch": 1, "ops": 24, "inserts": 13,
///     "retracts": 11, "deleted_edb": 9, "rederived": 2,
///     "reeval_strata": 0, "incremental_seconds": ...,
///     "session_seconds": ..., "full_seconds": ..., "speedup": ...},
///    ...,
///    {"workload": "skewed-tc", "summary": true, "batches": 20,
///     "rederived": ..., "incremental_seconds": ..., "session_seconds": ...,
///     "leftright_ratio": ..., "full_seconds": ..., "speedup": ...}]
///
/// rederived counts the DRed tuples over-deleted and then rederived (the
/// summary sums the batches): over-deletion that was wasted work.
/// leftright_ratio is session_seconds / incremental_seconds: what the
/// left-right write costs over one Maintainer::apply. Exits nonzero when
/// any batch's maintained or published contents diverge from the
/// oracle. Speedups are hardware-honest; the aggregate ratio is what the
/// roadmap's >=10x target for the doop-like stream refers to.
///
//===----------------------------------------------------------------------===//

#include "core/Program.h"
#include "inc/Maintainer.h"
#include "interp/Engine.h"
#include "srv/Session.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

using namespace stird;

namespace {

/// Deterministic LCG: identical streams across platforms and reruns.
class Rng {
public:
  explicit Rng(std::uint64_t Seed) : State(Seed * 2862933555777941757ULL + 1) {}
  std::uint64_t next() {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return State >> 33;
  }
  std::uint64_t next(std::uint64_t Bound) { return next() % Bound; }

private:
  std::uint64_t State;
};

/// Tuples are drawn inside one partition block of PartSize values: real
/// update streams have locality (a program edit touches one method, an
/// edge churns inside one community), and that locality is what makes
/// incremental maintenance beat re-evaluation — a deletion's DRed cascade
/// stays inside its partition while a full run pays for all of them. On a
/// fully connected graph DRed degenerates to re-deriving the whole
/// closure; that regime is visible by setting PartSize = Domain.
struct EdbSpec {
  const char *Name;
  std::size_t Arity;
  RamDomain Domain;   ///< column values drawn from [0, Domain)
  RamDomain PartSize; ///< values per partition block
  std::size_t Initial;///< initial fact count
  std::size_t SkewPct;///< % of draws forced into hot partition 0
};

struct UpdateWorkload {
  const char *Name;
  const char *Source;
  std::vector<EdbSpec> Edb;
};

const UpdateWorkload SkewedTc = {
    "skewed-tc",
    ".decl edge(a:number, b:number)\n"
    ".decl path(a:number, b:number)\n"
    "path(x, y) :- edge(x, y).\n"
    "path(x, z) :- path(x, y), edge(y, z).\n",
    {{"edge", 2, 7500, 10, 10000, 10}},
};

const UpdateWorkload DoopLike = {
    "doop-like",
    ".decl new(v:number, o:number)\n"
    ".decl assign(d:number, s:number)\n"
    ".decl load(d:number, s:number)\n"
    ".decl store(d:number, s:number)\n"
    ".decl vpt(v:number, o:number)\n"
    ".decl heap(o:number, p:number)\n"
    ".decl query(v:number)\n"
    "vpt(v, o) :- new(v, o).\n"
    "vpt(d, o) :- assign(d, s), vpt(s, o).\n"
    "heap(o, p) :- store(d, s), vpt(d, o), vpt(s, p).\n"
    "vpt(d, p) :- load(d, s), vpt(s, o), heap(o, p).\n"
    "query(v) :- vpt(v, o), new(_, o).\n",
    {{"new", 2, 24000, 12, 12000, 10},
     {"assign", 2, 24000, 12, 10000, 10},
     {"load", 2, 24000, 12, 4000, 10},
     {"store", 2, 24000, 12, 4000, 10}},
};

DynTuple drawTuple(Rng &R, const EdbSpec &Spec) {
  const RamDomain NumParts = Spec.Domain / Spec.PartSize;
  const RamDomain Part =
      R.next(100) < Spec.SkewPct
          ? 0
          : static_cast<RamDomain>(R.next(NumParts));
  DynTuple Tuple(Spec.Arity);
  for (std::size_t Col = 0; Col < Spec.Arity; ++Col)
    Tuple[Col] = Part * Spec.PartSize +
                 static_cast<RamDomain>(R.next(Spec.PartSize));
  return Tuple;
}

/// EDB state per relation, tracked alongside the maintained engine so the
/// full-re-evaluation oracle can be seeded with the net contents.
using EdbState = std::vector<std::set<DynTuple>>;

double seconds(std::chrono::steady_clock::time_point From,
               std::chrono::steady_clock::time_point To) {
  return std::chrono::duration<double>(To - From).count();
}

struct BatchRecord {
  std::size_t Batch;
  std::size_t Inserts, Retracts, DeletedEdb, Rederived, ReevalStrata;
  double IncSeconds, SessionSeconds, FullSeconds;
};

struct WorkloadResult {
  std::vector<BatchRecord> Batches;
  double IncSeconds = 0, SessionSeconds = 0, FullSeconds = 0;
  bool Correct = true;
};

WorkloadResult runWorkload(const UpdateWorkload &W, std::size_t NumBatches,
                           std::size_t OpsPerBatch, std::uint64_t Seed) {
  WorkloadResult Result;
  core::CompileOptions Compile;
  Compile.EmitMaintenance = true;
  auto Prog = core::Program::fromSource(W.Source, nullptr, Compile);
  if (!Prog) {
    std::fprintf(stderr, "micro_update: %s does not compile\n", W.Name);
    Result.Correct = false;
    return Result;
  }
  // Every program compiled with EmitMaintenance has a plan.
  assert(Prog->getRam().hasMaintenance());
  std::vector<std::string> Relations;
  for (const auto &Decl : Prog->getAst().Relations)
    Relations.push_back(Decl->getName());

  Rng R(Seed);
  EdbState State(W.Edb.size());
  for (std::size_t Rel = 0; Rel < W.Edb.size(); ++Rel)
    while (State[Rel].size() < W.Edb[Rel].Initial)
      State[Rel].insert(drawTuple(R, W.Edb[Rel]));

  interp::EngineOptions Opts;
  Opts.SuppressIo = true;
  Opts.EchoPrintSize = false;
  auto Eng = Prog->makeEngine(Opts);
  for (std::size_t Rel = 0; Rel < W.Edb.size(); ++Rel)
    Eng->insertTuples(W.Edb[Rel].Name,
                      {State[Rel].begin(), State[Rel].end()});
  Eng->run();
  inc::Maintainer Maint(Prog->getRam(), *Eng);
  Maint.bootstrap();

  // The session leg over its own compilation of the program, loaded with
  // the same initial facts. The empty batch lets the passive side replay
  // the initial load, so the first timed write pays for one batch only.
  auto Session = srv::EngineSession::fromSource(W.Source);
  {
    srv::FactBatch Initial;
    for (std::size_t Rel = 0; Rel < W.Edb.size(); ++Rel)
      Initial.emplace_back(W.Edb[Rel].Name,
                           std::vector<DynTuple>(State[Rel].begin(),
                                                 State[Rel].end()));
    Session->loadFacts(Initial);
    Session->applyMixed(inc::MixedBatch{});
  }

  for (std::size_t B = 1; B <= NumBatches; ++B) {
    // ~35% retractions of live tuples, the rest fresh inserts; net-effect
    // per tuple (last op wins) so the batch and the tracked state agree.
    std::vector<std::map<DynTuple, bool>> Net(W.Edb.size());
    for (std::size_t I = 0; I < OpsPerBatch; ++I) {
      const std::size_t Rel = R.next(W.Edb.size());
      const bool Retract = !State[Rel].empty() && R.next(100) < 35;
      if (Retract) {
        auto It = State[Rel].begin();
        std::advance(It, R.next(State[Rel].size()));
        Net[Rel][*It] = true;
        State[Rel].erase(It);
      } else {
        DynTuple Tuple = drawTuple(R, W.Edb[Rel]);
        State[Rel].insert(Tuple);
        Net[Rel][std::move(Tuple)] = false;
      }
    }
    inc::MixedBatch Batch;
    BatchRecord Rec{B, 0, 0, 0, 0, 0, 0, 0, 0};
    for (std::size_t Rel = 0; Rel < W.Edb.size(); ++Rel) {
      if (Net[Rel].empty())
        continue;
      inc::RelationOps RO;
      RO.Relation = W.Edb[Rel].Name;
      for (const auto &[Tuple, Retract] : Net[Rel])
        (Retract ? RO.Retracts : RO.Inserts).push_back(Tuple);
      Rec.Inserts += RO.Inserts.size();
      Rec.Retracts += RO.Retracts.size();
      Batch.push_back(std::move(RO));
    }

    const auto IncFrom = std::chrono::steady_clock::now();
    const inc::MaintenanceReport Report = Maint.apply(Batch);
    const auto IncTo = std::chrono::steady_clock::now();
    Rec.DeletedEdb = Report.Deleted;
    Rec.ReevalStrata = Report.ReevalStrata;
    for (const inc::StratumReport &SR : Report.Strata)
      Rec.Rederived += SR.Rederived;

    const auto SessionFrom = std::chrono::steady_clock::now();
    const srv::BatchResult Served = Session->applyMixed(Batch);
    const auto SessionTo = std::chrono::steady_clock::now();
    if (!Served.Error.empty()) {
      std::fprintf(stderr, "micro_update: %s batch %zu: session: %s\n",
                   W.Name, B, Served.Error.c_str());
      Result.Correct = false;
    }

    // The full re-evaluation this batch would have cost: fresh engine,
    // net EDB, one run from scratch. Also the correctness oracle.
    const auto FullFrom = std::chrono::steady_clock::now();
    auto Oracle = Prog->makeEngine(Opts);
    for (std::size_t Rel = 0; Rel < W.Edb.size(); ++Rel)
      Oracle->insertTuples(W.Edb[Rel].Name,
                           {State[Rel].begin(), State[Rel].end()});
    Oracle->run();
    const auto FullTo = std::chrono::steady_clock::now();

    const srv::Snapshot Published = Session->snapshot();
    for (const std::string &Rel : Relations) {
      std::vector<DynTuple> Want = Oracle->getTuples(Rel);
      std::sort(Want.begin(), Want.end());
      auto Check = [&](std::vector<DynTuple> Got, const char *Leg) {
        std::sort(Got.begin(), Got.end());
        if (Got == Want)
          return;
        std::fprintf(stderr,
                     "micro_update: %s batch %zu: relation %s diverged "
                     "(%zu %s vs %zu oracle tuples)\n",
                     W.Name, B, Rel.c_str(), Got.size(), Leg, Want.size());
        Result.Correct = false;
      };
      Check(Eng->getTuples(Rel), "maintained");
      Check(Published.tuples(Rel), "published");
    }

    Rec.IncSeconds = seconds(IncFrom, IncTo);
    Rec.SessionSeconds = seconds(SessionFrom, SessionTo);
    Rec.FullSeconds = seconds(FullFrom, FullTo);
    Result.IncSeconds += Rec.IncSeconds;
    Result.SessionSeconds += Rec.SessionSeconds;
    Result.FullSeconds += Rec.FullSeconds;
    Result.Batches.push_back(Rec);
  }
  return Result;
}

void printBatch(const char *Workload, const BatchRecord &R, bool First) {
  std::printf("%s\n  {\"workload\": \"%s\", \"batch\": %zu, \"ops\": %zu, "
              "\"inserts\": %zu, \"retracts\": %zu, \"deleted_edb\": %zu, "
              "\"rederived\": %zu, \"reeval_strata\": %zu, "
              "\"incremental_seconds\": %.6f, \"session_seconds\": %.6f, "
              "\"full_seconds\": %.6f, \"speedup\": %.2f}",
              First ? "" : ",", Workload, R.Batch, R.Inserts + R.Retracts,
              R.Inserts, R.Retracts, R.DeletedEdb, R.Rederived,
              R.ReevalStrata, R.IncSeconds, R.SessionSeconds, R.FullSeconds,
              R.IncSeconds > 0 ? R.FullSeconds / R.IncSeconds : 0.0);
}

} // namespace

int main(int argc, char **argv) {
  // --quick: fewer, smaller batches for smoke runs in CI.
  const bool Quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
  const std::size_t NumBatches = Quick ? 6 : 20;
  const std::size_t OpsPerBatch = Quick ? 16 : 24;

  const UpdateWorkload *Workloads[] = {&SkewedTc, &DoopLike};
  bool Correct = true;
  std::printf("[");
  bool First = true;
  for (const UpdateWorkload *W : Workloads) {
    const WorkloadResult Result =
        runWorkload(*W, NumBatches, OpsPerBatch, 42);
    Correct = Correct && Result.Correct;
    for (const BatchRecord &R : Result.Batches) {
      printBatch(W->Name, R, First);
      First = false;
    }
    const double Speedup = Result.IncSeconds > 0
                               ? Result.FullSeconds / Result.IncSeconds
                               : 0.0;
    const double LeftRight = Result.IncSeconds > 0
                                 ? Result.SessionSeconds / Result.IncSeconds
                                 : 0.0;
    std::size_t Rederived = 0;
    for (const BatchRecord &R : Result.Batches)
      Rederived += R.Rederived;
    std::printf("%s\n  {\"workload\": \"%s\", \"summary\": true, "
                "\"batches\": %zu, \"rederived\": %zu, "
                "\"incremental_seconds\": %.6f, "
                "\"session_seconds\": %.6f, \"leftright_ratio\": %.2f, "
                "\"full_seconds\": %.6f, \"speedup\": %.2f}",
                First ? "" : ",", W->Name, Result.Batches.size(), Rederived,
                Result.IncSeconds, Result.SessionSeconds, LeftRight,
                Result.FullSeconds, Speedup);
    First = false;
    std::fprintf(stderr,
                 "%-10s %zu batches  rederived %zu  incremental %.4f s  "
                 "session %.4f s (%.2fx)  full %.4f s  speedup %.1fx\n",
                 W->Name, Result.Batches.size(), Rederived, Result.IncSeconds,
                 Result.SessionSeconds, LeftRight, Result.FullSeconds,
                 Speedup);
  }
  std::printf("\n]\n");
  if (!Correct)
    std::fprintf(stderr,
                 "micro_update: maintained or published contents diverged "
                 "from the oracle\n");
  return Correct ? 0 : 1;
}
