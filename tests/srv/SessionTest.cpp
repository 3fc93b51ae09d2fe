//===- tests/srv/SessionTest.cpp - Resident-session equivalence ---------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving layer's correctness contract: feeding a program's input
/// facts through an EngineSession in k batches, each maintained in place,
/// must yield exactly the relation contents of a one-shot engine run over
/// the same facts, at every thread count. Symbol columns are compared by
/// resolved string (ordinal assignment differs across program instances).
///
/// Beyond equivalence: snapshot isolation (a pinned snapshot never sees a
/// later batch), concurrent readers against a writer (the TSan subject for
/// the left-right scheme), duplicate accounting, served streams over
/// rule-free, `.input`-with-clauses and `$` programs, flat memory under
/// churn, and the textual loadFacts error path.
///
//===----------------------------------------------------------------------===//

#include "core/Program.h"
#include "interp/Engine.h"
#include "srv/Session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace stird;
using namespace stird::srv;

namespace {

/// One equivalence subject: a program, the relations to compare, and an
/// input builder interning through the given program's symbol table.
struct Subject {
  std::string Name;
  std::string Source;
  std::vector<std::string> Outputs;
  std::function<FactBatch(core::Program &)> MakeInputs;
  /// Whether the maintenance plan should contain scoped Reeval strata
  /// (aggregates, eqrel). Asserted both ways, so precise maintenance of
  /// negation-only programs cannot silently regress into fallbacks — and
  /// fallback coverage cannot silently vanish either.
  bool ExpectReevalFallback = false;
};

Subject quickstartSubject() {
  Subject S;
  S.Name = "quickstart";
  S.Source = R"(
    .decl parent(child:symbol, parent:symbol)
    .decl ancestor(person:symbol, ancestor:symbol)
    ancestor(c, p) :- parent(c, p).
    ancestor(c, a) :- ancestor(c, p), parent(p, a).
  )";
  S.Outputs = {"ancestor"};
  S.MakeInputs = [](core::Program &Prog) {
    SymbolTable &Symbols = Prog.getSymbolTable();
    std::vector<DynTuple> Parents;
    for (int I = 0; I + 1 < 24; ++I)
      Parents.push_back({Symbols.intern("p" + std::to_string(I)),
                         Symbols.intern("p" + std::to_string(I + 1))});
    for (int I = 0; I < 8; ++I)
      Parents.push_back({Symbols.intern("q" + std::to_string(I)),
                         Symbols.intern(I == 7 ? "p12"
                                               : "q" + std::to_string(I + 1))});
    return FactBatch{{"parent", Parents}};
  };
  return S;
}

Subject reachabilitySubject() {
  Subject S;
  S.Name = "reachability";
  S.Source = R"(
    .decl in_subnet(inst:number, subnet:number)
    .decl subnet_link(a:number, b:number)
    .decl allows(inst:number, port:number)
    .decl listens(inst:number, port:number)

    .decl subnet_reach(a:number, b:number)
    subnet_reach(a, b) :- subnet_link(a, b).
    subnet_reach(a, c) :- subnet_reach(a, b), subnet_link(b, c).

    .decl can_talk(a:number, b:number, port:number)
    can_talk(a, b, p) :-
        in_subnet(a, sa), in_subnet(b, sb), subnet_reach(sa, sb),
        allows(a, p), listens(b, p), a != b.
  )";
  S.Outputs = {"subnet_reach", "can_talk"};
  S.MakeInputs = [](core::Program &) {
    std::vector<DynTuple> InSubnet, Links, Allows, Listens;
    constexpr RamDomain NumSubnets = 10, NumInstances = 60;
    for (RamDomain I = 0; I < NumInstances; ++I) {
      InSubnet.push_back({I, I % NumSubnets});
      Allows.push_back({I, 20 + I % 6});
      Listens.push_back({I, 20 + (I * 3) % 6});
    }
    for (RamDomain Sub = 0; Sub < NumSubnets; ++Sub) {
      Links.push_back({Sub, (Sub + 1) % NumSubnets});
      if (Sub % 3 == 0)
        Links.push_back({Sub, (Sub + 4) % NumSubnets});
    }
    return FactBatch{{"in_subnet", InSubnet},
                     {"subnet_link", Links},
                     {"allows", Allows},
                     {"listens", Listens}};
  };
  return S;
}

Subject pointstoSubject() {
  Subject S;
  S.Name = "pointsto";
  S.Source = R"(
    .decl new_(v:number, o:number)
    .decl assign(v:number, w:number)
    .decl store(v:number, f:number, w:number)
    .decl load(v:number, w:number, f:number)

    .decl vpt(v:number, o:number)
    .decl hpt(o:number, f:number, p:number)

    vpt(v, o) :- new_(v, o).
    vpt(v, o) :- assign(v, w), vpt(w, o).
    hpt(o, f, p) :- store(v, f, w), vpt(v, o), vpt(w, p).
    vpt(v, p) :- load(v, w, f), vpt(w, o), hpt(o, f, p).
  )";
  S.Outputs = {"vpt", "hpt"};
  S.MakeInputs = [](core::Program &) {
    std::vector<DynTuple> News, Assigns, Stores, Loads;
    constexpr RamDomain NumVars = 50;
    for (RamDomain V = 0; V < NumVars; V += 3)
      News.push_back({V, V / 3});
    for (RamDomain V = 0; V + 1 < NumVars; ++V)
      if (V % 4 != 0)
        Assigns.push_back({V + 1, V});
    for (RamDomain V = 0; V < NumVars; V += 7) {
      Stores.push_back({V, 0, (V + 5) % NumVars});
      Loads.push_back({(V + 9) % NumVars, V, 0});
    }
    return FactBatch{{"new_", News},
                     {"assign", Assigns},
                     {"store", Stores},
                     {"load", Loads}};
  };
  return S;
}

/// Interning functors in the recursive section: workers intern new label
/// strings while the maintenance program re-derives paths.
Subject internSubject() {
  Subject S;
  S.Name = "intern_path_labels";
  S.Source = R"(
    .decl edge(a:symbol, b:symbol)
    .decl path(a:symbol, b:symbol, label:symbol)
    path(a, b, cat(a, cat("->", b))) :- edge(a, b).
    path(a, c, cat(l, cat("->", c))) :- path(a, b, l), edge(b, c).
  )";
  S.Outputs = {"path"};
  S.MakeInputs = [](core::Program &Prog) {
    SymbolTable &Symbols = Prog.getSymbolTable();
    auto Node = [&](int I) { return Symbols.intern("n" + std::to_string(I)); };
    std::vector<DynTuple> Edges;
    constexpr int NumNodes = 14;
    for (int I = 0; I + 1 < NumNodes; ++I) {
      Edges.push_back({Node(I), Node(I + 1)});
      if (I % 4 == 0 && I + 2 < NumNodes)
        Edges.push_back({Node(I), Node(I + 2)});
    }
    return FactBatch{{"edge", Edges}};
  };
  return S;
}

/// Negation and an aggregate: the negation strata are maintained
/// precisely; the aggregate strata ride the scoped per-stratum Reeval
/// fallback (counted, never a whole-program rebuild).
Subject dataflowSubject() {
  Subject S;
  S.Name = "dataflow_fallback";
  S.Source = R"(
    .decl def(b:number, v:number)
    .decl use(b:number, v:number)
    .decl succ(a:number, b:number)

    .decl reach(d:number, v:number, b:number)
    reach(d, v, d) :- def(d, v).
    reach(d, v, b) :- reach(d, v, a), succ(a, b), !def(b, v).

    .decl live_use(b:number, v:number, d:number)
    live_use(b, v, d) :- use(b, v), reach(d, v, b).

    .decl undefined_use(b:number, v:number)
    undefined_use(b, v) :- use(b, v), !live_use(b, v, _).

    .decl fanin(b:number, v:number, n:number)
    fanin(b, v, n) :- use(b, v), n = count : { live_use(b, v, _) }.
  )";
  S.Outputs = {"reach", "live_use", "undefined_use", "fanin"};
  S.ExpectReevalFallback = true;
  S.MakeInputs = [](core::Program &) {
    std::vector<DynTuple> Defs, Uses, Succs;
    constexpr RamDomain NumBlocks = 40, NumVars = 6;
    for (RamDomain B = 0; B + 1 < NumBlocks; ++B) {
      Succs.push_back({B, B + 1});
      if (B % 5 == 0 && B + 3 < NumBlocks)
        Succs.push_back({B, B + 3});
    }
    for (RamDomain B = 0; B < NumBlocks; ++B) {
      if (B % 3 == 0)
        Defs.push_back({B, B % NumVars});
      if (B % 2 == 0)
        Uses.push_back({B, (B + 1) % NumVars});
    }
    return FactBatch{{"def", Defs}, {"use", Uses}, {"succ", Succs}};
  };
  return S;
}

/// Program facts plus recursive negation: maintained precisely (the
/// acceptance bar — negation alone must never fall back), and the seeded
/// fact ("while" is unsafe) must survive every batch.
Subject securitySubject() {
  Subject S;
  S.Name = "security_fallback";
  S.Source = R"(
    .decl Unsafe(b:symbol)
    .decl Edge(a:symbol, b:symbol)
    .decl Protect(b:symbol)
    .decl Vulnerable(b:symbol)
    .decl Violation(b:symbol)
    Unsafe("while").
    Unsafe(y) :- Unsafe(x), Edge(x, y), !Protect(y).
    Violation(x) :- Vulnerable(x), Unsafe(x).
  )";
  S.Outputs = {"Unsafe", "Violation"};
  S.MakeInputs = [](core::Program &Prog) {
    SymbolTable &Symbols = Prog.getSymbolTable();
    auto Block = [&](int I) {
      return Symbols.intern("block" + std::to_string(I));
    };
    constexpr int NumBlocks = 60;
    std::vector<DynTuple> Edges, Protects, Vulnerables;
    Edges.push_back({Symbols.intern("while"), Block(0)});
    for (int I = 0; I + 1 < NumBlocks; ++I) {
      Edges.push_back({Block(I), Block(I + 1)});
      if (I % 7 == 0 && I + 3 < NumBlocks)
        Edges.push_back({Block(I), Block(I + 3)});
      if (I % 11 == 5)
        Protects.push_back({Block(I)});
      if (I % 5 == 2)
        Vulnerables.push_back({Block(I)});
    }
    return FactBatch{{"Edge", Edges},
                     {"Protect", Protects},
                     {"Vulnerable", Vulnerables}};
  };
  return S;
}

/// Equivalence relations cannot be maintained from tuple deltas (union
/// find does not commute with deletion), so their strata ride the scoped
/// Reeval fallback.
Subject eqrelSubject() {
  Subject S;
  S.Name = "eqrel_fallback";
  S.Source = R"(
    .decl link(a:number, b:number)
    .decl same(a:number, b:number) eqrel
    same(a, b) :- link(a, b).
    .decl rep(a:number, b:number)
    rep(a, b) :- same(a, b), a <= b.
  )";
  S.Outputs = {"same", "rep"};
  S.ExpectReevalFallback = true;
  S.MakeInputs = [](core::Program &) {
    std::vector<DynTuple> Links;
    for (RamDomain Base : {0, 100, 200})
      for (RamDomain I = 0; I < 9; ++I)
        Links.push_back({Base + I, Base + I + 1});
    Links.push_back({5, 100});
    return FactBatch{{"link", Links}};
  };
  return S;
}

std::vector<Subject> subjects() {
  return {quickstartSubject(), reachabilitySubject(), pointstoSubject(),
          internSubject(),     dataflowSubject(),     securitySubject(),
          eqrelSubject()};
}

constexpr int NumSubjects = 7;

//===----------------------------------------------------------------------===//
// The equivalence harness
//===----------------------------------------------------------------------===//

/// Splits every relation's tuples into \p NumBatches contiguous chunks;
/// batch I carries chunk I of each relation (possibly empty).
std::vector<FactBatch> splitBatches(const FactBatch &Inputs,
                                    std::size_t NumBatches) {
  std::vector<FactBatch> Batches(NumBatches);
  for (const auto &[Relation, Tuples] : Inputs) {
    const std::size_t Chunk = (Tuples.size() + NumBatches - 1) / NumBatches;
    for (std::size_t B = 0; B < NumBatches; ++B) {
      const std::size_t Begin = std::min(B * Chunk, Tuples.size());
      const std::size_t End = std::min(Begin + Chunk, Tuples.size());
      Batches[B].emplace_back(
          Relation,
          std::vector<DynTuple>(Tuples.begin() + Begin, Tuples.begin() + End));
    }
  }
  return Batches;
}

/// Tuples with symbol ordinals resolved and re-sorted: the comparable
/// ground truth across program instances.
std::vector<std::vector<std::string>>
resolveTuples(const SymbolTable &Symbols,
              const std::vector<ColumnTypeKind> &Types,
              const std::vector<DynTuple> &Tuples) {
  std::vector<std::vector<std::string>> Result;
  Result.reserve(Tuples.size());
  for (const DynTuple &Tuple : Tuples) {
    std::vector<std::string> Row;
    for (std::size_t I = 0; I < Tuple.size(); ++I)
      if (Types[I] == ColumnTypeKind::Symbol)
        Row.push_back(Symbols.resolve(Tuple[I]));
      else
        Row.push_back(std::to_string(Tuple[I]));
    Result.push_back(std::move(Row));
  }
  std::sort(Result.begin(), Result.end());
  return Result;
}

using NamedContents =
    std::vector<std::pair<std::string, std::vector<std::vector<std::string>>>>;

/// The one-shot reference: a plain engine (no maintenance plan emitted)
/// over all facts at once — exactly the pipeline a batch-mode user runs.
NamedContents runOneShot(const Subject &S, std::size_t NumThreads) {
  std::vector<std::string> Errors;
  auto Prog = core::Program::fromSource(S.Source, &Errors);
  EXPECT_NE(Prog, nullptr) << (Errors.empty() ? "" : Errors[0]);
  if (!Prog)
    return {};
  interp::EngineOptions Options;
  Options.NumThreads = NumThreads;
  Options.EchoPrintSize = false;
  auto Engine = Prog->makeEngine(Options);
  for (const auto &[Relation, Tuples] : S.MakeInputs(*Prog))
    Engine->insertTuples(Relation, Tuples);
  Engine->run();

  NamedContents Result;
  for (const std::string &Relation : S.Outputs) {
    const ram::Relation *Decl = nullptr;
    for (const auto &Candidate : Prog->getRam().getRelations())
      if (Candidate->getName() == Relation)
        Decl = Candidate.get();
    EXPECT_NE(Decl, nullptr) << Relation;
    Result.emplace_back(Relation,
                        resolveTuples(Prog->getSymbolTable(),
                                      Decl->getColumnTypes(),
                                      Engine->getTuples(Relation)));
  }
  return Result;
}

/// The session under test: the same facts split into \p NumBatches loads.
NamedContents runSession(const Subject &S, std::size_t NumBatches,
                         std::size_t NumThreads) {
  SessionOptions Options;
  Options.Engine.NumThreads = NumThreads;
  std::vector<std::string> Errors;
  auto Session = EngineSession::fromSource(S.Source, Options, &Errors);
  EXPECT_NE(Session, nullptr) << (Errors.empty() ? "" : Errors[0]);
  if (!Session)
    return {};

  // Intern through the session's own symbol table, then split.
  auto MutableProg = const_cast<core::Program *>(&Session->program());
  const std::vector<FactBatch> Batches =
      splitBatches(S.MakeInputs(*MutableProg), NumBatches);
  for (const FactBatch &Batch : Batches) {
    const BatchResult R = Session->loadFacts(Batch);
    EXPECT_TRUE(R.Error.empty()) << S.Name << ": " << R.Error;
  }
  EXPECT_EQ(Session->epoch(), NumBatches);

  const MaintTelemetry Tel = Session->maintTelemetry();
  EXPECT_EQ(Tel.Batches, NumBatches) << S.Name;
  EXPECT_EQ(Tel.ReevalStrata > 0, S.ExpectReevalFallback)
      << S.Name << " scoped-fallback expectation flipped";

  Snapshot Snap = Session->snapshot();
  NamedContents Result;
  for (const std::string &Relation : S.Outputs) {
    const std::vector<ColumnTypeKind> *Types =
        Session->relationTypes(Relation);
    EXPECT_NE(Types, nullptr) << Relation;
    if (!Types)
      continue;
    Result.emplace_back(Relation, resolveTuples(Session->symbols(), *Types,
                                                Snap.tuples(Relation)));
  }
  return Result;
}

/// (subject, threads): the resident session must match the one-shot
/// pipeline. The one-shot program keeps source order while every
/// maintenance version is planned driver-first max-bound, so the reordered
/// delta joins get the same differential scrutiny as the cold path.
class SessionEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SessionEquivalenceTest, BatchedLoadsMatchOneShot) {
  auto [SubjectIndex, NumThreads] = GetParam();
  const Subject S = subjects()[SubjectIndex];
  const NamedContents Reference = runOneShot(S, NumThreads);
  bool AnyTuples = false;
  for (const auto &[Relation, Tuples] : Reference)
    AnyTuples = AnyTuples || !Tuples.empty();
  EXPECT_TRUE(AnyTuples) << S.Name << " produced no tuples at all";

  for (std::size_t NumBatches : {1u, 2u, 5u}) {
    const NamedContents Batched = runSession(S, NumBatches, NumThreads);
    ASSERT_EQ(Batched.size(), Reference.size());
    for (std::size_t I = 0; I < Reference.size(); ++I)
      EXPECT_EQ(Batched[I], Reference[I])
          << S.Name << " relation " << Reference[I].first
          << " differs from one-shot with " << NumBatches << " batches at -j"
          << NumThreads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Subjects, SessionEquivalenceTest,
    ::testing::Combine(::testing::Range(0, NumSubjects),
                       ::testing::Values(1, 4)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>> &Info) {
      static const std::vector<Subject> All = subjects();
      return All[std::get<0>(Info.param)].Name + "_j" +
             std::to_string(std::get<1>(Info.param));
    });

//===----------------------------------------------------------------------===//
// Session semantics beyond equivalence
//===----------------------------------------------------------------------===//

constexpr const char *TcSource = R"(
  .decl edge(a:number, b:number)
  .decl path(a:number, b:number)
  path(x, y) :- edge(x, y).
  path(x, z) :- path(x, y), edge(y, z).
)";

FactBatch edgeBatch(std::initializer_list<std::pair<RamDomain, RamDomain>>
                        Edges) {
  std::vector<DynTuple> Tuples;
  for (const auto &[A, B] : Edges)
    Tuples.push_back({A, B});
  return {{"edge", Tuples}};
}

TEST(SessionTest, SnapshotIsolatesFromLaterBatches) {
  auto Session = EngineSession::fromSource(TcSource);
  ASSERT_NE(Session, nullptr);
  Session->loadFacts(edgeBatch({{1, 2}, {2, 3}}));

  Snapshot Old = Session->snapshot();
  EXPECT_EQ(Old.epoch(), 1u);
  EXPECT_EQ(Old.tuples("path").size(), 3u);

  // A later batch must not leak into the pinned snapshot...
  Session->loadFacts(edgeBatch({{3, 4}}));
  EXPECT_EQ(Old.epoch(), 1u);
  EXPECT_EQ(Old.tuples("path").size(), 3u);

  // ...while a fresh snapshot observes it.
  Snapshot Fresh = Session->snapshot();
  EXPECT_EQ(Fresh.epoch(), 2u);
  EXPECT_EQ(Fresh.tuples("path").size(), 6u);
}

TEST(SessionTest, DuplicateTuplesAreCountedNotRederived) {
  auto Session = EngineSession::fromSource(TcSource);
  ASSERT_NE(Session, nullptr);
  BatchResult First = Session->loadFacts(edgeBatch({{1, 2}, {2, 3}}));
  EXPECT_EQ(First.Inserted, 2u);
  EXPECT_EQ(First.Duplicates, 0u);

  BatchResult Second = Session->loadFacts(edgeBatch({{2, 3}, {3, 4}}));
  EXPECT_EQ(Second.Inserted, 1u);
  EXPECT_EQ(Second.Duplicates, 1u);
  EXPECT_EQ(Session->query("path", Pattern(2)).size(), 6u);
}

TEST(SessionTest, QueryPatternsUseBoundPrefixes) {
  auto Session = EngineSession::fromSource(TcSource);
  ASSERT_NE(Session, nullptr);
  Session->loadFacts(edgeBatch({{1, 2}, {2, 3}, {3, 4}}));

  Snapshot Snap = Session->snapshot();
  QueryPlan Plan;
  Pattern P(2);
  P[0] = 1;
  std::vector<DynTuple> From1 = Snap.query("path", P, &Plan);
  EXPECT_EQ(From1.size(), 3u);
  EXPECT_GE(Plan.PrefixLen, 1u);
  for (const DynTuple &Tuple : From1)
    EXPECT_EQ(Tuple[0], 1);

  // A second-column binding has no index prefix but must still filter.
  Pattern Q(2);
  Q[1] = 4;
  std::vector<DynTuple> To4 = Snap.query("path", Q);
  EXPECT_EQ(To4.size(), 3u);
  for (const DynTuple &Tuple : To4)
    EXPECT_EQ(Tuple[1], 4);
}

TEST(SessionTest, TextBatchesReportMalformedRows) {
  auto Session = EngineSession::fromSource(TcSource);
  ASSERT_NE(Session, nullptr);
  TextBatch Batch = {{"edge", {{"1", "2"}, {"2", "oops"}, {"3"}}},
                     {"nosuch", {{"9"}}}};
  std::vector<FactError> Errors;
  BatchResult R = Session->loadFacts(Batch, Errors);
  EXPECT_EQ(R.Inserted, 1u);
  ASSERT_EQ(Errors.size(), 3u);
  EXPECT_EQ(Errors[0].Line, 2u);
  EXPECT_EQ(Errors[0].Column, 2u);
  EXPECT_NE(Errors[0].Message.find("malformed number"), std::string::npos);
  EXPECT_NE(Errors[1].Message.find("1 columns"), std::string::npos);
  EXPECT_NE(Errors[2].Message.find("unknown relation"), std::string::npos);
  EXPECT_EQ(Session->query("path", Pattern(2)).size(), 1u);
}

/// The left-right TSan subject: readers continuously snapshot and query
/// while a writer publishes batches. Every observed state must be one the
/// writer actually published — path sizes only ever grow, and each
/// snapshot's contents are internally consistent with its epoch.
TEST(SessionTest, ConcurrentReadersObserveConsistentEpochs) {
  auto Session = EngineSession::fromSource(TcSource);
  ASSERT_NE(Session, nullptr);
  constexpr std::size_t NumBatches = 24;
  // Epoch E publishes a chain of E edges -> E*(E+1)/2 paths.
  auto PathsAt = [](std::uint64_t Epoch) {
    return static_cast<std::size_t>(Epoch * (Epoch + 1) / 2);
  };

  std::atomic<bool> Done{false};
  std::vector<std::thread> Readers;
  std::atomic<std::size_t> Observations{0};
  for (int R = 0; R < 3; ++R)
    Readers.emplace_back([&] {
      while (!Done.load(std::memory_order_acquire)) {
        Snapshot Snap = Session->snapshot();
        const std::uint64_t Epoch = Snap.epoch();
        EXPECT_EQ(Snap.tuples("path").size(), PathsAt(Epoch));
        EXPECT_EQ(Snap.tuples("edge").size(), Epoch);
        Observations.fetch_add(1, std::memory_order_relaxed);
      }
    });

  for (RamDomain I = 0; I < RamDomain(NumBatches); ++I)
    Session->loadFacts(edgeBatch({{I, I + 1}}));
  // On a loaded machine the writer can outrun the readers entirely; keep
  // the readers spinning until each has demonstrably observed something.
  while (Observations.load(std::memory_order_relaxed) < 8)
    std::this_thread::yield();
  Done.store(true, std::memory_order_release);
  for (std::thread &T : Readers)
    T.join();

  EXPECT_GE(Observations.load(), 8u);
  EXPECT_EQ(Session->query("path", Pattern(2)).size(), PathsAt(NumBatches));
}

/// The retraction TSan subject: readers snapshot and query while the
/// writer grows a chain edge by edge and then retracts it from the front,
/// every shrink maintained in place (DRed over-delete/rederive), never a
/// rebuild. Each snapshot must be one of the published states: the edge
/// and path counts are a function of the epoch alone.
TEST(SessionTest, ConcurrentReadersObserveConsistentRetractions) {
  auto Session = EngineSession::fromSource(TcSource);
  ASSERT_NE(Session, nullptr);
  constexpr std::uint64_t NumEdges = 12;
  // Epochs 1..N publish a chain of E edges; epochs N+1..2N retract edges
  // from the front, leaving a suffix chain of 2N - E edges.
  auto EdgesAt = [](std::uint64_t Epoch) {
    return static_cast<std::size_t>(Epoch <= NumEdges ? Epoch
                                                      : 2 * NumEdges - Epoch);
  };
  auto PathsAt = [&](std::uint64_t Epoch) {
    const std::size_t E = EdgesAt(Epoch);
    return E * (E + 1) / 2;
  };

  std::atomic<bool> Done{false};
  std::vector<std::thread> Readers;
  std::atomic<std::size_t> Observations{0};
  for (int R = 0; R < 3; ++R)
    Readers.emplace_back([&] {
      while (!Done.load(std::memory_order_acquire)) {
        Snapshot Snap = Session->snapshot();
        const std::uint64_t Epoch = Snap.epoch();
        EXPECT_EQ(Snap.tuples("edge").size(), EdgesAt(Epoch));
        EXPECT_EQ(Snap.tuples("path").size(), PathsAt(Epoch));
        Observations.fetch_add(1, std::memory_order_relaxed);
      }
    });

  auto edgeOp = [](RamDomain From, bool Retract) {
    inc::RelationOps Ops;
    Ops.Relation = "edge";
    DynTuple Edge(2);
    Edge[0] = From;
    Edge[1] = From + 1;
    (Retract ? Ops.Retracts : Ops.Inserts).push_back(std::move(Edge));
    return inc::MixedBatch{std::move(Ops)};
  };
  for (RamDomain I = 0; I < RamDomain(NumEdges); ++I) {
    const BatchResult R = Session->applyMixed(edgeOp(I, /*Retract=*/false));
    ASSERT_TRUE(R.Error.empty()) << R.Error;
    EXPECT_EQ(R.Inserted, 1u);
  }
  for (RamDomain I = 0; I < RamDomain(NumEdges); ++I) {
    const BatchResult R = Session->applyMixed(edgeOp(I, /*Retract=*/true));
    ASSERT_TRUE(R.Error.empty()) << R.Error;
    EXPECT_EQ(R.Deleted, 1u);
  }
  while (Observations.load(std::memory_order_relaxed) < 8)
    std::this_thread::yield();
  Done.store(true, std::memory_order_release);
  for (std::thread &T : Readers)
    T.join();

  EXPECT_GE(Observations.load(), 8u);
  EXPECT_EQ(Session->query("path", Pattern(2)).size(), 0u);
  EXPECT_EQ(Session->maintTelemetry().Batches, 2 * NumEdges);
}

// The eqrel variant: every retraction splits the derived class, so the
// passive side catches up by copying the published side's equivalence
// relation while readers keep querying that same relation (whose lazily
// built member index is shared state).
TEST(SessionTest, ConcurrentReadersObserveConsistentEqrelSplits) {
  auto Session = EngineSession::fromSource(R"(
    .decl link(a:number, b:number)
    .decl same(a:number, b:number) eqrel
    same(x, y) :- link(x, y).
  )");
  ASSERT_NE(Session, nullptr);
  constexpr std::uint64_t NumLinks = 10;
  // Epochs 1..N link a chain of N + 1 nodes into one class; epochs
  // N+1..2N unlink it from the front, dropping one node per batch.
  auto LinksAt = [](std::uint64_t Epoch) {
    return static_cast<std::size_t>(Epoch <= NumLinks ? Epoch
                                                      : 2 * NumLinks - Epoch);
  };
  auto PairsAt = [&](std::uint64_t Epoch) {
    const std::size_t L = LinksAt(Epoch);
    return L == 0 ? 0 : (L + 1) * (L + 1);
  };

  std::atomic<bool> Done{false};
  std::vector<std::thread> Readers;
  std::atomic<std::size_t> Observations{0};
  for (int R = 0; R < 3; ++R)
    Readers.emplace_back([&] {
      while (!Done.load(std::memory_order_acquire)) {
        Snapshot Snap = Session->snapshot();
        const std::uint64_t Epoch = Snap.epoch();
        const std::size_t L = LinksAt(Epoch);
        EXPECT_EQ(Snap.tuples("link").size(), L);
        EXPECT_EQ(Snap.tuples("same").size(), PairsAt(Epoch));
        // An anchored search from a node the chain always keeps: the
        // first while linking, the last while unlinking.
        Pattern P(2);
        P[0] = static_cast<RamDomain>(Epoch <= NumLinks ? 0 : NumLinks);
        EXPECT_EQ(Snap.query("same", P).size(), L == 0 ? 0 : L + 1);
        Observations.fetch_add(1, std::memory_order_relaxed);
      }
    });

  auto linkOp = [](RamDomain From, bool Retract) {
    inc::RelationOps Ops;
    Ops.Relation = "link";
    DynTuple Link(2);
    Link[0] = From;
    Link[1] = From + 1;
    (Retract ? Ops.Retracts : Ops.Inserts).push_back(std::move(Link));
    return inc::MixedBatch{std::move(Ops)};
  };
  for (RamDomain I = 0; I < RamDomain(NumLinks); ++I) {
    const BatchResult R = Session->applyMixed(linkOp(I, /*Retract=*/false));
    ASSERT_TRUE(R.Error.empty()) << R.Error;
    EXPECT_EQ(R.Inserted, 1u);
  }
  for (RamDomain I = 0; I < RamDomain(NumLinks); ++I) {
    const BatchResult R = Session->applyMixed(linkOp(I, /*Retract=*/true));
    ASSERT_TRUE(R.Error.empty()) << R.Error;
    EXPECT_EQ(R.Deleted, 1u);
    EXPECT_EQ(R.Maint.ReevalStrata, 1u);
  }
  while (Observations.load(std::memory_order_relaxed) < 8)
    std::this_thread::yield();
  Done.store(true, std::memory_order_release);
  for (std::thread &T : Readers)
    T.join();

  EXPECT_GE(Observations.load(), 8u);
  EXPECT_EQ(Session->query("same", Pattern(2)).size(), 0u);
  EXPECT_EQ(Session->maintTelemetry().Batches, 2 * NumLinks);
}

//===----------------------------------------------------------------------===//
// Served streams: rule-free, `.input` with clauses, `$`
//===----------------------------------------------------------------------===//

/// One step of a served stream: a mixed batch and what applying it must
/// report. A rejected step expects an error and no change at all.
struct StreamStep {
  inc::MixedBatch Batch;
  bool Rejected = false;
  std::size_t Inserted = 0, Duplicates = 0, Deleted = 0, Missing = 0;
};

inc::MixedBatch mixedOps(const std::string &Relation,
                         std::vector<DynTuple> Inserts,
                         std::vector<DynTuple> Retracts = {}) {
  inc::RelationOps Ops;
  Ops.Relation = Relation;
  Ops.Inserts = std::move(Inserts);
  Ops.Retracts = std::move(Retracts);
  return {std::move(Ops)};
}

/// What a served stream left behind, for the per-subject telemetry
/// expectations.
struct StreamOutcome {
  std::uint64_t Accepted = 0;
  MaintTelemetry Tel;
};

/// Serves \p Steps through a session over \p Source and, after every step,
/// compares \p Outputs with a one-shot run (at -j1, like the session)
/// seeded with the net EDB the accepted batches leave behind
/// (retract-before-insert within a batch). Also checks each step's counts
/// and that the epoch advances exactly on accepted batches, each of them
/// maintained.
StreamOutcome serveStream(const std::string &Source,
                          const std::vector<std::string> &Outputs,
                          const std::vector<StreamStep> &Steps) {
  StreamOutcome Out;
  auto Session = EngineSession::fromSource(Source);
  EXPECT_NE(Session, nullptr);
  if (!Session)
    return Out;

  std::map<std::string, std::set<DynTuple>> NetEdb;
  for (std::size_t Step = 0; Step < Steps.size(); ++Step) {
    const StreamStep &Expect = Steps[Step];
    const std::uint64_t Before = Session->epoch();
    const BatchResult R = Session->applyMixed(Expect.Batch);
    if (Expect.Rejected) {
      EXPECT_FALSE(R.Error.empty()) << "step " << Step;
      EXPECT_EQ(Session->epoch(), Before) << "step " << Step;
      EXPECT_EQ(R.Epoch, Before) << "step " << Step;
    } else {
      EXPECT_TRUE(R.Error.empty()) << "step " << Step << ": " << R.Error;
      EXPECT_EQ(Session->epoch(), Before + 1) << "step " << Step;
      EXPECT_EQ(R.Epoch, Before + 1) << "step " << Step;
      EXPECT_EQ(R.Inserted, Expect.Inserted) << "step " << Step;
      EXPECT_EQ(R.Duplicates, Expect.Duplicates) << "step " << Step;
      EXPECT_EQ(R.Deleted, Expect.Deleted) << "step " << Step;
      EXPECT_EQ(R.Missing, Expect.Missing) << "step " << Step;
      ++Out.Accepted;
      for (const inc::RelationOps &Ops : Expect.Batch) {
        std::set<DynTuple> &Rel = NetEdb[Ops.Relation];
        for (const DynTuple &Tuple : Ops.Retracts)
          Rel.erase(Tuple);
        for (const DynTuple &Tuple : Ops.Inserts)
          Rel.insert(Tuple);
      }
    }

    auto Prog = core::Program::fromSource(Source);
    EXPECT_NE(Prog, nullptr);
    if (!Prog)
      return Out;
    interp::EngineOptions Options;
    Options.EchoPrintSize = false;
    Options.SuppressIo = true;
    auto Engine = Prog->makeEngine(Options);
    for (const auto &[Relation, Tuples] : NetEdb)
      Engine->insertTuples(Relation, std::vector<DynTuple>(Tuples.begin(),
                                                           Tuples.end()));
    Engine->run();
    Snapshot Snap = Session->snapshot();
    for (const std::string &Relation : Outputs) {
      std::vector<DynTuple> Expected = Engine->getTuples(Relation);
      std::sort(Expected.begin(), Expected.end());
      EXPECT_EQ(Snap.tuples(Relation), Expected)
          << Relation << " differs from one-shot after step " << Step;
    }
  }
  Out.Tel = Session->maintTelemetry();
  EXPECT_EQ(Out.Tel.Batches, Out.Accepted);
  return Out;
}

/// The count of \p Reason among a session's fallback records.
std::uint64_t fallbacksFor(const MaintTelemetry &Tel,
                           const std::string &Reason) {
  for (const auto &[Recorded, Count] : Tel.FallbackReasons)
    if (Recorded == Reason)
      return Count;
  return 0;
}

/// A program with no clauses at all is maintained by its EDB prologue
/// alone: no stratum, no fallback.
TEST(SessionTest, RuleFreeProgramIsMaintained) {
  std::vector<StreamStep> Steps(4);
  Steps[0].Batch = mixedOps("a", {{1}, {2}, {3}});
  Steps[0].Inserted = 3;
  Steps[1].Batch = mixedOps("a", {{4}}, {{2}, {9}});
  Steps[1].Inserted = 1;
  Steps[1].Deleted = 1;
  Steps[1].Missing = 1;
  Steps[2].Batch = mixedOps("a", {{1}, {2}}, {{1}});
  Steps[2].Inserted = 1;
  Steps[2].Duplicates = 1;
  Steps[3].Batch = mixedOps("nosuch", {{1}});
  Steps[3].Rejected = true;
  const StreamOutcome Out =
      serveStream(".decl a(x:number)\n", {"a"}, Steps);
  EXPECT_EQ(Out.Accepted, 3u);
  EXPECT_EQ(Out.Tel.ReevalStrata, 0u);
  EXPECT_TRUE(Out.Tel.FallbackReasons.empty());
}

/// An `.input` relation that also has an inline fact is lifted into an
/// EDB shadow and maintained. Retractions from it are rejected (it has
/// clauses); inserts extend the inline fact, and a batch re-inserting the
/// inline fact counts it as a duplicate.
TEST(SessionTest, InputWithInlineFactsMatchesOneShot) {
  constexpr const char *Source = R"(
    .decl edge(a:number, b:number)
    .input edge
    .decl path(a:number, b:number)
    edge(1, 2).
    path(x, y) :- edge(x, y).
    path(x, z) :- path(x, y), edge(y, z).
  )";
  std::vector<StreamStep> Steps(5);
  Steps[0].Batch = mixedOps("edge", {{2, 3}, {3, 4}});
  Steps[0].Inserted = 2;
  Steps[1].Batch = mixedOps("edge", {}, {{2, 3}});
  Steps[1].Rejected = true;
  Steps[2].Batch = mixedOps("edge", {{1, 2}, {4, 5}, {4, 5}});
  Steps[2].Inserted = 1;
  Steps[2].Duplicates = 2;
  Steps[3].Batch = mixedOps("edge", {{5, 6}}, {{3, 4}});
  Steps[3].Rejected = true;
  Steps[4].Batch = mixedOps("edge", {{5, 1}});
  Steps[4].Inserted = 1;
  const StreamOutcome Out = serveStream(Source, {"edge", "path"}, Steps);
  EXPECT_EQ(Out.Accepted, 3u);
  EXPECT_TRUE(Out.Tel.FallbackReasons.empty());
}

/// A tuple inserted into a lifted `.input` relation stays even when the
/// rule that also derived it loses its support, as in a one-shot run that
/// loaded it.
TEST(SessionTest, InsertedFactOnDerivedInputSurvivesRetraction) {
  constexpr const char *Source = R"(
    .decl a(x:number)
    .decl b(x:number)
    .input b
    b(x) :- a(x).
  )";
  std::vector<StreamStep> Steps(5);
  Steps[0].Batch = mixedOps("a", {{5}});
  Steps[0].Inserted = 1;
  // b(5) is already derived: a duplicate, but it still reaches the shadow.
  Steps[1].Batch = mixedOps("b", {{5}});
  Steps[1].Duplicates = 1;
  Steps[2].Batch = mixedOps("a", {}, {{5}});
  Steps[2].Deleted = 1;
  Steps[3].Batch = mixedOps("b", {}, {{5}});
  Steps[3].Rejected = true;
  Steps[4].Batch = mixedOps("b@edb", {{6}});
  Steps[4].Rejected = true;
  const StreamOutcome Out = serveStream(Source, {"a", "b"}, Steps);
  EXPECT_EQ(Out.Accepted, 3u);

  // The shadow is not served.
  auto Session = EngineSession::fromSource(Source);
  ASSERT_NE(Session, nullptr);
  EXPECT_EQ(Session->relationTypes("b@edb"), nullptr);
  const std::vector<std::string> Names = Session->relationNames();
  EXPECT_EQ(Names, (std::vector<std::string>{"a", "b"}));
}

/// `$` mints ids in evaluation order, so its stratum is a scoped Reeval
/// that re-runs on every accepted batch — insert-only or retracting —
/// from a restarted counter: the numbering matches a cold run at -j1 over
/// the same net EDB, and the stratum above it stays DRed.
TEST(SessionTest, CounterProgramMatchesColdRun) {
  constexpr const char *Source = R"(
    .decl item(x:number)
    .decl tagged(id:number, x:number)
    tagged($, x) :- item(x).
    .decl pair(a:number, b:number)
    pair(a, b) :- tagged(a, x), tagged(b, y), x < y.
  )";
  std::vector<StreamStep> Steps(5);
  Steps[0].Batch = mixedOps("item", {{10}, {20}, {30}});
  Steps[0].Inserted = 3;
  Steps[1].Batch = mixedOps("item", {}, {{20}, {99}});
  Steps[1].Deleted = 1;
  Steps[1].Missing = 1;
  Steps[2].Batch = mixedOps("item", {{20}, {40}}, {{10}});
  Steps[2].Inserted = 2;
  Steps[2].Deleted = 1;
  // An insert cancels the same batch's retraction: the tuple stays.
  Steps[3].Batch = mixedOps("item", {{40}, {50}}, {{40}});
  Steps[3].Inserted = 1;
  Steps[3].Duplicates = 1;
  Steps[4].Batch = mixedOps("item", {}, {{30}, {50}});
  Steps[4].Deleted = 2;
  const StreamOutcome Out =
      serveStream(Source, {"item", "tagged", "pair"}, Steps);
  EXPECT_EQ(Out.Accepted, 5u);
  EXPECT_EQ(Out.Tel.ReevalStrata, Out.Accepted);
  EXPECT_EQ(fallbacksFor(Out.Tel, "`$` mints ids in evaluation order"),
            Out.Accepted);
}

/// Memory stays flat under churn: 2000 batches each retract one edge of a
/// complete graph and re-insert the one the previous batch retracted, so
/// the live EDB and every derived relation keep their sizes, and after
/// every publish no maintenance or semi-naive aux relation holds a tuple.
TEST(SessionTest, ChurnAtConstantEdbKeepsMemoryFlat) {
  constexpr const char *Source = R"(
    .decl edge(a:number, b:number)
    .decl path(a:number, b:number)
    path(x, y) :- edge(x, y).
    path(x, z) :- path(x, y), edge(y, z).
    .decl hop2(a:number, c:number)
    hop2(x, z) :- edge(x, y), edge(y, z).
  )";
  constexpr RamDomain NumNodes = 6;
  constexpr std::size_t NumBatches = 2000;
  std::vector<DynTuple> Edges;
  for (RamDomain A = 0; A < NumNodes; ++A)
    for (RamDomain B = 0; B < NumNodes; ++B)
      if (A != B)
        Edges.push_back({A, B});

  auto Session = EngineSession::fromSource(Source);
  ASSERT_NE(Session, nullptr);
  const ram::Program &Ram = Session->program().getRam();
  ASSERT_NE(Ram.getMaintAux("hop2"), nullptr);
  std::vector<std::string> Declared = Session->relationNames();
  std::vector<std::string> Aux;
  for (const auto &Rel : Ram.getRelations())
    for (const char *Prefix : {"delta_", "rederive_", "new_"})
      if (Rel->getName().rfind(Prefix, 0) == 0)
        Aux.push_back(Rel->getName());
  ASSERT_FALSE(Aux.empty());

  // Every edge but the first: the first is the initial hole.
  ASSERT_TRUE(Session
                  ->applyMixed(mixedOps("edge", std::vector<DynTuple>(
                                                    Edges.begin() + 1,
                                                    Edges.end())))
                  .Error.empty());
  std::map<std::string, std::size_t> Sizes;
  {
    Snapshot Snap = Session->snapshot();
    for (const std::string &Name : Declared)
      Sizes[Name] = Snap.relation(Name)->size();
  }
  EXPECT_EQ(Sizes.at("edge"), Edges.size() - 1);
  EXPECT_EQ(Sizes.at("path"), std::size_t(NumNodes * NumNodes));

  std::size_t Hole = 0;
  for (std::size_t I = 0; I < NumBatches; ++I) {
    const std::size_t Next = (Hole + 7 * I + 1) % Edges.size();
    const std::size_t Retract = Next == Hole ? (Next + 1) % Edges.size()
                                             : Next;
    const BatchResult R = Session->applyMixed(
        mixedOps("edge", {Edges[Hole]}, {Edges[Retract]}));
    ASSERT_TRUE(R.Error.empty()) << "batch " << I << ": " << R.Error;
    ASSERT_EQ(R.Inserted, 1u) << "batch " << I;
    ASSERT_EQ(R.Deleted, 1u) << "batch " << I;
    Hole = Retract;

    Snapshot Snap = Session->snapshot();
    for (const std::string &Name : Declared)
      ASSERT_EQ(Snap.relation(Name)->size(), Sizes.at(Name))
          << Name << " after batch " << I;
    for (const std::string &Name : Aux)
      ASSERT_TRUE(Snap.relation(Name)->empty())
          << Name << " holds tuples after batch " << I;
  }
  EXPECT_EQ(Session->maintTelemetry().Batches, NumBatches + 1);
}

//===----------------------------------------------------------------------===//
// Query-result cache vs snapshot swaps
//===----------------------------------------------------------------------===//

/// One cache-aware query, the way the wire layer issues them: pin a
/// snapshot, consult the cache at its epoch, fill on miss.
std::size_t cachedCount(EngineSession &Session, QueryCache &Cache,
                        const std::string &Relation, const Pattern &P,
                        bool *WasHit = nullptr) {
  Snapshot Snap = Session.snapshot();
  const std::string Key = QueryCache::key(Relation, P);
  if (std::shared_ptr<const QueryCache::CachedResult> Hit =
          Cache.lookup(Key, Snap.epoch())) {
    if (WasHit)
      *WasHit = true;
    return Hit->Count;
  }
  if (WasHit)
    *WasHit = false;
  auto Result = std::make_shared<QueryCache::CachedResult>();
  Result->Count = Snap.query(Relation, P).size();
  Cache.insert(Key, Snap.epoch(), Result);
  return Result->Count;
}

/// The invalidation-equivalence contract: across every snapshot swap, a
/// cache-mediated query must agree with a direct query against a fresh
/// snapshot — hits and misses alike.
TEST(SessionCacheTest, CachedQueriesStayEquivalentAcrossSwaps) {
  auto Session = EngineSession::fromSource(TcSource);
  ASSERT_NE(Session, nullptr);
  QueryCache Cache;
  Pattern From1(2);
  From1[0] = 1;

  for (RamDomain I = 1; I <= 6; ++I) {
    Session->loadFacts(edgeBatch({{I, I + 1}}));
    bool Hit = true;
    const std::size_t Cold =
        cachedCount(*Session, Cache, "path", From1, &Hit);
    EXPECT_FALSE(Hit) << "epoch " << I << ": stale entry served after swap";
    const std::size_t Warm =
        cachedCount(*Session, Cache, "path", From1, &Hit);
    EXPECT_TRUE(Hit) << "epoch " << I;
    const std::size_t Direct = Session->query("path", From1).size();
    EXPECT_EQ(Cold, Direct);
    EXPECT_EQ(Warm, Direct);
    EXPECT_EQ(Direct, static_cast<std::size_t>(I))
        << "chain 1..N has N paths from node 1";
  }

  const QueryCache::Counters C = Cache.counters();
  EXPECT_EQ(C.Hits, 6u);
  EXPECT_EQ(C.Misses, 6u);
  // Swaps 2..6 each dropped one populated entry; the first miss found an
  // empty cache.
  EXPECT_EQ(C.Invalidations, 5u);
}

TEST(SessionCacheTest, KeysDistinguishRelationsAndPatterns) {
  Pattern A(2), B(2), C(2);
  A[0] = 1;
  B[1] = 1;
  C[0] = 256; // same bytes as ordinal 1 under a naive 1-byte encoding
  EXPECT_NE(QueryCache::key("path", A), QueryCache::key("edge", A));
  EXPECT_NE(QueryCache::key("path", A), QueryCache::key("path", B));
  EXPECT_NE(QueryCache::key("path", A), QueryCache::key("path", C));
  EXPECT_NE(QueryCache::key("path", A), QueryCache::key("path", Pattern(2)));
  EXPECT_EQ(QueryCache::key("path", A), QueryCache::key("path", A));
}

TEST(SessionCacheTest, StaleEpochInsertsAreDropped) {
  auto Session = EngineSession::fromSource(TcSource);
  ASSERT_NE(Session, nullptr);
  Session->loadFacts(edgeBatch({{1, 2}}));
  QueryCache Cache;
  const Pattern Any(2);
  const std::string Key = QueryCache::key("path", Any);

  // A reader computed a result at epoch 1, but a publish to epoch 2 beat
  // its insert: the stale result must not land.
  EXPECT_EQ(Cache.lookup(Key, 2), nullptr);
  auto Stale = std::make_shared<QueryCache::CachedResult>();
  Stale->Count = 1;
  Cache.insert(Key, 1, Stale);
  EXPECT_EQ(Cache.lookup(Key, 2), nullptr)
      << "insert from a superseded snapshot must be discarded";
  EXPECT_EQ(Cache.counters().Entries, 0u);
}

/// The cache's TSan subject: concurrent cache-mediated readers against a
/// publishing writer. Every count a reader observes — cached or not —
/// must be one of the writer's published states.
TEST(SessionCacheTest, ConcurrentCachedReadersSeeOnlyPublishedStates) {
  auto Session = EngineSession::fromSource(TcSource);
  ASSERT_NE(Session, nullptr);
  QueryCache Cache;
  constexpr std::size_t NumBatches = 16;
  auto PathsAt = [](std::uint64_t Epoch) {
    return static_cast<std::size_t>(Epoch * (Epoch + 1) / 2);
  };

  std::atomic<bool> Done{false};
  std::atomic<std::size_t> Observations{0};
  std::vector<std::thread> Readers;
  for (int R = 0; R < 3; ++R)
    Readers.emplace_back([&] {
      const Pattern Any(2);
      const std::string Key = QueryCache::key("path", Any);
      while (!Done.load(std::memory_order_acquire)) {
        Snapshot Snap = Session->snapshot();
        std::size_t Count;
        if (auto Hit = Cache.lookup(Key, Snap.epoch())) {
          Count = Hit->Count;
        } else {
          auto Result = std::make_shared<QueryCache::CachedResult>();
          Result->Count = Snap.query("path", Any).size();
          Cache.insert(Key, Snap.epoch(), Result);
          Count = Result->Count;
        }
        EXPECT_EQ(Count, PathsAt(Snap.epoch()));
        Observations.fetch_add(1, std::memory_order_relaxed);
      }
    });

  for (RamDomain I = 0; I < RamDomain(NumBatches); ++I)
    Session->loadFacts(edgeBatch({{I, I + 1}}));
  while (Observations.load(std::memory_order_relaxed) < 8)
    std::this_thread::yield();
  Done.store(true, std::memory_order_release);
  for (std::thread &T : Readers)
    T.join();
  EXPECT_GE(Observations.load(), 8u);
}

TEST(SessionTest, RelationMetadataListsDeclaredRelationsOnly) {
  auto Session = EngineSession::fromSource(TcSource);
  ASSERT_NE(Session, nullptr);
  const std::vector<std::string> Names = Session->relationNames();
  EXPECT_EQ(Names, (std::vector<std::string>{"edge", "path"}));
  ASSERT_NE(Session->relationTypes("edge"), nullptr);
  EXPECT_EQ(Session->relationTypes("edge")->size(), 2u);
  EXPECT_EQ(Session->relationTypes("delta_path"), nullptr);
  EXPECT_EQ(Session->relationTypes("nosuch"), nullptr);
}

TEST(SessionTest, CompileErrorsAreReportedNotFatal) {
  std::vector<std::string> Errors;
  auto Session = EngineSession::fromSource(".decl p(x:number)\np(y) :- q(y).",
                                           {}, &Errors);
  EXPECT_EQ(Session, nullptr);
  EXPECT_FALSE(Errors.empty());
}

} // namespace
