//===- perfbench/src/Inputs.cpp - Seeded workload inputs ----------------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every input of every workload, generated from the run's seed. The fig15
/// programs and generators are the Fig 15 stand-ins of bench/workloads
/// (VPC, DDisasm, DOOP); each program's generator seed is its bench/ seed
/// shifted by the run seed, so DefaultSeed reproduces the bench/ inputs
/// exactly. They are kept here, not linked, so that the benchmark's inputs
/// change only when this directory does.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <iterator>
#include <random>
#include <set>

using namespace perfbench;

namespace {

/// The generator seed of one program: its bench/ seed for DefaultSeed,
/// shifted by a prime stride for every other run seed.
unsigned programSeed(unsigned Base, std::uint64_t Seed) {
  return Base + static_cast<unsigned>((Seed - DefaultSeed) * 7919u);
}

//===----------------------------------------------------------------------===//
// fig15: the 13 Fig 15 stand-ins
//===----------------------------------------------------------------------===//

const char *VpcProgram = R"(
  .decl in_subnet(inst:number, subnet:number)
  .decl subnet_link(a:number, b:number)
  .decl acl_allow(subnet:number, port:number)
  .decl allows(inst:number, port:number)
  .decl listens(inst:number, port:number)
  .input in_subnet
  .input subnet_link
  .input acl_allow
  .input allows
  .input listens

  .decl subnet_reach(a:number, b:number)
  subnet_reach(a, b) :- subnet_link(a, b).
  subnet_reach(a, c) :- subnet_reach(a, b), subnet_link(b, c).

  .decl can_talk(a:number, b:number, p:number)
  can_talk(a, b, p) :-
      in_subnet(a, sa), in_subnet(b, sb),
      (a bxor b) band 1023 != 1023,
      ((a bshl 2) bxor (b bshr 1)) band 8191 != 8191,
      (a * 31 + b * 17) % 127 != 126,
      (a bor b) band 511 != 511,
      a != b,
      subnet_reach(sa, sb),
      allows(a, p), listens(b, p), acl_allow(sb, p).

  .decl exposed(b:number)
  exposed(b) :- can_talk(_, b, 22).
  .printsize can_talk
)";

OneShotProgram makeVpc(const std::string &Name, int NumSubnets,
                       int NumInstances, unsigned Seed) {
  OneShotProgram W;
  W.Name = Name;
  W.Source = VpcProgram;
  std::mt19937 Gen(Seed);
  std::uniform_int_distribution<RamDomain> Subnet(0, NumSubnets - 1);
  std::uniform_int_distribution<RamDomain> Port(20, 25);
  std::vector<DynTuple> InSubnet, Links, Acl, Allows, Listens;
  for (RamDomain I = 0; I < NumInstances; ++I) {
    InSubnet.push_back({I, Subnet(Gen)});
    Allows.push_back({I, Port(Gen)});
    Listens.push_back({I, Port(Gen)});
  }
  for (RamDomain S = 0; S < NumSubnets; ++S) {
    Links.push_back({S, (S + 1) % NumSubnets});
    if (S % 4 == 0)
      Links.push_back({S, (S * 7 + 3) % NumSubnets});
    for (RamDomain P = 20; P <= 25; ++P)
      if ((S + P) % 3 != 0)
        Acl.push_back({S, P});
  }
  W.Facts = {{"in_subnet", InSubnet},
             {"subnet_link", Links},
             {"acl_allow", Acl},
             {"allows", Allows},
             {"listens", Listens}};
  return W;
}

const char *DdisasmProgram = R"(
  .decl instruction(ea:number, size:number)
  .decl op_immediate(ea:number, v:number)
  .decl data_region(begin:number, size:number)
  .decl entry(ea:number)
  .input instruction
  .input op_immediate
  .input data_region
  .input entry

  .decl next(ea:number, n:number)
  next(ea, ea + sz) :- instruction(ea, sz).

  .decl code(ea:number)
  code(ea) :- entry(ea).
  code(n) :- code(ea), next(ea, n), n < 16777216.

  .decl moved_label(ea:number, b:number)
  moved_label(ea, b) :-
      op_immediate(ea, v), data_region(b, sz),
      (v - b) + (b - v) = 0, (v bxor b) band 134217728 = 0,
      v >= b, v < b + sz, (v - b) % 8 = 0,
      (v band 7) = (b band 7), ea + v > b + 4.

  .decl sym_diff(ea:number, d:number)
  sym_diff(ea, v - b) :- moved_label(ea, b), op_immediate(ea, v).

  .decl code_imm(ea:number, v:number)
  code_imm(ea, v) :- op_immediate(ea, v), code(ea).

  .decl same_size(a:number, b:number)
  same_size(a, b) :- instruction(a, s), instruction(b, s), a < b.

  .printsize moved_label
)";

OneShotProgram makeDdisasm(const std::string &Name, int NumInstructions,
                           int NumImmediates, int NumRegions, unsigned Seed,
                           int ExtraRules = 0) {
  OneShotProgram W;
  W.Name = Name;
  W.Source = DdisasmProgram;
  // specrand-like: a large program over a tiny input, where the frontend
  // and interpreter-tree generation dominate.
  if (ExtraRules > 0) {
    W.Source += "\n  .decl aux0(x:number)\n  .input aux0\n";
    for (int I = 1; I <= ExtraRules; ++I)
      W.Source += "  .decl aux" + std::to_string(I) + "(x:number)\n  aux" +
                  std::to_string(I) + "(x) :- aux" + std::to_string(I - 1) +
                  "(x), x + " + std::to_string(I) +
                  " >= 0, x band 262143 != 262143.\n";
    W.Facts.push_back({"aux0", {{1}, {2}, {3}}});
  }
  std::mt19937 Gen(Seed);
  std::uniform_int_distribution<RamDomain> Size(1, 8);
  std::uniform_int_distribution<RamDomain> Imm(0, 1 << 20);
  std::vector<DynTuple> Instructions, Immediates, Regions, Entries;
  RamDomain Ea = 0x1000;
  for (int I = 0; I < NumInstructions; ++I) {
    RamDomain Sz = Size(Gen);
    Instructions.push_back({Ea, Sz});
    Ea += Sz;
  }
  Entries.push_back({0x1000});
  for (int I = 0; I < NumImmediates; ++I)
    Immediates.push_back(
        {0x1000 + (Imm(Gen) % (NumInstructions * 4)), Imm(Gen)});
  RamDomain Begin = 1 << 19;
  for (int I = 0; I < NumRegions; ++I) {
    RamDomain Sz = 64 + (Imm(Gen) % 4096);
    Regions.push_back({Begin, Sz});
    Begin += Sz + (Imm(Gen) % 512);
  }
  W.Facts.push_back({"instruction", Instructions});
  W.Facts.push_back({"op_immediate", Immediates});
  W.Facts.push_back({"data_region", Regions});
  W.Facts.push_back({"entry", Entries});
  return W;
}

const char *DoopProgram = R"(
  .decl new_(v:number, o:number)
  .decl assign(v:number, w:number)
  .decl store(v:number, f:number, w:number)
  .decl load(v:number, w:number, f:number)
  .input new_
  .input assign
  .input store
  .input load

  .decl vpt(v:number, o:number)
  .decl hpt(o:number, f:number, p:number)
  vpt(v, o) :- new_(v, o).
  vpt(v, o) :- assign(v, w), vpt(w, o).
  hpt(o, f, p) :- store(v, f, w), vpt(v, o), vpt(w, p).
  vpt(v, p) :- load(v, w, f), vpt(w, o), hpt(o, f, p).

  .decl alias(a:number, b:number)
  alias(a, b) :- vpt(a, o), vpt(b, o), a < b.
  .printsize vpt
)";

OneShotProgram makeDoop(const std::string &Name, int NumVars, int CopyFactor,
                        unsigned Seed) {
  OneShotProgram W;
  W.Name = Name;
  W.Source = DoopProgram;
  std::mt19937 Gen(Seed);
  std::uniform_int_distribution<RamDomain> Var(0, NumVars - 1);
  std::uniform_int_distribution<RamDomain> Field(0, 7);
  std::vector<DynTuple> News, Assigns, Stores, Loads;
  for (RamDomain V = 0; V < NumVars; V += 5)
    News.push_back({V, V / 5});
  for (int I = 0; I < NumVars * CopyFactor; ++I)
    Assigns.push_back({Var(Gen), Var(Gen)});
  for (int I = 0; I < NumVars / 3; ++I)
    Stores.push_back({Var(Gen), Field(Gen), Var(Gen)});
  for (int I = 0; I < NumVars / 3; ++I)
    Loads.push_back({Var(Gen), Var(Gen), Field(Gen)});
  W.Facts = {{"new_", News},
             {"assign", Assigns},
             {"store", Stores},
             {"load", Loads}};
  return W;
}

std::vector<OneShotProgram> fig15Suite(std::uint64_t Seed) {
  auto S = [Seed](unsigned Base) { return programSeed(Base, Seed); };
  return {
      makeVpc("vpc-small", 40, 500, S(11)),
      makeVpc("vpc-medium", 60, 900, S(12)),
      makeVpc("vpc-large", 80, 1400, S(13)),
      makeDdisasm("gzip-like", 3000, 500, 1500, S(21)),
      makeDdisasm("bzip2-like", 4000, 700, 2000, S(22)),
      makeDdisasm("mcf-like", 2500, 400, 1200, S(23)),
      makeDdisasm("gamess-like", 6000, 1000, 3000, S(24)),
      makeDdisasm("gcc-like", 8000, 1200, 3500, S(25)),
      makeDdisasm("specrand-like", 30, 5, 5, S(26), /*ExtraRules=*/600),
      makeDoop("antlr-like", 320, 2, S(31)),
      makeDoop("bloat-like", 400, 2, S(32)),
      makeDoop("chart-like", 480, 2, S(33)),
      makeDoop("luindex-like", 360, 3, S(34)),
  };
}

//===----------------------------------------------------------------------===//
// bigprog: large programs over near-empty inputs
//===----------------------------------------------------------------------===//

/// A program of \p Rules rules over unary relations r0..rN fed by two tiny
/// EDB relations: specrand-like chains with arithmetic filters (half the
/// rules), joins with the EDB (a quarter), stratified negation and
/// arithmetic heads. Every seventh relation is re-seeded from e0 so negation
/// cannot empty the whole tail. \p Shape fixes which rule goes where and
/// \p Seed only the constants, so every run seed compiles programs of the
/// same shape and cost.
std::string bigProgramSource(int Rules, std::uint64_t Shape,
                             std::uint64_t Seed) {
  Rng R(Shape), Constants(Seed);
  std::string S = ".decl e0(x:number)\n.input e0\n"
                  ".decl e1(x:number, y:number)\n.input e1\n"
                  ".decl r0(x:number)\nr0(x) :- e0(x).\n";
  for (int I = 1; I < Rules; ++I) {
    const std::string Head = "r" + std::to_string(I);
    const int J = I - 1 - static_cast<int>(R.next(std::min(I, 4)));
    const int K = static_cast<int>(R.next(I));
    const std::string RJ = "r" + std::to_string(J);
    const std::string RK = "r" + std::to_string(K);
    const std::string C = std::to_string(Constants.next(1000));
    S += ".decl " + Head + "(x:number)\n";
    const std::uint64_t Kind = R.next(100);
    if (Kind < 50)
      S += Head + "(x) :- " + RJ + "(x), x + " + C +
           " >= 0, x band 262143 != 262143.\n";
    else if (Kind < 75)
      S += Head + "(y) :- " + RJ + "(x), e1(x, y), y < 64 + " + C + ".\n";
    else if (Kind < 90)
      S += Head + "(x) :- " + RJ + "(x), !" + RK + "(x).\n";
    else
      S += Head + "(x + 1) :- " + RJ + "(x), x < 64.\n";
    if (I % 7 == 0)
      S += Head + "(x) :- e0(x).\n";
  }
  const std::string Last = "r" + std::to_string(Rules - 1);
  S += ".printsize " + Last + "\n.output " + Last + "\n";
  return S;
}

/// 6 e0 and 16 e1 tuples over [0, 64).
std::vector<std::pair<std::string, std::vector<DynTuple>>>
bigProgramFacts(Rng &R) {
  std::vector<DynTuple> E0, E1;
  for (int I = 0; I < 6; ++I)
    E0.push_back({static_cast<RamDomain>(R.next(64))});
  for (int I = 0; I < 16; ++I)
    E1.push_back({static_cast<RamDomain>(R.next(64)),
                  static_cast<RamDomain>(R.next(64))});
  return {{"e0", E0}, {"e1", E1}};
}

std::vector<OneShotProgram> bigprogSuite(std::uint64_t Seed) {
  const int Sizes[] = {300, 450, 600, 750, 900, 1050, 1250, 1500};
  std::vector<OneShotProgram> Out;
  for (std::size_t I = 0; I < std::size(Sizes); ++I) {
    Rng R(Seed * 1000 + I);
    OneShotProgram P;
    P.Name = "bigprog-" + std::to_string(Sizes[I]);
    P.Source = bigProgramSource(Sizes[I], 1000 + I, Seed * 1000 + I);
    P.Facts = bigProgramFacts(R);
    Out.push_back(std::move(P));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Served programs
//===----------------------------------------------------------------------===//

/// micro_update's doop-like stream: mutually recursive vpt/heap (DRed)
/// plus a non-recursive consumer (counting), partitioned into modules.
ServedProgram doopLikeServed() {
  return {"doop-like",
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
          {{"vpt", 2, 1, 24000, 12}, {"query", 1, 1, 24000, 12}}};
}

/// micro_update's skewed-tc stream: edge churn under a recursive closure
/// (DRed), many small communities with one hot one.
ServedProgram skewedTcServed() {
  return {"skewed-tc",
          ".decl edge(a:number, b:number)\n"
          ".decl path(a:number, b:number)\n"
          "path(x, y) :- edge(x, y).\n"
          "path(x, z) :- path(x, y), edge(y, z).\n",
          {{"edge", 2, 7500, 10, 10000, 10}},
          {{"path", 2, 1, 7500, 10}, {"path", 2, 2, 7500, 10}}};
}

/// A 120-rule bigprog program served: every batch walks one counting
/// stratum per rule, the serving analogue of a compile-bound program.
ServedProgram bigprogServed(std::uint64_t Seed) {
  const int Rules = 120;
  return {"bigprog-120",
          bigProgramSource(Rules, 1999, Seed * 1000 + 999),
          {{"e0", 1, 64, 64, 6, 0}, {"e1", 2, 64, 64, 16, 0}},
          {{"r" + std::to_string(Rules - 1), 1, 1, 64, 64},
           {"r" + std::to_string(Rules / 2), 1, 1, 64, 64}}};
}

/// A one-shot program evaluating \p P over the initial EDB drawn from
/// \p Seed — the from-scratch alternative to serving it.
OneShotProgram servedAsOneShot(const ServedProgram &P, std::uint64_t Seed) {
  OneShotProgram O;
  O.Name = P.Name + "-scratch";
  O.Source = P.Source;
  for (const EdbSpec &E : P.Edb)
    O.Source += ".input " + E.Name + "\n";
  Rng R(Seed);
  std::vector<std::vector<DynTuple>> Edb = initialEdb(P, R);
  for (std::size_t I = 0; I < P.Edb.size(); ++I)
    O.Facts.push_back({P.Edb[I].Name, std::move(Edb[I])});
  return O;
}

} // namespace

DynTuple perfbench::drawTuple(Rng &R, const EdbSpec &Spec) {
  const RamDomain NumParts = Spec.Domain / Spec.PartSize;
  const RamDomain Part = R.next(100) < Spec.SkewPct
                             ? 0
                             : static_cast<RamDomain>(R.next(NumParts));
  DynTuple Tuple(Spec.Arity);
  for (std::size_t Col = 0; Col < Spec.Arity; ++Col)
    Tuple[Col] =
        Part * Spec.PartSize + static_cast<RamDomain>(R.next(Spec.PartSize));
  return Tuple;
}

std::vector<std::vector<DynTuple>>
perfbench::initialEdb(const ServedProgram &P, Rng &R) {
  std::vector<std::vector<DynTuple>> Out;
  for (const EdbSpec &Spec : P.Edb) {
    std::vector<DynTuple> Rel;
    std::set<DynTuple> Seen;
    while (Seen.size() < Spec.Initial) {
      DynTuple T = drawTuple(R, Spec);
      if (Seen.insert(T).second)
        Rel.push_back(std::move(T));
    }
    Out.push_back(std::move(Rel));
  }
  return Out;
}

std::vector<std::string> perfbench::workloadNames() {
  return {"fig15-exec", "bigprog-compile", "serve-mixed"};
}

std::vector<std::string> perfbench::fig15ProgramNames() {
  return {"vpc-small",    "vpc-medium",    "vpc-large",   "gzip-like",
          "bzip2-like",   "mcf-like",      "gamess-like", "gcc-like",
          "specrand-like", "antlr-like",   "bloat-like",  "chart-like",
          "luindex-like"};
}

std::optional<Workload> perfbench::makeWorkload(const std::string &Name,
                                                std::uint64_t Seed) {
  // Served streams draw from micro_update's seed 42 at DefaultSeed.
  const std::uint64_t StreamSeed = 42 + (Seed - DefaultSeed) * 7919;
  Workload W;
  W.Name = Name;
  W.StreamSeed = StreamSeed;
  if (Name == "fig15-exec") {
    W.OneShot = fig15Suite(Seed);
    W.Served = skewedTcServed();
    W.OneShotShare = 0.8;
    W.ServeBatchesPerSecond = 1000;
  } else if (Name == "bigprog-compile") {
    W.OneShot = bigprogSuite(Seed);
    W.Served = bigprogServed(Seed);
    W.OneShotShare = 0.6;
    W.ServeBatchesPerSecond = 800;
  } else if (Name == "serve-mixed") {
    W.Served = doopLikeServed();
    W.OneShot = {servedAsOneShot(W.Served, StreamSeed)};
    W.OneShotShare = 0.15;
    W.ServeBatchesPerSecond = 130;
  } else {
    return std::nullopt;
  }
  return W;
}
