//===- obs/Profile.cpp - Profile document builder and report -------------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//

#include "obs/Profile.h"

#include "interp/Engine.h"
#include "obs/Stats.h"

#include <algorithm>
#include <cstdio>
#include <map>

namespace stird::obs {

using interp::RuleProfile;

using interp::relKindName;

static json::Value ruleToJson(const RuleProfile &Rule) {
  json::Object O;
  O.emplace_back("label", Rule.Label);
  O.emplace_back("relation", Rule.Meta.Relation);
  O.emplace_back("stratum", Rule.Meta.Stratum);
  O.emplace_back("version", Rule.Meta.Version);
  O.emplace_back("par_group", Rule.Meta.ParGroup);
  O.emplace_back("recursive", Rule.Meta.Recursive);
  O.emplace_back("sips", Rule.Meta.Sips);
  json::Array AtomOrder;
  for (int Idx : Rule.Meta.AtomOrder)
    AtomOrder.emplace_back(Idx);
  O.emplace_back("atom_order", std::move(AtomOrder));
  O.emplace_back("seconds", Rule.Seconds);
  O.emplace_back("invocations", Rule.Invocations);
  O.emplace_back("dispatches", Rule.Dispatches);
  O.emplace_back("delta_tuples", Rule.DeltaTuples);
  json::Array Iterations;
  for (const interp::IterationSample &Sample : Rule.Iterations) {
    json::Object It;
    It.emplace_back("seconds", Sample.Seconds);
    It.emplace_back("dispatches", Sample.Dispatches);
    It.emplace_back("delta_tuples", Sample.DeltaTuples);
    Iterations.emplace_back(std::move(It));
  }
  O.emplace_back("iterations", std::move(Iterations));
  return json::Value(std::move(O));
}

json::Value buildProfile(const interp::Engine &E, const ProfileContext &Ctx) {
  json::Object Doc;
  Doc.emplace_back("schema", ProfileSchemaVersion);
  Doc.emplace_back("program", Ctx.Program);
  Doc.emplace_back("backend", Ctx.Backend);
  Doc.emplace_back("threads", static_cast<std::uint64_t>(Ctx.Threads));
  Doc.emplace_back("total_seconds", Ctx.TotalSeconds);
  Doc.emplace_back("dispatches", E.getNumDispatches());

  // Stratum → rule version → iteration. Rules registered without
  // translation metadata land in stratum -1. std::map keeps strata in
  // ascending id order.
  std::map<int, std::vector<RuleProfile>> ByStratum;
  for (RuleProfile &Rule : E.getProfiler().rules())
    ByStratum[Rule.Meta.Stratum].push_back(std::move(Rule));
  json::Array Strata;
  for (auto &[Id, Rules] : ByStratum) {
    json::Object Stratum;
    Stratum.emplace_back("id", Id);
    double Seconds = 0;
    bool Recursive = false;
    for (const RuleProfile &Rule : Rules) {
      Seconds += Rule.Seconds;
      Recursive = Recursive || Rule.Meta.Recursive;
    }
    Stratum.emplace_back("seconds", Seconds);
    Stratum.emplace_back("recursive", Recursive);
    json::Array RuleArr;
    for (const RuleProfile &Rule : Rules)
      RuleArr.push_back(ruleToJson(Rule));
    Stratum.emplace_back("rules", std::move(RuleArr));
    Strata.emplace_back(std::move(Stratum));
  }
  Doc.emplace_back("strata", std::move(Strata));

  json::Array Relations;
  const StatsBlock &Stats = E.getStats();
  const auto &Rels = E.getStatsRelations();
  for (std::size_t I = 0; I < Rels.size() && I < Stats.size(); ++I) {
    const interp::RelationWrapper *Rel = Rels[I];
    const RelationStats &RS = Stats[I];
    json::Object O;
    O.emplace_back("name", Rel->getName());
    O.emplace_back("arity", static_cast<std::uint64_t>(Rel->getArity()));
    O.emplace_back("kind", relKindName(Rel->getKind()));
    O.emplace_back("indexes",
                   static_cast<std::uint64_t>(Rel->getNumIndexes()));
    O.emplace_back("final_size", static_cast<std::uint64_t>(Rel->size()));
    O.emplace_back("peak_size", RS.PeakSize);
    O.emplace_back("inserts", RS.Inserts);
    O.emplace_back("inserts_new", RS.InsertsNew);
    O.emplace_back("contains", RS.Contains);
    O.emplace_back("scans", RS.Scans);
    O.emplace_back("scan_tuples", RS.ScanTuples);
    O.emplace_back("index_scans", RS.IndexScans);
    O.emplace_back("index_scan_hits", RS.IndexScanHits);
    O.emplace_back("index_scan_tuples", RS.IndexScanTuples);
    O.emplace_back("reorders", RS.Reorders);
    O.emplace_back("point_lookups", RS.PointLookups);
    O.emplace_back("range_scans", RS.RangeScans);
    // Key-density summary: the observed range of the first source column.
    // Computed cold, once, at profile-build time.
    std::int64_t Col0Min = 0, Col0Max = -1;
    if (Rel->size() > 0 && Rel->getArity() > 0) {
      bool First = true;
      Rel->forEach([&](const RamDomain *Tuple) {
        if (First) {
          Col0Min = Col0Max = Tuple[0];
          First = false;
          return;
        }
        Col0Min = std::min<std::int64_t>(Col0Min, Tuple[0]);
        Col0Max = std::max<std::int64_t>(Col0Max, Tuple[0]);
      });
    }
    O.emplace_back("col0_min", Col0Min);
    O.emplace_back("col0_max", Col0Max);
    Relations.emplace_back(std::move(O));
  }
  Doc.emplace_back("relations", std::move(Relations));
  return json::Value(std::move(Doc));
}

std::string renderTextReport(const interp::Engine &E, std::size_t TopN) {
  std::vector<RuleProfile> Rules = E.getProfiler().rules();
  std::sort(Rules.begin(), Rules.end(),
            [](const RuleProfile &A, const RuleProfile &B) {
              if (A.Seconds != B.Seconds)
                return A.Seconds > B.Seconds;
              return A.Label < B.Label;
            });

  double TotalSeconds = 0;
  std::uint64_t TotalInvocations = 0, TotalDispatches = 0, TotalDelta = 0;
  for (const RuleProfile &Rule : Rules) {
    TotalSeconds += Rule.Seconds;
    TotalInvocations += Rule.Invocations;
    TotalDispatches += Rule.Dispatches;
    TotalDelta += Rule.DeltaTuples;
  }

  std::string Out;
  char Line[512];
  std::snprintf(Line, sizeof(Line), "%12s %6s %8s %14s %12s  %s\n",
                "seconds", "%", "invocs", "dispatches", "tuples", "rule");
  Out += Line;
  const std::size_t Limit =
      TopN > 0 && TopN < Rules.size() ? TopN : Rules.size();
  for (std::size_t I = 0; I < Limit; ++I) {
    const RuleProfile &Rule = Rules[I];
    const double Pct =
        TotalSeconds > 0 ? 100.0 * Rule.Seconds / TotalSeconds : 0;
    std::snprintf(Line, sizeof(Line),
                  "%12.6f %6.1f %8llu %14llu %12llu  %s\n", Rule.Seconds,
                  Pct, static_cast<unsigned long long>(Rule.Invocations),
                  static_cast<unsigned long long>(Rule.Dispatches),
                  static_cast<unsigned long long>(Rule.DeltaTuples),
                  Rule.Label.c_str());
    Out += Line;
  }
  if (Limit < Rules.size()) {
    std::snprintf(Line, sizeof(Line), "%12s  (%zu more rules)\n", "...",
                  Rules.size() - Limit);
    Out += Line;
  }
  std::snprintf(Line, sizeof(Line), "%12.6f %6.1f %8llu %14llu %12llu  %s\n",
                TotalSeconds, TotalSeconds > 0 ? 100.0 : 0.0,
                static_cast<unsigned long long>(TotalInvocations),
                static_cast<unsigned long long>(TotalDispatches),
                static_cast<unsigned long long>(TotalDelta), "total");
  Out += Line;

  Out += "\n";
  std::snprintf(Line, sizeof(Line),
                "%10s %10s %10s %10s %12s %10s %12s %10s  %s\n", "size",
                "peak", "inserts", "new", "contains", "scans",
                "idx-scans", "reorders", "relation");
  Out += Line;
  const StatsBlock &Stats = E.getStats();
  const auto &Rels = E.getStatsRelations();
  for (std::size_t I = 0; I < Rels.size() && I < Stats.size(); ++I) {
    const RelationStats &RS = Stats[I];
    std::snprintf(Line, sizeof(Line),
                  "%10zu %10llu %10llu %10llu %12llu %10llu %12llu "
                  "%10llu  %s\n",
                  Rels[I]->size(),
                  static_cast<unsigned long long>(RS.PeakSize),
                  static_cast<unsigned long long>(RS.Inserts),
                  static_cast<unsigned long long>(RS.InsertsNew),
                  static_cast<unsigned long long>(RS.Contains),
                  static_cast<unsigned long long>(RS.Scans),
                  static_cast<unsigned long long>(RS.IndexScans),
                  static_cast<unsigned long long>(RS.Reorders),
                  Rels[I]->getName().c_str());
    Out += Line;
  }
  return Out;
}

} // namespace stird::obs
