//===- core/Program.cpp - Public engine facade -------------------------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//

#include "core/Program.h"

#include "ast/Parser.h"
#include "ast/SemanticAnalysis.h"
#include "interp/Scheduler.h"
#include "ram/RamPrinter.h"
#include "ram/Transforms.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>

using namespace stird;
using namespace stird::core;

static void reportErrors(const std::vector<std::string> &Diagnostics,
                         std::vector<std::string> *Errors) {
  if (Errors) {
    Errors->insert(Errors->end(), Diagnostics.begin(), Diagnostics.end());
    return;
  }
  for (const auto &Message : Diagnostics)
    std::fprintf(stderr, "error: %s\n", Message.c_str());
}

std::unique_ptr<Program>
Program::fromSource(const std::string &Source,
                    std::vector<std::string> *Errors,
                    const CompileOptions &Options) {
  ast::ParseResult Parsed = ast::parseProgram(Source);
  if (!Parsed.succeeded()) {
    reportErrors(Parsed.Errors, Errors);
    return nullptr;
  }

  ast::SemanticInfo Info = ast::analyze(*Parsed.Prog);
  if (!Info.succeeded()) {
    reportErrors(Info.Errors, Errors);
    return nullptr;
  }

  auto Result = std::unique_ptr<Program>(new Program());
  translate::TranslationOptions TranslateOptions;
  TranslateOptions.EmitMaintenance = Options.EmitMaintenance;
  TranslateOptions.Sips = Options.Sips;
  TranslateOptions.Feedback = Options.Feedback;

  // The profile strategy needs usable feedback; anything less degrades to
  // max-bound with a warning rather than failing the compile (a stale
  // profile must never make a program unrunnable).
  std::unique_ptr<translate::ProfileFeedback> OwnedFeedback;
  if (TranslateOptions.Sips == translate::SipsStrategy::Profile) {
    if (!TranslateOptions.Feedback && !Options.FeedbackPath.empty()) {
      std::string FeedbackError;
      OwnedFeedback = translate::ProfileFeedback::fromFile(
          Options.FeedbackPath, &FeedbackError);
      if (OwnedFeedback)
        TranslateOptions.Feedback = OwnedFeedback.get();
      else
        std::fprintf(stderr,
                     "warning: --feedback: %s; falling back to "
                     "--sips=max-bound\n",
                     FeedbackError.c_str());
    }
    if (TranslateOptions.Feedback) {
      bool Covers = false;
      for (const auto &Decl : Parsed.Prog->Relations)
        if (TranslateOptions.Feedback->hasRelation(Decl->getName())) {
          Covers = true;
          break;
        }
      if (!Covers) {
        std::fprintf(stderr,
                     "warning: --feedback: profile covers none of this "
                     "program's relations (stale?); falling back to "
                     "--sips=max-bound\n");
        TranslateOptions.Feedback = nullptr;
      }
    } else if (Options.FeedbackPath.empty()) {
      std::fprintf(stderr,
                   "warning: --sips=profile without --feedback; falling "
                   "back to --sips=max-bound\n");
    }
    if (!TranslateOptions.Feedback)
      TranslateOptions.Sips = translate::SipsStrategy::MaxBound;
  }

  // Per-relation substrate selection, applied to the parsed AST before
  // translation so the delta_/new_ aux relations inherit the choice. Two
  // sources, explicit forcing winning over the feedback heuristic; every
  // rejected request degrades with a warning, never a compile error.
  auto parseSubstrate =
      [](const std::string &Kind) -> std::optional<ast::StructureKind> {
    if (Kind == "btree")
      return ast::StructureKind::Btree;
    if (Kind == "brie")
      return ast::StructureKind::Brie;
    if (Kind == "art")
      return ast::StructureKind::Art;
    return std::nullopt;
  };
  auto substrateApplicable = [](const ast::RelationDecl &Decl,
                                ast::StructureKind Kind) -> const char * {
    if (Decl.getStructure() == ast::StructureKind::Eqrel)
      return "equivalence relations keep their union-find substrate";
    if (Kind != ast::StructureKind::Btree && Decl.getArity() > 8)
      return "arity exceeds the brie/art portfolio limit of 8";
    return nullptr;
  };
  for (const auto &[Name, KindName] : Options.SubstrateOverrides) {
    ast::RelationDecl *Decl = Parsed.Prog->findRelation(Name);
    if (!Decl) {
      std::fprintf(stderr,
                   "warning: --substrate: unknown relation '%s'; ignored\n",
                   Name.c_str());
      continue;
    }
    std::optional<ast::StructureKind> Kind = parseSubstrate(KindName);
    if (!Kind) {
      std::fprintf(stderr,
                   "warning: --substrate: unknown substrate '%s' for "
                   "relation '%s'; ignored\n",
                   KindName.c_str(), Name.c_str());
      continue;
    }
    if (const char *Reason = substrateApplicable(*Decl, *Kind)) {
      std::fprintf(stderr,
                   "warning: --substrate: cannot force '%s' to %s: %s\n",
                   Name.c_str(), KindName.c_str(), Reason);
      continue;
    }
    if (Decl->getStructure() != *Kind) {
      Decl->setStructure(*Kind);
      Result->SubstrateDecisions[Name] =
          KindName + " (forced by --substrate)";
    }
  }
  if (Options.SubstrateFromFeedback && TranslateOptions.Feedback &&
      TranslateOptions.Feedback->hasAccessPatterns()) {
    for (const auto &Decl : Parsed.Prog->Relations) {
      // Explicit forcing wins; only declared-btree relations are eligible
      // (brie/eqrel declarations are deliberate substrate choices).
      if (Result->SubstrateDecisions.count(Decl->getName()))
        continue;
      if (Decl->getStructure() != ast::StructureKind::Btree ||
          Decl->getArity() > 8)
        continue;
      auto Access =
          TranslateOptions.Feedback->relationAccess(Decl->getName());
      if (!Access)
        continue;
      // Point-lookup-heavy: fully-bound probes dominate bounded range
      // scans by 4x. ART serves those in O(key length) with direct-indexed
      // descent; range-heavy traffic stays on the B-tree.
      if (Access->PointLookups < 64 ||
          Access->PointLookups < 4 * std::max(1.0, Access->RangeScans))
        continue;
      // Dense keys: the observed col0 span is mostly populated, so path
      // compression keeps the radix tree shallow.
      auto Size = TranslateOptions.Feedback->relationSize(Decl->getName());
      if (!Size || Access->Col0Max < Access->Col0Min)
        continue;
      const double Span = static_cast<double>(Access->Col0Max) -
                          static_cast<double>(Access->Col0Min) + 1.0;
      if (*Size < 0.25 * Span)
        continue;
      Decl->setStructure(ast::StructureKind::Art);
      Result->SubstrateDecisions[Decl->getName()] =
          "art (feedback: point-lookup-heavy, dense keys)";
    }
  }

  translate::TranslationResult Translated = translate::translateToRam(
      *Parsed.Prog, Info, Result->Symbols, TranslateOptions);
  if (!Translated.succeeded()) {
    reportErrors(Translated.Errors, Errors);
    return nullptr;
  }

  Result->Ast = std::move(Parsed.Prog);
  Result->Ram = std::move(Translated.Prog);
  // RAM-level optimizations, shared by interpreters and synthesizer.
  ram::foldConstants(*Result->Ram, Result->Symbols);
  // Sinking runs only under a reordering strategy: it is what converts a
  // reorder's newly-adjacent equality filters into indexed lookups, and
  // gating it keeps source-order plans bit-identical to older builds.
  if (TranslateOptions.Sips != translate::SipsStrategy::Source)
    ram::sinkFiltersIntoScans(*Result->Ram);
  ram::mergeAdjacentFilters(*Result->Ram);
  Result->Indexes = translate::selectIndexes(*Result->Ram);
  return Result;
}

std::unique_ptr<Program> Program::fromFile(const std::string &Path,
                                           std::vector<std::string> *Errors,
                                           const CompileOptions &Options) {
  std::ifstream In(Path);
  if (!In) {
    reportErrors({"cannot open program file '" + Path + "'"}, Errors);
    return nullptr;
  }
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return fromSource(Buffer.str(), Errors, Options);
}

std::string Program::dumpRam() const { return ram::print(*Ram); }

std::shared_ptr<interp::Scheduler>
Program::schedulerFor(std::size_t NumThreads) {
  std::lock_guard<std::mutex> Lock(SchedM);
  std::shared_ptr<interp::Scheduler> &Sched = Schedulers[NumThreads];
  if (!Sched)
    Sched = std::make_shared<interp::Scheduler>(NumThreads);
  return Sched;
}

std::unique_ptr<interp::Engine>
Program::makeEngine(interp::EngineOptions Options) {
  if (Options.NumThreads == 0)
    Options.NumThreads = NumThreads;
  if (Options.NumThreads > 1 && !Options.Sched)
    Options.Sched = schedulerFor(Options.NumThreads);
  return std::make_unique<interp::Engine>(*Ram, Indexes, Symbols, Options);
}
