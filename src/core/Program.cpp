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

#include <cstdio>
#include <fstream>
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

  translate::TranslationResult Translated = translate::translateToRam(
      *Parsed.Prog, Info, Result->Symbols, TranslateOptions);
  if (!Translated.succeeded()) {
    reportErrors(Translated.Errors, Errors);
    return nullptr;
  }

  Result->Ast = std::move(Parsed.Prog);
  Result->Ram = std::move(Translated.Prog);
  // RAM-level optimizations over main and every maintenance statement,
  // shared by interpreters and synthesizer.
  ram::foldConstants(*Result->Ram, Result->Symbols);
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
