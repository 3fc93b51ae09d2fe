//===- tools/stird.cpp - The stird command-line driver -------------------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Soufflé-style command-line driver:
///
///   stird program.dl [options]
///
///   -F, --facts <dir>     fact-file directory (default .)
///   -D, --output <dir>    output directory (default .)
///   -j, --jobs <n>        evaluation threads (default 1; 0 or "auto"
///                         uses every hardware thread)
///   --morsel-size <n>     tuples per work-stealing morsel (default 256;
///                         results are identical at any setting)
///   --backend <name>      sti | sti-plain | dynamic | legacy
///   --no-super            disable super-instructions (Section 4.4)
///   --no-reorder          disable static tuple reordering (Section 4.2)
///   --no-fuse-conditions  disable fused-condition super-instructions (5.2)
///   --dump-ram            print the RAM program and exit
///   --profile             print the per-rule profile after the run
///   --profile=<file>      write the JSON profile document instead
///   --trace=<file>        write a Chrome trace-event timeline of the run
///   --synthesize <file>   write the synthesized C++ instead of running
///
/// Rule bodies run in source order, as the translator emits them.
///
//===----------------------------------------------------------------------===//

#include "core/Program.h"
#include "obs/Profile.h"
#include "obs/Trace.h"
#include "synth/CppSynthesizer.h"
#include "ToolOptions.h"
#include "util/Args.h"
#include "util/Timer.h"

#include <cstdio>
#include <fstream>
#include <string>

using namespace stird;

int main(int argc, char **argv) {
  std::string ProgramPath;
  interp::EngineOptions Options;
  bool DumpRam = false;
  bool DumpTree = false;
  bool Profile = false;
  std::string ProfilePath;
  std::string TracePath;
  std::string SynthesizePath;

  util::Args Args("stird", "[options]");
  Args.positional("program.dl", tools::pathSink(ProgramPath));
  tools::addEngineOptions(Args, Options);
  Args.flag({"--dump-ram"}, "print the RAM program and exit",
            [&] { DumpRam = true; });
  Args.flag({"--dump-tree"}, "print the interpreter tree and exit",
            [&] { DumpTree = true; });
  Args.optionalValue({"--profile"}, "file.json",
                     "print the per-rule profile (or write the JSON document)",
                     [&](const std::string &Path) {
                       Profile = true;
                       ProfilePath = Path;
                       return std::string();
                     });
  Args.option({"--trace"}, "file.json",
              "write a Chrome trace-event timeline of the run",
              [&](const std::string &Path) {
                TracePath = Path;
                Options.EnableTrace = true;
                return std::string();
              });
  Args.option({"--synthesize"}, "file.cpp",
              "write the synthesized C++ instead of running",
              tools::pathSink(SynthesizePath));
  Args.parseOrExit(argc, argv);

  auto Prog = core::Program::fromFile(ProgramPath);
  if (!Prog)
    return 1;

  if (DumpRam) {
    std::printf("%s", Prog->dumpRam().c_str());
    return 0;
  }
  if (DumpTree) {
    auto Engine = Prog->makeEngine(Options);
    std::printf("%s", Engine->dumpTree().c_str());
    return 0;
  }
  if (!SynthesizePath.empty()) {
    std::ofstream Out(SynthesizePath);
    if (!Out) {
      std::fprintf(stderr, "cannot write '%s'\n", SynthesizePath.c_str());
      return 1;
    }
    Out << synth::synthesize(Prog->getRam(), Prog->getIndexes(),
                             Prog->getSymbolTable());
    std::printf("synthesized C++ written to %s\n", SynthesizePath.c_str());
    return 0;
  }

  auto Engine = Prog->makeEngine(Options);
  Timer T;
  Engine->run();
  const double TotalSeconds = T.seconds();
  for (const FactError &Err : Engine->getIoErrors())
    std::fprintf(stderr, "warning: %s (row skipped)\n", Err.render().c_str());
  std::fprintf(stderr, "runtime: %.6f s, %llu dispatches\n", TotalSeconds,
               static_cast<unsigned long long>(Engine->getNumDispatches()));

  if (Profile && ProfilePath.empty()) {
    std::fprintf(stderr, "%s",
                 obs::renderTextReport(*Engine).c_str());
  } else if (Profile) {
    obs::ProfileContext Ctx;
    Ctx.Program = ProgramPath;
    Ctx.Backend = tools::backendName(Options.TheBackend);
    Ctx.Threads = Options.NumThreads > 0 ? Options.NumThreads : 1;
    Ctx.TotalSeconds = TotalSeconds;
    std::ofstream Out(ProfilePath);
    if (!Out) {
      std::fprintf(stderr, "cannot write '%s'\n", ProfilePath.c_str());
      return 1;
    }
    Out << obs::buildProfile(*Engine, Ctx).dump(2);
    std::fprintf(stderr, "profile written to %s\n", ProfilePath.c_str());
  }
  if (!TracePath.empty()) {
    std::ofstream Out(TracePath);
    if (!Out) {
      std::fprintf(stderr, "cannot write '%s'\n", TracePath.c_str());
      return 1;
    }
    Out << Engine->getTrace()->toJson();
    std::fprintf(stderr, "trace written to %s\n", TracePath.c_str());
  }
  return 0;
}
