//===- tools/ToolOptions.h - Shared tool flag registrations -----*- C++ -*-===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The engine-facing flags shared by stird and stird-serve (-F/-D/-j/
/// --backend and the paper's ablation toggles), registered onto a
/// util::Args parser so every tool spells and validates them identically.
///
//===----------------------------------------------------------------------===//

#ifndef STIRD_TOOLS_TOOLOPTIONS_H
#define STIRD_TOOLS_TOOLOPTIONS_H

#include "interp/Engine.h"
#include "util/Args.h"

#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

namespace stird::tools {

/// `-j 0` / `-j auto`: one thread per hardware thread. The standard allows
/// hardware_concurrency() to report 0 (unknown); fall back to 1.
inline std::size_t hardwareThreads() {
  const unsigned N = std::thread::hardware_concurrency();
  return N == 0 ? 1 : static_cast<std::size_t>(N);
}

inline const char *backendName(interp::Backend B) {
  switch (B) {
  case interp::Backend::StaticLambda:
    return "sti";
  case interp::Backend::StaticPlain:
    return "sti-plain";
  case interp::Backend::DynamicAdapter:
    return "dynamic";
  case interp::Backend::Legacy:
    return "legacy";
  }
  return "unknown";
}

/// A sink that stores the raw value into \p Target.
inline std::function<std::string(const std::string &)>
pathSink(std::string &Target) {
  return [&Target](const std::string &Value) {
    Target = Value;
    return std::string();
  };
}

/// A sink accepting a non-negative thread count or "auto" (0 and "auto"
/// mean every hardware thread, like make -j).
inline std::function<std::string(const std::string &)>
threadsSink(std::size_t &Target) {
  return [&Target](const std::string &Value) -> std::string {
    if (Value == "auto") {
      Target = hardwareThreads();
      return "";
    }
    char *End = nullptr;
    const long N = std::strtol(Value.c_str(), &End, 10);
    if (End == Value.c_str() || *End != '\0' || N < 0)
      return "invalid thread count '" + Value +
             "' (expected a non-negative integer or 'auto')";
    Target = N == 0 ? hardwareThreads() : static_cast<std::size_t>(N);
    return "";
  };
}

/// A sink accepting a positive tuple count for --morsel-size.
inline std::function<std::string(const std::string &)>
morselSink(std::size_t &Target) {
  return [&Target](const std::string &Value) -> std::string {
    char *End = nullptr;
    const long N = std::strtol(Value.c_str(), &End, 10);
    if (End == Value.c_str() || *End != '\0' || N < 1)
      return "invalid morsel size '" + Value +
             "' (expected a positive integer)";
    Target = static_cast<std::size_t>(N);
    return "";
  };
}

/// A sink resolving a backend name.
inline std::function<std::string(const std::string &)>
backendSink(interp::Backend &Target) {
  return [&Target](const std::string &Name) -> std::string {
    if (Name == "sti")
      Target = interp::Backend::StaticLambda;
    else if (Name == "sti-plain")
      Target = interp::Backend::StaticPlain;
    else if (Name == "dynamic")
      Target = interp::Backend::DynamicAdapter;
    else if (Name == "legacy")
      Target = interp::Backend::Legacy;
    else
      return "unknown backend '" + Name + "'";
    return "";
  };
}

/// Registers the engine-configuration flags shared by the evaluating tools.
inline void addEngineOptions(util::Args &Args, interp::EngineOptions &Options,
                             bool WithIoDirs = true) {
  if (WithIoDirs) {
    Args.option({"-F", "--facts"}, "dir", "fact-file directory (default .)",
                pathSink(Options.FactDir));
    Args.option({"-D", "--output"}, "dir", "output directory (default .)",
                pathSink(Options.OutputDir));
  }
  Args.option({"-j", "--jobs"}, "n",
              "evaluation threads (0 or 'auto': every hardware thread)",
              threadsSink(Options.NumThreads));
  Args.option({"--morsel-size"}, "n",
              "tuples per work-stealing morsel (default 256)",
              morselSink(Options.MorselSize));
  Args.option({"--backend"}, "name", "sti | sti-plain | dynamic | legacy",
              backendSink(Options.TheBackend));
  Args.flag({"--no-super"}, "disable super-instructions (Section 4.4)",
            [&Options] { Options.SuperInstructions = false; });
  Args.flag({"--no-reorder"}, "disable static tuple reordering (Section 4.2)",
            [&Options] { Options.StaticReordering = false; });
  Args.flag({"--no-fuse-conditions"},
            "disable fused-condition super-instructions (Section 5.2)",
            [&Options] { Options.FuseConditions = false; });
}

} // namespace stird::tools

#endif // STIRD_TOOLS_TOOLOPTIONS_H
