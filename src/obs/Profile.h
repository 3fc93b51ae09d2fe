//===- obs/Profile.h - Profile document builder and report ------*- C++ -*-===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns an engine's observability state (hierarchical rule profiles +
/// per-relation counters) into the versioned JSON profile document
/// (see docs/profile-schema.md) and the human-readable text report of
/// `stird --profile`.
///
//===----------------------------------------------------------------------===//

#ifndef STIRD_OBS_PROFILE_H
#define STIRD_OBS_PROFILE_H

#include "obs/Json.h"

#include <cstdint>
#include <string>

namespace stird::interp {
class Engine;
} // namespace stird::interp

namespace stird::obs {

/// Run-level facts the engine itself doesn't know.
struct ProfileContext {
  /// Source program (file name or synthetic identifier).
  std::string Program;
  /// Executor name as reported on the CLI ("static-lambda", ...).
  std::string Backend;
  std::size_t Threads = 1;
  /// End-to-end run() wall time.
  double TotalSeconds = 0;
};

/// Current profile document schema identifier. v2 adds the access-pattern
/// counters (point_lookups, range_scans) and the col0_min/col0_max
/// key-density summary.
inline constexpr const char *ProfileSchemaVersion = "stird-profile-v2";

/// Builds the full profile document: run header, stratum → rule →
/// iteration hierarchy, and the per-relation counter table. Call after
/// Engine::run() returned.
json::Value buildProfile(const interp::Engine &E, const ProfileContext &Ctx);

/// Renders the human text report: rules sorted by descending time with a
/// totals row, then the relation counter table. \p TopN > 0 truncates the
/// rule table to the N hottest rules.
std::string renderTextReport(const interp::Engine &E, std::size_t TopN = 0);

} // namespace stird::obs

#endif // STIRD_OBS_PROFILE_H
