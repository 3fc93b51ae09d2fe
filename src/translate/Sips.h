//===- translate/Sips.h - Join-order selection for rule bodies --*- C++ -*-===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sideways-information-passing strategies (SIPS) for rule bodies: before a
/// clause is lowered to a Scan/IndexScan chain, its positive atoms may be
/// permuted so that tuple accesses bind variables as early and as cheaply
/// as possible. Three strategies are offered:
///
///   - source:    the atoms stay in textual order (the historical default,
///                and still the default everywhere so existing plans and
///                goldens are unchanged unless a caller opts in);
///   - max-bound: a greedy heuristic choosing, at each step, the atom with
///                the most bound columns — fully bound atoms (pure
///                existence checks) float to the front, and among ties the
///                semi-naive delta occurrence wins since per-iteration
///                deltas are almost always the smallest input;
///   - profile:   a greedy cost model seeded with relation cardinalities
///                from a previous run's stird-profile-v1/-v2 JSON document
///                (--feedback=FILE); each step picks the atom minimizing
///                |R|^(unbound/arity), i.e. an index lookup on a huge
///                relation beats a scan of a small one.
///
/// The chosen permutation is purely a planning decision: any order yields
/// the same fixpoint (the differential random-program suite enforces this),
/// only the run time changes.
///
//===----------------------------------------------------------------------===//

#ifndef STIRD_TRANSLATE_SIPS_H
#define STIRD_TRANSLATE_SIPS_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace stird::translate {

/// Which join-ordering strategy the translator applies to rule bodies.
enum class SipsStrategy {
  Source,   ///< Keep the textual atom order.
  MaxBound, ///< Greedy most-bound-columns-first.
  Profile,  ///< Greedy cost model over profile-feedback cardinalities.
};

/// Parses a --sips value ("source" | "max-bound" | "profile").
std::optional<SipsStrategy> parseSipsStrategy(const std::string &Name);

/// The canonical spelling of a strategy (inverse of parseSipsStrategy).
const char *sipsStrategyName(SipsStrategy Strategy);

/// Relation cardinalities harvested from a stird-profile-v1/-v2 document,
/// the feedback source of SipsStrategy::Profile. Peak sizes are used (for
/// the translator's delta_/new_ aux relations the final size is always 0 —
/// they are cleared on convergence — while the peak is exactly the largest
/// per-iteration delta, the quantity a join planner wants).
class ProfileFeedback {
public:
  /// Parses a profile JSON document (stird-profile-v1 or -v2; the reader is
  /// backward compatible). Returns null and fills \p Error when the text is
  /// not valid JSON, is not a known profile document, or carries no
  /// relation sizes.
  static std::unique_ptr<ProfileFeedback> fromJson(const std::string &Text,
                                                   std::string *Error);

  /// Reads and parses a profile JSON file.
  static std::unique_ptr<ProfileFeedback> fromFile(const std::string &Path,
                                                   std::string *Error);

  /// The recorded cardinality of \p Relation, if the profiled run saw it.
  std::optional<double> relationSize(const std::string &Relation) const;

  /// Names of every relation in the document (for staleness checks).
  std::size_t relationCount() const { return Sizes.size(); }
  bool hasRelation(const std::string &Relation) const {
    return Sizes.count(Relation) != 0;
  }

private:
  ProfileFeedback() = default;
  std::unordered_map<std::string, double> Sizes;
};

/// One column of a body atom, as the planner sees it.
struct SipsColumn {
  /// Every variable occurring in the argument (empty for `_`, constants).
  std::vector<std::string> Vars;
  /// True when the argument is variable-free (a constant expression): the
  /// column is bound no matter where the atom is placed.
  bool Ground = false;
  /// The variable this column binds when scanned, i.e. the argument is a
  /// lone variable ("" otherwise — compound arguments only check, they
  /// never bind).
  std::string Binds;
};

/// One positive body atom, as the planner sees it.
struct SipsAtom {
  /// Position among the clause's positive atoms in source order.
  std::size_t SourceIndex = 0;
  /// Whether this occurrence reads a semi-naive delta relation in the rule
  /// version being planned.
  bool IsDelta = false;
  /// Estimated cardinality of the relation the atom reads; < 0 when no
  /// feedback is available for it.
  double EstimatedSize = -1.0;
  std::vector<SipsColumn> Columns;
};

/// A variable the body can derive by equality once others are bound: the
/// pair (bound variable, variables its defining expression needs). An
/// equality `x = 3` contributes ("x", {}); `y = x + 1` contributes
/// ("y", {"x"}).
using SipsEquality = std::pair<std::string, std::vector<std::string>>;

/// Orders \p Atoms under \p Strategy. Returns the permutation as a list of
/// indices into \p Atoms: element i names the atom emitted at depth i.
/// Deterministic — every tie falls back to the source index. For
/// SipsStrategy::Source this is always the identity.
std::vector<std::size_t>
orderAtoms(SipsStrategy Strategy, const std::vector<SipsAtom> &Atoms,
           const std::vector<SipsEquality> &Equalities = {});

} // namespace stird::translate

#endif // STIRD_TRANSLATE_SIPS_H
