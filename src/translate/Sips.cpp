//===- translate/Sips.cpp - Join-order selection for rule bodies --------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//

#include "translate/Sips.h"

#include "obs/Json.h"
#include "obs/Profile.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <unordered_set>

using namespace stird;
using namespace stird::translate;

std::optional<SipsStrategy>
stird::translate::parseSipsStrategy(const std::string &Name) {
  if (Name == "source")
    return SipsStrategy::Source;
  if (Name == "max-bound")
    return SipsStrategy::MaxBound;
  if (Name == "profile")
    return SipsStrategy::Profile;
  return std::nullopt;
}

const char *stird::translate::sipsStrategyName(SipsStrategy Strategy) {
  switch (Strategy) {
  case SipsStrategy::Source:
    return "source";
  case SipsStrategy::MaxBound:
    return "max-bound";
  case SipsStrategy::Profile:
    return "profile";
  }
  return "unknown";
}

//===----------------------------------------------------------------------===//
// ProfileFeedback
//===----------------------------------------------------------------------===//

std::unique_ptr<ProfileFeedback>
ProfileFeedback::fromJson(const std::string &Text, std::string *Error) {
  std::string ParseError;
  std::optional<obs::json::Value> Doc = obs::json::parse(Text, &ParseError);
  if (!Doc) {
    if (Error)
      *Error = "invalid JSON: " + ParseError;
    return nullptr;
  }
  // Backward-compatible reader: both versions carry the relation sizes the
  // join planner reads.
  const obs::json::Value *Schema = Doc->find("schema");
  const bool SchemaOk =
      Schema && Schema->isString() &&
      (Schema->asString() == "stird-profile-v1" ||
       Schema->asString() == obs::ProfileSchemaVersion);
  if (!SchemaOk) {
    if (Error)
      *Error = std::string("not a stird-profile-v1 or ") +
               obs::ProfileSchemaVersion +
               " document (missing or unexpected \"schema\")";
    return nullptr;
  }
  const obs::json::Value *Relations = Doc->find("relations");
  if (!Relations || !Relations->isArray()) {
    if (Error)
      *Error = "profile document has no \"relations\" array";
    return nullptr;
  }
  auto Feedback = std::unique_ptr<ProfileFeedback>(new ProfileFeedback());
  for (const obs::json::Value &Rel : Relations->asArray()) {
    const obs::json::Value *Name = Rel.find("name");
    const obs::json::Value *Peak = Rel.find("peak_size");
    const obs::json::Value *Final = Rel.find("final_size");
    if (!Name || !Name->isString())
      continue;
    double Size = 0;
    if (Peak && Peak->isNumber())
      Size = Peak->asNumber();
    if (Final && Final->isNumber())
      Size = std::max(Size, Final->asNumber());
    Feedback->Sizes[Name->asString()] = Size;
  }
  if (Feedback->Sizes.empty()) {
    if (Error)
      *Error = "profile document records no relation sizes";
    return nullptr;
  }
  return Feedback;
}

std::unique_ptr<ProfileFeedback>
ProfileFeedback::fromFile(const std::string &Path, std::string *Error) {
  std::ifstream In(Path);
  if (!In) {
    if (Error)
      *Error = "cannot open feedback file '" + Path + "'";
    return nullptr;
  }
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return fromJson(Buffer.str(), Error);
}

std::optional<double>
ProfileFeedback::relationSize(const std::string &Relation) const {
  auto It = Sizes.find(Relation);
  if (It == Sizes.end())
    return std::nullopt;
  return It->second;
}

//===----------------------------------------------------------------------===//
// orderAtoms
//===----------------------------------------------------------------------===//

namespace {

/// The set of variables bound so far plus the equality-derivation rules;
/// closes over equalities so `x = 3, y = x + 1` marks both x and y bound.
class BoundSet {
public:
  BoundSet(const std::vector<SipsEquality> &Equalities)
      : Equalities(Equalities) {
    close();
  }

  bool contains(const std::string &Var) const { return Bound.count(Var); }

  void bindAtom(const SipsAtom &Atom) {
    for (const SipsColumn &Col : Atom.Columns)
      if (!Col.Binds.empty())
        Bound.insert(Col.Binds);
    close();
  }

  /// A column is bound when its value is computable before the scan: it is
  /// a ground expression, or every variable it mentions is already bound.
  /// Wildcards (no vars, not ground) are never bound.
  bool columnBound(const SipsColumn &Col) const {
    if (Col.Ground)
      return true;
    if (Col.Vars.empty())
      return false;
    return std::all_of(Col.Vars.begin(), Col.Vars.end(),
                       [&](const std::string &V) { return contains(V); });
  }

  std::size_t boundColumns(const SipsAtom &Atom) const {
    std::size_t N = 0;
    for (const SipsColumn &Col : Atom.Columns)
      N += columnBound(Col);
    return N;
  }

private:
  void close() {
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (const SipsEquality &Eq : Equalities) {
        if (Bound.count(Eq.first))
          continue;
        if (std::all_of(Eq.second.begin(), Eq.second.end(),
                        [&](const std::string &V) { return Bound.count(V); })) {
          Bound.insert(Eq.first);
          Changed = true;
        }
      }
    }
  }

  const std::vector<SipsEquality> &Equalities;
  std::unordered_set<std::string> Bound;
};

/// Cardinality assumed for relations the feedback document does not cover.
constexpr double UnknownSize = 1000.0;

/// The profile strategy's cost of scanning \p Atom now: |R| raised to the
/// fraction of unbound columns. Fully bound (existence check) costs less
/// than any scan; a full scan costs the whole cardinality.
double profileCost(const SipsAtom &Atom, const BoundSet &Bound) {
  const std::size_t Arity = Atom.Columns.size();
  const std::size_t BoundCols = Bound.boundColumns(Atom);
  if (Arity == 0 || BoundCols == Arity)
    return 0.5;
  const double Size =
      std::max(Atom.EstimatedSize < 0 ? UnknownSize : Atom.EstimatedSize, 1.0);
  return std::pow(Size, static_cast<double>(Arity - BoundCols) /
                            static_cast<double>(Arity));
}

} // namespace

std::vector<std::size_t>
stird::translate::orderAtoms(SipsStrategy Strategy,
                             const std::vector<SipsAtom> &Atoms,
                             const std::vector<SipsEquality> &Equalities) {
  std::vector<std::size_t> Order;
  Order.reserve(Atoms.size());
  if (Strategy == SipsStrategy::Source || Atoms.size() < 2) {
    for (std::size_t I = 0; I < Atoms.size(); ++I)
      Order.push_back(I);
    return Order;
  }

  BoundSet Bound(Equalities);
  std::vector<bool> Placed(Atoms.size(), false);
  for (std::size_t Step = 0; Step < Atoms.size(); ++Step) {
    std::size_t Best = Atoms.size();
    for (std::size_t I = 0; I < Atoms.size(); ++I) {
      if (Placed[I])
        continue;
      if (Best == Atoms.size()) {
        Best = I;
        continue;
      }
      const SipsAtom &A = Atoms[I], &B = Atoms[Best];
      bool Better = false;
      if (Strategy == SipsStrategy::MaxBound) {
        // Most bound columns first; fully bound beats everything (the scan
        // degenerates to an existence check). Ties prefer the delta
        // occurrence (smallest input per iteration), then source order.
        const std::size_t BoundA = Bound.boundColumns(A);
        const std::size_t BoundB = Bound.boundColumns(B);
        const bool FullA = BoundA == A.Columns.size();
        const bool FullB = BoundB == B.Columns.size();
        if (FullA != FullB)
          Better = FullA;
        else if (BoundA != BoundB)
          Better = BoundA > BoundB;
        else if (A.IsDelta != B.IsDelta)
          Better = A.IsDelta;
        else
          Better = A.SourceIndex < B.SourceIndex;
      } else {
        // Profile: cheapest estimated access first. Ties fall back to the
        // max-bound criteria so a stale or flat profile still degrades to
        // the heuristic rather than to source order.
        const double CostA = profileCost(A, Bound);
        const double CostB = profileCost(B, Bound);
        if (CostA != CostB)
          Better = CostA < CostB;
        else if (Bound.boundColumns(A) != Bound.boundColumns(B))
          Better = Bound.boundColumns(A) > Bound.boundColumns(B);
        else if (A.IsDelta != B.IsDelta)
          Better = A.IsDelta;
        else
          Better = A.SourceIndex < B.SourceIndex;
      }
      if (Better)
        Best = I;
    }
    Placed[Best] = true;
    Order.push_back(Best);
    Bound.bindAtom(Atoms[Best]);
  }
  return Order;
}
