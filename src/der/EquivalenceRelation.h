//===- der/EquivalenceRelation.h - Union-find binary relation ---*- C++ -*-===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The equivalence-relation DER data structure [40]: a binary relation
/// closed under reflexivity, symmetry and transitivity, stored as a
/// union-find forest so that inserting (a, b) merges the classes of a and b
/// in near-constant time while the logical relation holds |C|^2 pairs per
/// class C. Enumeration materializes sorted per-class member lists lazily.
///
/// Concurrency contract: mutations (insert/clear/swapData) are exclusive,
/// but all read operations — contains, membersOf, iteration — are safe to
/// run concurrently with each other. This is what the parallel evaluator
/// relies on: during a parallel section, workers only *read* equivalence
/// relations (their pair inserts are parked in per-worker TupleBuffers and
/// merged into the union-find at the barrier, on the main thread), so reads
/// need to tolerate two benign races that the sequential structure hid
/// behind `mutable`: path compression inside findRoot (parent pointers are
/// atomics; compression only rewrites a pointer to the class root, which
/// every racing reader computes identically while unions are excluded) and
/// the lazy enumeration caches (rebuilt under a mutex with double-checked
/// staleness).
///
//===----------------------------------------------------------------------===//

#ifndef STIRD_DER_EQUIVALENCERELATION_H
#define STIRD_DER_EQUIVALENCERELATION_H

#include "util/RamTypes.h"

#include <atomic>
#include <cstddef>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace stird {

/// Binary equivalence relation over RamDomain values.
class EquivalenceRelation {
public:
  /// Inserts the pair (A, B), i.e. asserts A ~ B. Returns true if the
  /// logical relation grew (the two were not yet equivalent).
  bool insert(RamDomain A, RamDomain B);

  /// True if A ~ B (both seen and in the same class).
  bool contains(RamDomain A, RamDomain B) const;

  /// True if A belongs to any class (equivalently, (A, A) holds).
  bool containsFirst(RamDomain A) const { return IndexOf.count(A) != 0; }

  /// Number of logical pairs: sum of |C|^2 over all classes C.
  std::size_t size() const { return NumPairs; }
  bool empty() const { return NumPairs == 0; }

  void clear();
  void swapData(EquivalenceRelation &Other);

  /// Iterates the logical pairs in ascending (first, second) order.
  class iterator {
  public:
    iterator() = default;

    Tuple<2> operator*() const {
      return {Rel->SortedValues[First], (*Members)[Second]};
    }

    iterator &operator++() {
      ++Second;
      if (Second < Members->size())
        return *this;
      ++First;
      Second = 0;
      if (First < Rel->SortedValues.size())
        Members = &Rel->membersOf(Rel->SortedValues[First]);
      else
        Rel = nullptr;
      return *this;
    }

    bool operator==(const iterator &Other) const {
      if (!Rel || !Other.Rel)
        return Rel == Other.Rel;
      return First == Other.First && Second == Other.Second;
    }
    bool operator!=(const iterator &Other) const { return !(*this == Other); }

  private:
    friend class EquivalenceRelation;
    iterator(const EquivalenceRelation *Rel, std::size_t First)
        : Rel(Rel), First(First) {
      if (Rel && First < Rel->SortedValues.size())
        Members = &Rel->membersOf(Rel->SortedValues[First]);
      else
        this->Rel = nullptr;
    }

    const EquivalenceRelation *Rel = nullptr;
    std::size_t First = 0;
    std::size_t Second = 0;
    const std::vector<RamDomain> *Members = nullptr;
  };

  iterator begin() const {
    refresh();
    return iterator(this, 0);
  }
  iterator end() const { return iterator(); }

  /// Sorted members of the class of \p A; empty if A is unseen. The
  /// returned reference stays valid until the next mutation.
  const std::vector<RamDomain> &membersOf(RamDomain A) const;

  /// All values ever seen, ascending — the "first" column of the logical
  /// pair enumeration. The reference stays valid until the next mutation;
  /// the parallel scan partitions this list across workers.
  const std::vector<RamDomain> &sortedValues() const {
    refresh();
    return SortedValues;
  }

private:
  /// A copyable atomic parent pointer, so the forest can live in a vector
  /// (copies only happen on sequential growth/rehash, never concurrently).
  struct AtomicIndex {
    std::atomic<std::size_t> V{0};
    AtomicIndex() = default;
    explicit AtomicIndex(std::size_t I) : V(I) {}
    AtomicIndex(const AtomicIndex &O)
        : V(O.V.load(std::memory_order_relaxed)) {}
    AtomicIndex &operator=(const AtomicIndex &O) {
      V.store(O.V.load(std::memory_order_relaxed),
              std::memory_order_relaxed);
      return *this;
    }
  };

  std::size_t findRoot(std::size_t Index) const;
  std::size_t internValue(RamDomain Value);
  /// Recomputes SortedValues and per-root member lists if stale. Safe to
  /// call from concurrent readers (double-checked locking on Stale).
  void refresh() const;

  std::unordered_map<RamDomain, std::size_t> IndexOf;
  std::vector<RamDomain> ValueOf;
  mutable std::vector<AtomicIndex> Parent;
  std::vector<std::uint8_t> Rank;
  std::vector<std::size_t> ClassSize;
  std::size_t NumPairs = 0;

  mutable std::atomic<bool> Stale{false};
  mutable std::mutex RefreshM;
  mutable std::vector<RamDomain> SortedValues;
  mutable std::unordered_map<std::size_t, std::vector<RamDomain>> MembersOfRoot;
  static const std::vector<RamDomain> EmptyMembers;
};

} // namespace stird

#endif // STIRD_DER_EQUIVALENCERELATION_H
