//===- obs/Stats.h - Per-relation runtime counters --------------*- C++ -*-===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Relation and index statistics of the observability layer. Every runtime
/// relation owns one RelationStats slot in a dense StatsBlock; the executors
/// bump plain (non-atomic) counters on the hot path. Thread safety comes
/// from ownership, not atomics: the main executor writes the engine's block,
/// each partition worker writes a private block, and the private blocks are
/// merged into the engine's block at the end-of-scan barrier — the same
/// point where TupleBuffer::flushAll applies the buffered inserts.
///
//===----------------------------------------------------------------------===//

#ifndef STIRD_OBS_STATS_H
#define STIRD_OBS_STATS_H

#include <algorithm>
#include <cstdint>
#include <vector>

namespace stird::obs {

/// Counters of one relation. All counts are totals over the whole run;
/// "reorders" counts de-specialized tuple reorder invocations (Order
/// encode/decode calls the interpreter had to perform at runtime because
/// static reordering was off or a key had to be permuted into index order).
struct RelationStats {
  /// insert() attempts (projections and buffered worker inserts).
  std::uint64_t Inserts = 0;
  /// Inserts that actually grew the relation (deduplicated away otherwise).
  std::uint64_t InsertsNew = 0;
  /// Membership queries: existence checks and emptiness checks.
  std::uint64_t Contains = 0;
  /// Full-scan initiations.
  std::uint64_t Scans = 0;
  /// Tuples delivered by full scans.
  std::uint64_t ScanTuples = 0;
  /// Range-search (index scan / aggregate) initiations.
  std::uint64_t IndexScans = 0;
  /// Range searches that matched at least one tuple.
  std::uint64_t IndexScanHits = 0;
  /// Tuples delivered by range searches (the sum of all range sizes).
  std::uint64_t IndexScanTuples = 0;
  /// Runtime tuple/key reorder invocations (encode + decode).
  std::uint64_t Reorders = 0;
  /// Fully-bound probes: index searches and existence checks whose key
  /// binds every column (PrefixLen == arity). A subset of IndexScans +
  /// Contains.
  std::uint64_t PointLookups = 0;
  /// Bounded range searches: a proper non-empty prefix is bound
  /// (0 < PrefixLen < arity). Unbounded (mask-free) searches count in
  /// Scans/IndexScans only, so PointLookups + RangeScans <= IndexScans +
  /// Contains always holds.
  std::uint64_t RangeScans = 0;
  /// High-water cardinality observed at clear/swap/report points. Not
  /// merged additively: peaks combine by max.
  std::uint64_t PeakSize = 0;

  void notePeak(std::uint64_t Size) { PeakSize = std::max(PeakSize, Size); }

  void merge(const RelationStats &Other) {
    Inserts += Other.Inserts;
    InsertsNew += Other.InsertsNew;
    Contains += Other.Contains;
    Scans += Other.Scans;
    ScanTuples += Other.ScanTuples;
    IndexScans += Other.IndexScans;
    IndexScanHits += Other.IndexScanHits;
    IndexScanTuples += Other.IndexScanTuples;
    Reorders += Other.Reorders;
    PointLookups += Other.PointLookups;
    RangeScans += Other.RangeScans;
    PeakSize = std::max(PeakSize, Other.PeakSize);
  }
};

/// Classifies one key-bounded search initiation (index scan, existence
/// check or aggregate) by how much of its key is bound. \p Mask is the bound
/// source-column mask: a fully bound key is a point lookup, a partially
/// bound one a bounded range scan, and unbounded searches (Mask == 0) stay
/// in the plain Scans/IndexScans counters only. Called once per initiation
/// on the main thread, so the counts are thread-count-invariant.
inline void noteSearchPattern(RelationStats *RS, std::uint32_t Mask,
                              std::size_t Arity) {
  if (!RS || Mask == 0)
    return;
  std::size_t Bound = 0;
  for (std::uint32_t M = Mask; M; M &= M - 1)
    ++Bound;
  if (Bound >= Arity)
    ++RS->PointLookups;
  else
    ++RS->RangeScans;
}

/// One counter block: RelationStats indexed by the dense per-engine stats
/// id of each relation (RelationWrapper::getStatsId()).
using StatsBlock = std::vector<RelationStats>;

/// Merges a worker's private block into the engine block (barrier-side).
inline void mergeStats(StatsBlock &Into, const StatsBlock &From) {
  for (std::size_t I = 0; I < Into.size() && I < From.size(); ++I)
    Into[I].merge(From[I]);
}

} // namespace stird::obs

#endif // STIRD_OBS_STATS_H
