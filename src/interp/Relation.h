//===- interp/Relation.h - De-specialized relation adapters -----*- C++ -*-===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime representation of relations in the interpreters.
///
/// A relation owns one statically typed DER index per selected order. Two
/// access paths exist, mirroring the paper:
///
///  * The *virtual adapter* path (RelationWrapper's virtual methods plus
///    TupleStream with the 128-tuple buffer) — the de-specialized interface
///    of Section 3, used by the dynamic-adapter engine of Fig 18 and by all
///    cold operations (IO, merge, clear).
///
///  * The *static* path: the STI's specialized instructions static_cast the
///    wrapper to its concrete type (BTreeRelation<Arity> etc.) and operate
///    on concrete indexes and iterators with zero virtual dispatch
///    (Section 4.1).
///
/// The factory at the bottom enumerates the entire de-specialized parameter
/// space — (implementation, arity) — exactly as in Fig 7 of the paper.
///
//===----------------------------------------------------------------------===//

#ifndef STIRD_INTERP_RELATION_H
#define STIRD_INTERP_RELATION_H

#include "der/BTreeSet.h"
#include "der/Brie.h"
#include "der/EquivalenceRelation.h"
#include "interp/Order.h"
#include "ram/Ram.h"
#include "util/MiscUtil.h"
#include "util/RamTypes.h"

#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

namespace stird::interp {

/// Which concrete family a wrapper belongs to; the static engine encodes
/// this (together with the arity) into its opcodes.
enum class RelKind : std::uint8_t { Btree, Brie, Eqrel, Legacy };

/// The canonical lowercase spelling of a RelKind, as used by the profile
/// document's "kind" field and the serving stats reply.
inline const char *relKindName(RelKind Kind) {
  switch (Kind) {
  case RelKind::Btree:
    return "btree";
  case RelKind::Brie:
    return "brie";
  case RelKind::Eqrel:
    return "eqrel";
  case RelKind::Legacy:
    return "legacy";
  }
  return "unknown";
}

/// Number of tuples buffered per virtual refill of a de-specialized
/// iterator (Section 3: one virtual call amortized over 128 reads).
inline constexpr std::size_t StreamBufferTuples = 128;

/// Type-erased tuple stream: the virtualized iterator of the dynamic
/// adapter. refill() writes up to Capacity tuples (Arity cells each) and
/// returns how many were written; 0 means exhausted.
class TupleStream {
public:
  virtual ~TupleStream() = default;
  virtual std::size_t refill(RamDomain *Buffer, std::size_t Capacity) = 0;
};

/// The virtual adapter wrapped around every relation (paper Fig 7's
/// IndexAdapter, widened to the full operation set the RAM needs).
class RelationWrapper {
public:
  RelationWrapper(RelKind Kind, const ram::Relation &Decl,
                  std::vector<Order> Orders)
      : Kind(Kind), Decl(Decl), Orders(std::move(Orders)) {}
  virtual ~RelationWrapper() = default;

  RelationWrapper(const RelationWrapper &) = delete;
  RelationWrapper &operator=(const RelationWrapper &) = delete;

  RelKind getKind() const { return Kind; }
  const ram::Relation &getDecl() const { return Decl; }
  const std::string &getName() const { return Decl.getName(); }
  std::size_t getArity() const { return Decl.getArity(); }
  std::size_t getNumIndexes() const { return Orders.size(); }
  const Order &getOrder(std::size_t IndexPos) const {
    return Orders[IndexPos];
  }

  /// Dense per-engine index into the engine's observability counter block
  /// (obs::StatsBlock); assigned once at engine construction.
  std::size_t getStatsId() const { return StatsId; }
  void setStatsId(std::size_t Id) { StatsId = Id; }

  /// Inserts a source-order tuple into every index; returns true if new.
  virtual bool insert(const RamDomain *Tuple) = 0;
  /// Removes a source-order tuple from every index; returns true if it was
  /// present. Only structures that support per-tuple deletion override
  /// this; the default is fatal (the translator routes strata over
  /// non-erasable structures to re-evaluation instead).
  virtual bool erase(const RamDomain *Tuple) {
    (void)Tuple;
    fatal("relation '" + getName() + "' does not support erase");
  }
  /// Full-tuple membership (via index 0).
  virtual bool contains(const RamDomain *Tuple) const = 0;
  /// True if some tuple matches the bound columns. \p EncodedKey is in the
  /// index order of \p IndexPos with the first \p PrefixLen cells bound;
  /// \p Mask is the source-column mask (only the equivalence relation
  /// consults it, for its non-prefix symmetric searches).
  virtual bool containsRange(std::size_t IndexPos,
                             const RamDomain *EncodedKey,
                             std::size_t PrefixLen,
                             std::uint32_t Mask) const = 0;
  virtual std::size_t size() const = 0;
  bool empty() const { return size() == 0; }
  virtual void clear() = 0;
  /// O(1) content exchange; Other must be the same concrete type with the
  /// same orders (guaranteed by index selection for swapped relations).
  virtual void swap(RelationWrapper &Other) = 0;
  /// Inserts every tuple of Src (same arity) into this relation.
  virtual void insertAll(const RelationWrapper &Src) = 0;

  /// Full enumeration through index \p IndexPos. Tuples arrive in index
  /// order; with \p Decode they are permuted back to source order.
  virtual std::unique_ptr<TupleStream> scan(std::size_t IndexPos,
                                            bool Decode) const = 0;
  /// Range enumeration of tuples matching the first \p PrefixLen cells of
  /// \p EncodedKey on index \p IndexPos (see containsRange for Mask).
  virtual std::unique_ptr<TupleStream> range(std::size_t IndexPos,
                                             const RamDomain *EncodedKey,
                                             std::size_t PrefixLen,
                                             std::uint32_t Mask,
                                             bool Decode) const = 0;

  /// Splits the full scan of index \p IndexPos into up to \p MaxParts
  /// disjoint streams whose concatenation equals scan(IndexPos, Decode).
  /// The default — used by the equivalence and legacy relations — is one
  /// stream, which degrades a parallel scan to a sequential one without
  /// affecting its result. An empty relation yields no streams.
  virtual std::vector<std::unique_ptr<TupleStream>>
  partitionScan(std::size_t IndexPos, std::size_t /*MaxParts*/,
                bool Decode) const {
    std::vector<std::unique_ptr<TupleStream>> Streams;
    if (!empty())
      Streams.push_back(scan(IndexPos, Decode));
    return Streams;
  }

  /// Range analogue of partitionScan(): splits the enumeration of range()
  /// instead of the full scan. Same single-stream default.
  virtual std::vector<std::unique_ptr<TupleStream>>
  partitionRange(std::size_t IndexPos, const RamDomain *EncodedKey,
                 std::size_t PrefixLen, std::uint32_t Mask, bool Decode,
                 std::size_t /*MaxParts*/) const {
    std::vector<std::unique_ptr<TupleStream>> Streams;
    Streams.push_back(range(IndexPos, EncodedKey, PrefixLen, Mask, Decode));
    return Streams;
  }

  /// Convenience enumeration in source order (IO, tests, examples).
  void forEach(const std::function<void(const RamDomain *)> &Fn) const {
    auto Stream = scan(0, /*Decode=*/true);
    std::vector<RamDomain> Buffer(StreamBufferTuples * getArity());
    for (;;) {
      std::size_t N = Stream->refill(Buffer.data(), StreamBufferTuples);
      if (N == 0)
        return;
      for (std::size_t I = 0; I < N; ++I)
        Fn(Buffer.data() + I * getArity());
    }
  }

private:
  RelKind Kind;
  const ram::Relation &Decl;
  std::vector<Order> Orders;
  std::size_t StatsId = 0;
};

/// Reads a TupleStream through the paper's 128-tuple amortization buffer:
/// one virtual refill per StreamBufferTuples next() calls.
class BufferedTupleSource {
public:
  /// \p Capacity tunes the amortization: 128 for the de-specialized
  /// adapter (Section 3), 1 for the pre-buffering legacy interpreter.
  BufferedTupleSource(std::unique_ptr<TupleStream> Stream, std::size_t Arity,
                      std::size_t Capacity = StreamBufferTuples)
      : Stream(std::move(Stream)), Arity(Arity), Capacity(Capacity),
        Buffer(Capacity * Arity) {}

  /// Next tuple (Arity cells) or nullptr when exhausted.
  const RamDomain *next() {
    if (Pos == Count) {
      Count = Stream->refill(Buffer.data(), Capacity);
      Pos = 0;
      if (Count == 0)
        return nullptr;
    }
    return Buffer.data() + (Pos++) * Arity;
  }

private:
  std::unique_ptr<TupleStream> Stream;
  std::size_t Arity;
  std::size_t Capacity;
  std::vector<RamDomain> Buffer;
  std::size_t Count = 0;
  std::size_t Pos = 0;
};

//===----------------------------------------------------------------------===//
// Statically typed index + stream implementations
//===----------------------------------------------------------------------===//

namespace detail {

/// Wraps any concrete iterator range as a TupleStream. Extract copies one
/// tuple's cells out of the dereferenced iterator value.
template <typename Iterator, std::size_t Arity, bool Decode>
class IteratorStream final : public TupleStream {
public:
  IteratorStream(Iterator Begin, Iterator End, const Order *Ord)
      : Cur(Begin), End(End), Ord(Ord) {}

  std::size_t refill(RamDomain *Buffer, std::size_t Capacity) override {
    std::size_t N = 0;
    while (N < Capacity && Cur != End) {
      const auto &Tuple = *Cur;
      if constexpr (Decode)
        Ord->decode(Tuple.data(), Buffer + N * Arity);
      else
        std::memcpy(Buffer + N * Arity, Tuple.data(),
                    Arity * sizeof(RamDomain));
      ++Cur;
      ++N;
    }
    return N;
  }

private:
  Iterator Cur;
  Iterator End;
  const Order *Ord;
};

/// Pads an encoded prefix key into full-width lower/upper bound tuples.
template <std::size_t Arity>
void padBounds(const RamDomain *EncodedKey, std::size_t PrefixLen,
               Tuple<Arity> &Low, Tuple<Arity> &High) {
  for (std::size_t J = 0; J < Arity; ++J) {
    if (J < PrefixLen) {
      Low[J] = EncodedKey[J];
      High[J] = EncodedKey[J];
    } else {
      Low[J] = std::numeric_limits<RamDomain>::min();
      High[J] = std::numeric_limits<RamDomain>::max();
    }
  }
}

} // namespace detail

/// One statically typed B-tree index with its insertion-time column order
/// (the BTreeIndex adapter of paper Fig 7).
template <std::size_t Arity> class BTreeIndex {
public:
  using TupleType = Tuple<Arity>;
  using iterator = typename BTreeSet<Arity>::iterator;

  explicit BTreeIndex(Order Ord) : Ord(std::move(Ord)) {}

  const Order &order() const { return Ord; }

  bool insert(const RamDomain *Source) {
    TupleType Encoded;
    Ord.encode(Source, Encoded.data());
    return Set.insert(Encoded);
  }
  bool erase(const RamDomain *Source) {
    TupleType Encoded;
    Ord.encode(Source, Encoded.data());
    return Set.erase(Encoded);
  }
  bool containsSource(const RamDomain *Source) const {
    TupleType Encoded;
    Ord.encode(Source, Encoded.data());
    return Set.contains(Encoded);
  }
  bool containsRange(const RamDomain *EncodedKey,
                     std::size_t PrefixLen) const {
    auto [Begin, End] = range(EncodedKey, PrefixLen);
    return Begin != End;
  }

  std::pair<iterator, iterator> range(const RamDomain *EncodedKey,
                                      std::size_t PrefixLen) const {
    TupleType Low, High;
    detail::padBounds<Arity>(EncodedKey, PrefixLen, Low, High);
    return {Set.lowerBound(Low), Set.upperBound(High)};
  }

  std::vector<std::pair<iterator, iterator>>
  partition(std::size_t MaxParts) const {
    return Set.partition(MaxParts);
  }
  std::vector<std::pair<iterator, iterator>>
  partitionRange(const RamDomain *EncodedKey, std::size_t PrefixLen,
                 std::size_t MaxParts) const {
    TupleType Low, High;
    detail::padBounds<Arity>(EncodedKey, PrefixLen, Low, High);
    return Set.partitionRange(Low, High, MaxParts);
  }

  iterator begin() const { return Set.begin(); }
  iterator end() const { return Set.end(); }
  std::size_t size() const { return Set.size(); }
  void clear() { Set.clear(); }
  void swapData(BTreeIndex &Other) { Set.swapData(Other.Set); }

private:
  Order Ord;
  BTreeSet<Arity> Set;
};

/// One statically typed Brie index.
template <std::size_t Arity> class BrieIndex {
public:
  using TupleType = Tuple<Arity>;
  using iterator = typename Brie<Arity>::iterator;

  explicit BrieIndex(Order Ord) : Ord(std::move(Ord)) {}

  const Order &order() const { return Ord; }

  bool insert(const RamDomain *Source) {
    TupleType Encoded;
    Ord.encode(Source, Encoded.data());
    return Set.insert(Encoded);
  }
  bool erase(const RamDomain *Source) {
    TupleType Encoded;
    Ord.encode(Source, Encoded.data());
    return Set.erase(Encoded);
  }
  bool containsSource(const RamDomain *Source) const {
    TupleType Encoded;
    Ord.encode(Source, Encoded.data());
    return Set.contains(Encoded);
  }
  bool containsRange(const RamDomain *EncodedKey,
                     std::size_t PrefixLen) const {
    TupleType Key{};
    std::memcpy(Key.data(), EncodedKey, PrefixLen * sizeof(RamDomain));
    return Set.containsPrefix(Key, PrefixLen);
  }

  std::pair<iterator, iterator> range(const RamDomain *EncodedKey,
                                      std::size_t PrefixLen) const {
    TupleType Key{};
    std::memcpy(Key.data(), EncodedKey, PrefixLen * sizeof(RamDomain));
    return {Set.prefixBegin(Key, PrefixLen), Set.end()};
  }

  std::vector<std::pair<iterator, iterator>>
  partition(std::size_t MaxParts) const {
    return Set.partition(MaxParts);
  }
  std::vector<std::pair<iterator, iterator>>
  partitionRange(const RamDomain *EncodedKey, std::size_t PrefixLen,
                 std::size_t MaxParts) const {
    // A prefix search pins the iterator's Start level, so it is served as
    // one undivided range; only full scans split across the root.
    if (PrefixLen == 0)
      return Set.partition(MaxParts);
    std::vector<std::pair<iterator, iterator>> Parts;
    auto [Begin, End] = range(EncodedKey, PrefixLen);
    if (Begin != End)
      Parts.emplace_back(Begin, End);
    return Parts;
  }

  iterator begin() const { return Set.begin(); }
  iterator end() const { return Set.end(); }
  std::size_t size() const { return Set.size(); }
  void clear() { Set.clear(); }
  void swapData(BrieIndex &Other) { Set.swapData(Other.Set); }

private:
  Order Ord;
  Brie<Arity> Set;
};

//===----------------------------------------------------------------------===//
// Concrete relations
//===----------------------------------------------------------------------===//

/// Shared implementation of the wrapper interface over a vector of
/// statically typed indexes (B-tree or Brie).
template <typename IndexT, std::size_t Arity, RelKind KindV>
class IndexedRelation final : public RelationWrapper {
public:
  /// Compile-time arity, read back by the specialized instruction bodies.
  static constexpr std::size_t ArityValue = Arity;

  IndexedRelation(const ram::Relation &Decl, std::vector<Order> Orders)
      : RelationWrapper(KindV, Decl, Orders) {
    assert(!Orders.empty() && "a relation needs at least one index");
    Indexes.reserve(Orders.size());
    for (auto &Ord : Orders)
      Indexes.emplace_back(Ord);
  }

  /// Direct access for the static engine's specialized instructions.
  IndexT &index(std::size_t IndexPos) { return Indexes[IndexPos]; }
  const IndexT &index(std::size_t IndexPos) const {
    return Indexes[IndexPos];
  }

  bool insert(const RamDomain *Tuple) override {
    bool Grew = Indexes[0].insert(Tuple);
    if (Grew)
      for (std::size_t I = 1; I < Indexes.size(); ++I)
        Indexes[I].insert(Tuple);
    return Grew;
  }

  bool erase(const RamDomain *Tuple) override {
    bool Removed = Indexes[0].erase(Tuple);
    if (Removed)
      for (std::size_t I = 1; I < Indexes.size(); ++I)
        Indexes[I].erase(Tuple);
    return Removed;
  }

  bool contains(const RamDomain *Tuple) const override {
    return Indexes[0].containsSource(Tuple);
  }

  bool containsRange(std::size_t IndexPos, const RamDomain *EncodedKey,
                     std::size_t PrefixLen,
                     std::uint32_t /*Mask*/) const override {
    return Indexes[IndexPos].containsRange(EncodedKey, PrefixLen);
  }

  std::size_t size() const override { return Indexes[0].size(); }

  void clear() override {
    for (auto &Index : Indexes)
      Index.clear();
  }

  void swap(RelationWrapper &Other) override {
    auto *OtherRel = static_cast<IndexedRelation *>(&Other);
    assert(Other.getKind() == getKind() &&
           Other.getNumIndexes() == getNumIndexes() &&
           "swap requires identical physical layout");
    for (std::size_t I = 0; I < Indexes.size(); ++I)
      Indexes[I].swapData(OtherRel->Indexes[I]);
  }

  void insertAll(const RelationWrapper &Src) override {
    assert(Src.getArity() == Arity && "arity mismatch in merge");
    Src.forEach([&](const RamDomain *Tuple) { insert(Tuple); });
  }

  std::unique_ptr<TupleStream> scan(std::size_t IndexPos,
                                    bool Decode) const override {
    const IndexT &Index = Indexes[IndexPos];
    return makeStream(Index.begin(), Index.end(), Index.order(), Decode);
  }

  std::unique_ptr<TupleStream> range(std::size_t IndexPos,
                                     const RamDomain *EncodedKey,
                                     std::size_t PrefixLen,
                                     std::uint32_t /*Mask*/,
                                     bool Decode) const override {
    const IndexT &Index = Indexes[IndexPos];
    auto [Begin, End] = Index.range(EncodedKey, PrefixLen);
    return makeStream(Begin, End, Index.order(), Decode);
  }

  std::vector<std::unique_ptr<TupleStream>>
  partitionScan(std::size_t IndexPos, std::size_t MaxParts,
                bool Decode) const override {
    const IndexT &Index = Indexes[IndexPos];
    std::vector<std::unique_ptr<TupleStream>> Streams;
    for (const auto &[Begin, End] : Index.partition(MaxParts))
      Streams.push_back(makeStream(Begin, End, Index.order(), Decode));
    return Streams;
  }

  std::vector<std::unique_ptr<TupleStream>>
  partitionRange(std::size_t IndexPos, const RamDomain *EncodedKey,
                 std::size_t PrefixLen, std::uint32_t /*Mask*/, bool Decode,
                 std::size_t MaxParts) const override {
    const IndexT &Index = Indexes[IndexPos];
    std::vector<std::unique_ptr<TupleStream>> Streams;
    for (const auto &[Begin, End] :
         Index.partitionRange(EncodedKey, PrefixLen, MaxParts))
      Streams.push_back(makeStream(Begin, End, Index.order(), Decode));
    return Streams;
  }

private:
  using Iter = typename IndexT::iterator;

  static std::unique_ptr<TupleStream>
  makeStream(Iter Begin, Iter End, const Order &Ord, bool Decode) {
    if (Decode && !Ord.isIdentity())
      return std::make_unique<detail::IteratorStream<Iter, Arity, true>>(
          Begin, End, &Ord);
    return std::make_unique<detail::IteratorStream<Iter, Arity, false>>(
        Begin, End, &Ord);
  }

  std::vector<IndexT> Indexes;
};

template <std::size_t Arity>
using BTreeRelation =
    IndexedRelation<BTreeIndex<Arity>, Arity, RelKind::Btree>;

template <std::size_t Arity>
using BrieRelation = IndexedRelation<BrieIndex<Arity>, Arity, RelKind::Brie>;

/// The equivalence-relation wrapper. It ignores orders (the union-find is
/// symmetric) and serves every search mask natively.
class EqrelRelation final : public RelationWrapper {
public:
  EqrelRelation(const ram::Relation &Decl, std::vector<Order> Orders)
      : RelationWrapper(RelKind::Eqrel, Decl, std::move(Orders)) {
    assert(Decl.getArity() == 2 && "equivalence relations are binary");
  }

  EquivalenceRelation &data() { return Rel; }
  const EquivalenceRelation &data() const { return Rel; }

  bool insert(const RamDomain *Tuple) override {
    return Rel.insert(Tuple[0], Tuple[1]);
  }
  bool contains(const RamDomain *Tuple) const override {
    return Rel.contains(Tuple[0], Tuple[1]);
  }
  bool containsRange(std::size_t, const RamDomain *EncodedKey,
                     std::size_t PrefixLen,
                     std::uint32_t Mask) const override {
    if (Mask == 0)
      return !Rel.empty();
    if (Mask == 0b11)
      return Rel.contains(EncodedKey[0], EncodedKey[1]);
    if (Mask == 0b01)
      return Rel.containsFirst(EncodedKey[0]);
    // Mask 0b10: by symmetry, the second column's values are the same set.
    (void)PrefixLen;
    return Rel.containsFirst(EncodedKey[1]);
  }
  std::size_t size() const override { return Rel.size(); }
  void clear() override { Rel.clear(); }
  void swap(RelationWrapper &Other) override {
    assert(Other.getKind() == RelKind::Eqrel && "swap layout mismatch");
    Rel.swapData(static_cast<EqrelRelation &>(Other).Rel);
  }
  void insertAll(const RelationWrapper &Src) override {
    Src.forEach([&](const RamDomain *Tuple) { insert(Tuple); });
  }

  std::unique_ptr<TupleStream> scan(std::size_t, bool) const override;
  std::unique_ptr<TupleStream> range(std::size_t,
                                     const RamDomain *EncodedKey,
                                     std::size_t PrefixLen,
                                     std::uint32_t Mask,
                                     bool Decode) const override;

  /// Splits the pair enumeration by "first" value: each stream walks a
  /// contiguous slice of the sorted value list and emits (first, member)
  /// pairs for its slice. Concatenated, the streams equal scan().
  std::vector<std::unique_ptr<TupleStream>>
  partitionScan(std::size_t IndexPos, std::size_t MaxParts,
                bool Decode) const override;

  /// An unbound search (mask 0) partitions like the full scan; anchored
  /// searches keep the single-stream default.
  std::vector<std::unique_ptr<TupleStream>>
  partitionRange(std::size_t IndexPos, const RamDomain *EncodedKey,
                 std::size_t PrefixLen, std::uint32_t Mask, bool Decode,
                 std::size_t MaxParts) const override;

private:
  EquivalenceRelation Rel;
};

/// The legacy interpreter's relation: one generic max-width B-tree per
/// order whose comparator reads the order from a runtime array on *every*
/// comparison (Section 5.1's slow baseline). Tuples are stored in source
/// order padded to MaxArity cells.
class LegacyRelation final : public RelationWrapper {
public:
  LegacyRelation(const ram::Relation &Decl, std::vector<Order> Orders);

  bool insert(const RamDomain *Tuple) override;
  bool erase(const RamDomain *Tuple) override;
  bool contains(const RamDomain *Tuple) const override;
  bool containsRange(std::size_t IndexPos, const RamDomain *EncodedKey,
                     std::size_t PrefixLen,
                     std::uint32_t Mask) const override;
  std::size_t size() const override { return Trees[0].size(); }
  void clear() override;
  void swap(RelationWrapper &Other) override;
  void insertAll(const RelationWrapper &Src) override;
  std::unique_ptr<TupleStream> scan(std::size_t IndexPos,
                                    bool Decode) const override;
  std::unique_ptr<TupleStream> range(std::size_t IndexPos,
                                     const RamDomain *EncodedKey,
                                     std::size_t PrefixLen,
                                     std::uint32_t Mask,
                                     bool Decode) const override;

private:
  using WideTuple = Tuple<MaxArity>;
  using Tree = BTreeSet<MaxArity, RuntimeOrderCompare<MaxArity>>;

  /// Converts an index-order key into padded source-order bounds.
  void makeBounds(std::size_t IndexPos, const RamDomain *EncodedKey,
                  std::size_t PrefixLen, WideTuple &Low,
                  WideTuple &High) const;

  std::vector<std::vector<std::uint32_t>> OrderArrays;
  std::vector<Tree> Trees;
};

//===----------------------------------------------------------------------===//
// Factory
//===----------------------------------------------------------------------===//

/// Instantiates the wrapper for \p Decl with the given \p Orders — the
/// factory of paper Fig 7, enumerating the pre-compiled (implementation,
/// arity) portfolio. \p Legacy selects the runtime-comparator baseline.
std::unique_ptr<RelationWrapper>
createRelation(const ram::Relation &Decl, std::vector<Order> Orders,
               bool Legacy = false);

} // namespace stird::interp

#endif // STIRD_INTERP_RELATION_H
