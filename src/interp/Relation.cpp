//===- interp/Relation.cpp - De-specialized relation adapters ---------------===//
//
// Part of the stird project.
//
//===----------------------------------------------------------------------===//

#include "interp/Relation.h"

#include "interp/ForEach.h"

#include <algorithm>

using namespace stird;
using namespace stird::interp;

//===----------------------------------------------------------------------===//
// Equivalence relation streams
//===----------------------------------------------------------------------===//

namespace {

/// Streams the logical pairs of an equivalence relation.
class EqrelScanStream final : public TupleStream {
public:
  explicit EqrelScanStream(const EquivalenceRelation &Rel)
      : Cur(Rel.begin()), End(Rel.end()) {}

  std::size_t refill(RamDomain *Buffer, std::size_t Capacity) override {
    std::size_t N = 0;
    while (N < Capacity && Cur != End) {
      Tuple<2> Pair = *Cur;
      Buffer[N * 2] = Pair[0];
      Buffer[N * 2 + 1] = Pair[1];
      ++Cur;
      ++N;
    }
    return N;
  }

private:
  EquivalenceRelation::iterator Cur;
  EquivalenceRelation::iterator End;
};

/// Streams the pairs anchored on one bound column: (Key, m) for mask 0b01,
/// (m, Key) for mask 0b10, over the sorted members m of Key's class.
class EqrelAnchoredStream final : public TupleStream {
public:
  EqrelAnchoredStream(const EquivalenceRelation &Rel, RamDomain Key,
                      bool KeyIsFirst)
      : Members(Rel.membersOf(Key)), Key(Key), KeyIsFirst(KeyIsFirst) {}

  std::size_t refill(RamDomain *Buffer, std::size_t Capacity) override {
    std::size_t N = 0;
    while (N < Capacity && Pos < Members.size()) {
      if (KeyIsFirst) {
        Buffer[N * 2] = Key;
        Buffer[N * 2 + 1] = Members[Pos];
      } else {
        Buffer[N * 2] = Members[Pos];
        Buffer[N * 2 + 1] = Key;
      }
      ++Pos;
      ++N;
    }
    return N;
  }

private:
  const std::vector<RamDomain> &Members;
  RamDomain Key;
  bool KeyIsFirst;
  std::size_t Pos = 0;
};

/// A stream of at most one pre-built tuple (fully bound eqrel ranges).
class SingleTupleStream final : public TupleStream {
public:
  SingleTupleStream(RamDomain A, RamDomain B) : Pair{A, B} {}

  std::size_t refill(RamDomain *Buffer, std::size_t Capacity) override {
    if (Done || Capacity == 0)
      return 0;
    Buffer[0] = Pair[0];
    Buffer[1] = Pair[1];
    Done = true;
    return 1;
  }

private:
  Tuple<2> Pair;
  bool Done = false;
};

/// The always-empty stream.
class EmptyStream final : public TupleStream {
public:
  std::size_t refill(RamDomain *, std::size_t) override { return 0; }
};

/// One partition of an equivalence-relation scan: the (first, member)
/// pairs whose "first" value lies in a contiguous slice [Lo, Hi) of the
/// sorted value list. The caches are refreshed before partitioning, so
/// refills only perform concurrent-safe reads.
class EqrelPartitionStream final : public TupleStream {
public:
  EqrelPartitionStream(const EquivalenceRelation &Rel, std::size_t Lo,
                       std::size_t Hi)
      : Rel(Rel), First(Lo), Last(Hi) {}

  std::size_t refill(RamDomain *Buffer, std::size_t Capacity) override {
    std::size_t N = 0;
    while (N < Capacity && First < Last) {
      if (!Members)
        Members = &Rel.membersOf(Rel.sortedValues()[First]);
      if (Pos == Members->size()) {
        Members = nullptr;
        Pos = 0;
        ++First;
        continue;
      }
      Buffer[N * 2] = Rel.sortedValues()[First];
      Buffer[N * 2 + 1] = (*Members)[Pos];
      ++Pos;
      ++N;
    }
    return N;
  }

private:
  const EquivalenceRelation &Rel;
  std::size_t First;
  std::size_t Last;
  std::size_t Pos = 0;
  const std::vector<RamDomain> *Members = nullptr;
};

} // namespace

std::unique_ptr<TupleStream> EqrelRelation::scan(std::size_t, bool) const {
  return std::make_unique<EqrelScanStream>(Rel);
}

std::unique_ptr<TupleStream>
EqrelRelation::range(std::size_t, const RamDomain *EncodedKey,
                     std::size_t /*PrefixLen*/, std::uint32_t Mask,
                     bool /*Decode*/) const {
  switch (Mask) {
  case 0:
    return std::make_unique<EqrelScanStream>(Rel);
  case 0b01:
    return std::make_unique<EqrelAnchoredStream>(Rel, EncodedKey[0],
                                                 /*KeyIsFirst=*/true);
  case 0b10:
    return std::make_unique<EqrelAnchoredStream>(Rel, EncodedKey[1],
                                                 /*KeyIsFirst=*/false);
  case 0b11:
    if (Rel.contains(EncodedKey[0], EncodedKey[1]))
      return std::make_unique<SingleTupleStream>(EncodedKey[0],
                                                 EncodedKey[1]);
    return std::make_unique<EmptyStream>();
  default:
    unreachable("invalid eqrel search mask");
  }
}

std::vector<std::unique_ptr<TupleStream>>
EqrelRelation::partitionScan(std::size_t /*IndexPos*/, std::size_t MaxParts,
                             bool /*Decode*/) const {
  std::vector<std::unique_ptr<TupleStream>> Streams;
  // Refreshes the caches on the calling (main) thread, so the partition
  // streams only touch refreshed, read-only state on the workers.
  const std::vector<RamDomain> &Values = Rel.sortedValues();
  if (Values.empty())
    return Streams;
  const std::size_t Parts = std::max<std::size_t>(
      1, std::min(MaxParts, Values.size()));
  const std::size_t Chunk = (Values.size() + Parts - 1) / Parts;
  for (std::size_t Lo = 0; Lo < Values.size(); Lo += Chunk)
    Streams.push_back(std::make_unique<EqrelPartitionStream>(
        Rel, Lo, std::min(Lo + Chunk, Values.size())));
  return Streams;
}

std::vector<std::unique_ptr<TupleStream>>
EqrelRelation::partitionRange(std::size_t IndexPos,
                              const RamDomain *EncodedKey,
                              std::size_t PrefixLen, std::uint32_t Mask,
                              bool Decode, std::size_t MaxParts) const {
  if (Mask == 0)
    return partitionScan(IndexPos, MaxParts, Decode);
  std::vector<std::unique_ptr<TupleStream>> Streams;
  Streams.push_back(range(IndexPos, EncodedKey, PrefixLen, Mask, Decode));
  return Streams;
}

//===----------------------------------------------------------------------===//
// Legacy relation (runtime comparator)
//===----------------------------------------------------------------------===//

namespace {

/// Runtime-arity stream over wide legacy tuples (already in source order).
class LegacyStream final : public TupleStream {
  using Iter = BTreeSet<MaxArity, RuntimeOrderCompare<MaxArity>>::iterator;

public:
  LegacyStream(Iter Begin, Iter End, std::size_t Arity)
      : Cur(Begin), End(End), Arity(Arity) {}

  std::size_t refill(RamDomain *Buffer, std::size_t Capacity) override {
    std::size_t N = 0;
    while (N < Capacity && Cur != End) {
      std::memcpy(Buffer + N * Arity, Cur->data(),
                  Arity * sizeof(RamDomain));
      ++Cur;
      ++N;
    }
    return N;
  }

private:
  Iter Cur;
  Iter End;
  std::size_t Arity;
};

} // namespace

LegacyRelation::LegacyRelation(const ram::Relation &Decl,
                               std::vector<Order> Orders)
    : RelationWrapper(RelKind::Legacy, Decl, Orders) {
  OrderArrays.reserve(Orders.size());
  for (const Order &Ord : Orders)
    OrderArrays.push_back(Ord.columns());
  Trees.reserve(OrderArrays.size());
  for (const auto &Array : OrderArrays) {
    RuntimeOrderCompare<MaxArity> Cmp;
    Cmp.Order = Array.data();
    Cmp.Length = Decl.getArity();
    Trees.emplace_back(Cmp);
  }
}

bool LegacyRelation::insert(const RamDomain *Tuple) {
  WideTuple Wide{};
  std::memcpy(Wide.data(), Tuple, getArity() * sizeof(RamDomain));
  bool Grew = Trees[0].insert(Wide);
  if (Grew)
    for (std::size_t I = 1; I < Trees.size(); ++I)
      Trees[I].insert(Wide);
  return Grew;
}

bool LegacyRelation::erase(const RamDomain *Tuple) {
  WideTuple Wide{};
  std::memcpy(Wide.data(), Tuple, getArity() * sizeof(RamDomain));
  bool Removed = Trees[0].erase(Wide);
  if (Removed)
    for (std::size_t I = 1; I < Trees.size(); ++I)
      Trees[I].erase(Wide);
  return Removed;
}

bool LegacyRelation::contains(const RamDomain *Tuple) const {
  WideTuple Wide{};
  std::memcpy(Wide.data(), Tuple, getArity() * sizeof(RamDomain));
  return Trees[0].contains(Wide);
}

void LegacyRelation::makeBounds(std::size_t IndexPos,
                                const RamDomain *EncodedKey,
                                std::size_t PrefixLen, WideTuple &Low,
                                WideTuple &High) const {
  const auto &Ord = OrderArrays[IndexPos];
  Low.fill(0);
  High.fill(0);
  for (std::size_t J = 0; J < getArity(); ++J) {
    const std::uint32_t Col = Ord[J];
    if (J < PrefixLen) {
      Low[Col] = EncodedKey[J];
      High[Col] = EncodedKey[J];
    } else {
      Low[Col] = std::numeric_limits<RamDomain>::min();
      High[Col] = std::numeric_limits<RamDomain>::max();
    }
  }
}

bool LegacyRelation::containsRange(std::size_t IndexPos,
                                   const RamDomain *EncodedKey,
                                   std::size_t PrefixLen,
                                   std::uint32_t /*Mask*/) const {
  WideTuple Low, High;
  makeBounds(IndexPos, EncodedKey, PrefixLen, Low, High);
  return Trees[IndexPos].lowerBound(Low) != Trees[IndexPos].upperBound(High);
}

void LegacyRelation::clear() {
  for (auto &Tree : Trees)
    Tree.clear();
}

void LegacyRelation::swap(RelationWrapper &Other) {
  assert(Other.getKind() == RelKind::Legacy && "swap layout mismatch");
  auto &OtherRel = static_cast<LegacyRelation &>(Other);
  assert(OtherRel.Trees.size() == Trees.size() && "swap layout mismatch");
  for (std::size_t I = 0; I < Trees.size(); ++I)
    Trees[I].swapData(OtherRel.Trees[I]);
}

void LegacyRelation::insertAll(const RelationWrapper &Src) {
  Src.forEach([&](const RamDomain *Tuple) { insert(Tuple); });
}

std::unique_ptr<TupleStream> LegacyRelation::scan(std::size_t IndexPos,
                                                  bool /*Decode*/) const {
  // Legacy tuples are stored in source order; no decode is ever needed.
  return std::make_unique<LegacyStream>(Trees[IndexPos].begin(),
                                        Trees[IndexPos].end(), getArity());
}

std::unique_ptr<TupleStream>
LegacyRelation::range(std::size_t IndexPos, const RamDomain *EncodedKey,
                      std::size_t PrefixLen, std::uint32_t /*Mask*/,
                      bool /*Decode*/) const {
  WideTuple Low, High;
  makeBounds(IndexPos, EncodedKey, PrefixLen, Low, High);
  return std::make_unique<LegacyStream>(Trees[IndexPos].lowerBound(Low),
                                        Trees[IndexPos].upperBound(High),
                                        getArity());
}

//===----------------------------------------------------------------------===//
// Factory (paper Fig 7)
//===----------------------------------------------------------------------===//

namespace {

// Uniform spelling for the FOR_EACH expansion below.
template <std::size_t Arity> using Relation_Btree = BTreeRelation<Arity>;
template <std::size_t Arity> using Relation_Brie = BrieRelation<Arity>;
template <std::size_t /*Arity*/> using Relation_Eqrel = EqrelRelation;

RelKind kindOf(ram::StructureKind Structure) {
  switch (Structure) {
  case ram::StructureKind::Btree:
    return RelKind::Btree;
  case ram::StructureKind::Brie:
    return RelKind::Brie;
  case ram::StructureKind::Eqrel:
    return RelKind::Eqrel;
  }
  unreachable("unknown structure kind");
}

} // namespace

std::unique_ptr<RelationWrapper>
stird::interp::createRelation(const ram::Relation &Decl,
                              std::vector<Order> Orders, bool Legacy) {
  if (Orders.empty())
    Orders.push_back(Order::identity(Decl.getArity()));
  if (Legacy)
    return std::make_unique<LegacyRelation>(Decl, std::move(Orders));

  const RelKind Kind = kindOf(Decl.getStructure());
  const std::size_t Arity = Decl.getArity();

#define STIRD_CREATE_RELATION(Structure, ArityValue)                          \
  if (Kind == RelKind::Structure && Arity == (ArityValue))                    \
    return std::make_unique<Relation_##Structure<(ArityValue)>>(              \
        Decl, std::move(Orders));
  STIRD_FOR_EACH(STIRD_CREATE_RELATION)
#undef STIRD_CREATE_RELATION

  fatal("unsupported relation shape: structure/arity combination for '" +
        Decl.getName() + "' (arity " + std::to_string(Arity) +
        ") is outside the pre-compiled portfolio");
}
