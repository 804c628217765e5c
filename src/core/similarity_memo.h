#ifndef THETIS_CORE_SIMILARITY_MEMO_H_
#define THETIS_CORE_SIMILARITY_MEMO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/similarity.h"

namespace thetis {

// Memoizing wrapper around any EntitySimilarity. σ is pure (TypeJaccard set
// intersections and embedding dot products depend only on the entity pair),
// so caching the (a, b) -> σ(a, b) map is exact: Score returns bit-identical
// values to the wrapped similarity, first call and every call after.
//
// The table is a flat open-addressing hash keyed on the packed pair id —
// no buckets, no allocation per insert, linear probing with a fibonacci
// spread. It is deliberately NOT synchronized: the intended lifetime is one
// query on one thread (the search engine shares one memo between the
// partitions of a query that run on one thread, and gives each pooled
// partition its own), which keeps the hot path lock-free.
class SimilarityMemo final : public EntitySimilarity {
 public:
  // `base` is borrowed and must outlive the memo. `expected_pairs` presizes
  // the table (rounded up to a power of two); it grows as needed.
  explicit SimilarityMemo(const EntitySimilarity* base,
                          size_t expected_pairs = 1024);

  // Defined inline (and the class is final) so callers holding a concrete
  // SimilarityMemo get a devirtualized, fully inlined probe on the hit
  // path — the common case once a query warms up.
  double Score(EntityId a, EntityId b) const override {
    uint64_t key = PackKey(a, b);
    if (key == kEmptySlot) return base_->Score(a, b);
    size_t mask = slots_.size() - 1;
    size_t i = SpreadKey(key, mask);
    while (slots_[i].key != kEmptySlot) {
      if (slots_[i].key == key) {
        ++hits_;
        return slots_[i].value;
      }
      i = (i + 1) & mask;
    }
    return Miss(key, i, a, b);
  }

  // Batched probe with three regimes, all bit-identical to the base σ:
  //
  //  1. Dense row: once a query entity has been scored against as many
  //     pairs as the base's dense entity-id space holds (rent-to-buy: the
  //     precompute is then no more than half the total work), σ(q, ·) is
  //     computed over ALL entities in one base batch and every later batch
  //     is a flat gather — no probing, no σ arithmetic. This is what makes
  //     full-corpus scans cheap: an entity appearing in hundreds of tables
  //     is scored once per query, not once per table.
  //  2. Direct batch: before the dense row pays for itself, a base that
  //     prefers direct batching (a SIMD dot over pre-normalized rows beats
  //     a hash probe per pair) gets the whole batch forwarded.
  //  3. Hash memo: otherwise each pair probes the table and misses are
  //     forwarded to the base's ScoreBatch in one sub-batch.
  void ScoreBatch(EntityId q, const EntityId* targets, size_t count,
                  double* out) const override;

  std::string name() const override { return base_->name() + "+memo"; }

  // Memoization never changes σ values, so the base's equivalence classes
  // remain valid verbatim.
  std::vector<uint32_t> SigmaEquivalenceClasses() const override {
    return base_->SigmaEquivalenceClasses();
  }

  const EntitySimilarity& base() const { return *base_; }

  // Cache effectiveness counters, feeding SearchStats.
  size_t hits() const { return hits_; }
  size_t misses() const { return misses_; }
  // Number of distinct pairs currently cached.
  size_t size() const { return size_; }

  // Drops all cached pairs and counters (reuse across queries).
  void Clear();

 private:
  struct Slot {
    uint64_t key;
    double value;
  };
  // (kNoEntity, kNoEntity) — the engine never scores kNoEntity, so this key
  // marks an empty slot. Pairs that do collide with it bypass the cache.
  static constexpr uint64_t kEmptySlot = ~0ull;

  static uint64_t PackKey(EntityId a, EntityId b) {
    return (static_cast<uint64_t>(a) << 32) | static_cast<uint64_t>(b);
  }

  // Fibonacci multiplicative spread: the packed pair key is sequential-ish
  // in both halves, so multiply by 2^64/φ before masking to the table size.
  static size_t SpreadKey(uint64_t key, size_t mask) {
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ull) >> 17) & mask;
  }

  // Cold path: computes via the base similarity, inserts at the probed slot
  // `i`, and grows the table when the load factor crosses 1/2.
  double Miss(uint64_t key, size_t i, EntityId a, EntityId b) const;

  // Doubles the table, rehashing all occupied slots.
  void Grow() const;

  // Inserts (key, value) unless the key is already present (a duplicate
  // target inside one batch); σ is pure, so the existing value is
  // identical and the insert can be skipped.
  void InsertIfAbsent(uint64_t key, double value) const;

  // Per-query-entity dense score row (regime 1 above). A query holds a
  // handful of distinct entities, so the rows live in a linear-scanned
  // vector.
  struct DenseRow {
    EntityId q = kNoEntity;
    // Pairs served for q through any regime; the row is built when this
    // reaches the base's NumEntities().
    size_t pairs_served = 0;
    bool built = false;
    std::vector<double> row;
  };
  DenseRow& DenseFor(EntityId q) const;
  // Fills dr.row with σ(q, e) for all e in [0, n) via one base batch
  // (counted as n misses — they are real base evaluations).
  void BuildRow(DenseRow& dr, size_t n) const;

  const EntitySimilarity* base_;
  // Score() is conceptually const (same observable values as base_), so the
  // cache state is mutable.
  mutable std::vector<Slot> slots_;
  mutable size_t size_ = 0;
  mutable size_t hits_ = 0;
  mutable size_t misses_ = 0;
  // Batch scratch (the memo is per-worker, so plain members suffice).
  mutable std::vector<size_t> miss_idx_;
  mutable std::vector<EntityId> miss_ids_;
  mutable std::vector<double> miss_out_;
  mutable std::vector<DenseRow> dense_;
  // Iota id list for dense row builds (shared across rows).
  mutable std::vector<EntityId> all_ids_;
};

}  // namespace thetis

#endif  // THETIS_CORE_SIMILARITY_MEMO_H_
