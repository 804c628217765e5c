#ifndef THETIS_CORE_QUERY_CACHE_H_
#define THETIS_CORE_QUERY_CACHE_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/column_mapping.h"
#include "core/similarity.h"
#include "core/sigma_table.h"
#include "table/corpus.h"
#include "table/table.h"
#include "util/flat_array.h"

namespace thetis {

class CorpusColumnArena;
class ThreadPool;

// Content-interned column signatures for every table of a corpus, the key
// space of the Hungarian-mapping cache.
//
// A table's signature is the per-column sequence of (σ-class, count) pairs
// over the column's distinct entities in first-occurrence order, where
// σ-class is the similarity's σ-equivalence class of the entity (see
// EntitySimilarity::SigmaEquivalenceClasses; entities outside the class
// vector — or all entities when the similarity provides no classes — are
// kept at entity granularity). Two tables with equal signatures produce
// identical column-relevance matrices for any query tuple that contains
// none of their cell entities: each matrix cell sums count·σ(e, class) in
// the same order, term for term. Queries that DO contain a cell entity are
// handled by the cache's identity fingerprint (σ(e, e) = 1 escapes the
// class abstraction), so cached mappings remain exact — bit-identical to
// solving fresh — rather than approximate.
//
// First-occurrence order (not a sorted multiset) is deliberate: the matrix
// fill accumulates floating-point terms in that order, so order-insensitive
// matching could reuse a mapping whose total_score differs in the last bit.
//
// The engine computes this once at construction and shares it with every
// QueryScopedCache, so the per-table signature pass is paid once per engine
// instead of once per (query, worker). Tables ingested after the engine was
// built fall back to per-query interning inside the cache.
struct TableSignatureIndex {
  // Per-entity σ-class, as returned by the similarity (empty = identity:
  // every entity is its own class). FlatArray: owned when built here,
  // a view over the mapping when restored from an engine snapshot.
  FlatArray<uint32_t> entity_classes;
  // (TableId - table_base) → interned signature id, dense over the covered
  // range at build time.
  FlatArray<uint32_t> table_signatures;
  // Number of distinct signatures (the mapping cache's reuse ceiling).
  size_t num_distinct = 0;
  // First table id the index covers: 0 for a whole-corpus index, the
  // shard's range start for a per-shard index. Signature ids are interned
  // per index, so two shards' id spaces are unrelated — each shard's
  // QueryScopedCache sees exactly one index and never mixes them.
  TableId table_base = 0;

  bool CoversTable(TableId id) const {
    return id >= table_base && id - table_base < table_signatures.size();
  }
};

// `arena` (may be null) is the engine's prebuilt corpus column arena;
// when present, covered tables reuse its views instead of rebuilding a
// per-table ColumnEntityIndex, making the signature pass a read-only walk.
// With a `pool` (> 1 thread) the per-table flatten pass runs in parallel;
// interning stays serial in table-id order, so signature ids and
// num_distinct are bit-identical to a serial build.
TableSignatureIndex BuildTableSignatureIndex(
    const Corpus& corpus, std::vector<uint32_t> entity_classes,
    const CorpusColumnArena* arena = nullptr, ThreadPool* pool = nullptr);

// Per-shard variant: signs the contiguous table range [begin, end) against
// a SHARD-LOCAL arena (its table 0 is corpus table `begin` — see
// CorpusColumnArena::BuildRange). `entity_classes` is borrowed (all shards
// share one σ-class vector, owned by the engine or an mmap'd snapshot) and
// must outlive the index. Interning is serial in table-id order within the
// shard, so ids and num_distinct are pure functions of the range content.
TableSignatureIndex BuildTableSignatureIndexRange(
    std::span<const uint32_t> entity_classes,
    const CorpusColumnArena& shard_arena, TableId begin, TableId end);

// Query-scoped Hungarian mapping cache: two tables with σ-equivalent
// column contents (see TableSignatureIndex) produce identical
// column-relevance matrices, hence identical optimal assignments, so τ is
// solved once per distinct (signature, identity fingerprint) pair.
//
// The cache is exact, not approximate: signatures are compared by full
// content (hashes only bucket), and the identity fingerprint pins every
// position where a query entity appears verbatim in the table, so cached
// mappings are bit-identical to solving fresh. An instance serves one
// thread for the lifetime of one query; the engine creates one per
// partition of the query's candidates.
class QueryScopedCache {
 public:
  // `signature_index` (may be null) is borrowed and must outlive the
  // cache: the engine-precomputed signature table. Tables beyond its range
  // — or all tables when it is null — are interned per query in a
  // disjoint id space (entity-granularity classes when null).
  explicit QueryScopedCache(const TableSignatureIndex* signature_index =
                                nullptr)
      : signature_index_(signature_index) {}

  // The Hungarian mapping of query tuple `tuple_index` (content `tuple`)
  // against table `table_id` (whose prebuilt column-entity view is `index`
  // — an arena slice or a per-table index's View()), computed from `sigma`
  // (the tuple's σ) at most once per distinct (signature, identity
  // fingerprint). The returned reference is stable until the cache is
  // destroyed.
  const ColumnMapping& MappingFor(size_t tuple_index,
                                  const std::vector<EntityId>& tuple,
                                  TableId table_id, ColumnIndexView index,
                                  const TupleSigma& sigma);

  // Convenience overload that builds the column-entity index and binds
  // the tuple's σ internally; the engine's hot path passes the prebuilt
  // arena view and the bound tuple instead.
  const ColumnMapping& MappingFor(size_t tuple_index,
                                  const std::vector<EntityId>& tuple,
                                  const Table& table, TableId table_id,
                                  const SigmaReader& sigma);

  size_t mapping_hits() const { return mapping_hits_; }
  size_t mapping_misses() const { return mapping_misses_; }

  // Reusable per-row-aggregation buffers. The scoring loop runs once per
  // (tuple, table) pair — about 10^5 times for a 20-query batch over a
  // 1000-table lake — and allocating its four small vectors fresh each time
  // costs more than the arithmetic. Values are fully re-assigned by the
  // caller before use; only capacity is reused.
  struct RowScratch {
    std::vector<double> agg;
    std::vector<double> sums;
    std::vector<double> weights;
    std::vector<EntityId> best_match;
    // Batched σ scores of one column's distinct entities, plus the table's
    // column-entity index (built once per table, shared by the mapping fill
    // and the row aggregation) and its dedup table.
    std::vector<double> cell_scores;
    DedupScratch dedup;
    ColumnEntityIndex index;
    // One tuple's σ rows (TupleSigma).
    std::vector<const double*> sigma_rows;
  };
  RowScratch& row_scratch() { return row_scratch_; }

 private:
  struct FlatSignatureHash {
    size_t operator()(const std::vector<uint64_t>& v) const;
  };

  // Cache key: (query tuple, table signature) plus the identity
  // fingerprint — every (tuple position, distinct slot) where the table
  // holds the query entity itself, since σ(e, e) = 1 is not determined by
  // the entity's class. Tables that agree on all three produce the same
  // column-relevance matrix bit for bit.
  struct MappingKey {
    uint64_t tuple_and_sig;  // tuple_index << 32 | signature id
    std::vector<uint64_t> identity_fp;
    bool operator==(const MappingKey& other) const = default;
  };
  struct MappingKeyHash {
    size_t operator()(const MappingKey& k) const;
  };

  // Interned id of the table's column-content signature (engine-precomputed
  // or per-query interned from the table's prebuilt column-entity view).
  uint32_t SignatureOf(TableId table_id, ColumnIndexView index);

  // Engine-precomputed signature index (null when unavailable).
  const TableSignatureIndex* signature_index_;
  // Per-query signature interning for tables the precomputed index does
  // not cover: flattened class signatures map to an id with the high bit
  // set, disjoint from the precomputed dense ids; equality is on full
  // content.
  std::unordered_map<std::vector<uint64_t>, uint32_t, FlatSignatureHash>
      signature_ids_;
  std::unordered_map<TableId, uint32_t> table_signatures_;
  // Node-based map keeps ColumnMapping references stable across inserts.
  std::unordered_map<MappingKey, ColumnMapping, MappingKeyHash> mappings_;
  size_t mapping_hits_ = 0;
  size_t mapping_misses_ = 0;
  // Scratch for the column-relevance matrix and Hungarian solver (capacity
  // reused across tables), the key fingerprint, and the row-aggregation
  // buffers above.
  MappingScratch mapping_scratch_;
  MappingKey key_scratch_;
  RowScratch row_scratch_;
};

}  // namespace thetis

#endif  // THETIS_CORE_QUERY_CACHE_H_
