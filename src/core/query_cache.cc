#include "core/query_cache.h"

#include <algorithm>
#include <span>

#include "core/corpus_index.h"
#include "util/thread_pool.h"

namespace thetis {

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

// FNV-1a over 64-bit elements; collisions only cost an equality check.
uint64_t HashU64(uint64_t h, uint64_t v) {
  h ^= v;
  h *= kFnvPrime;
  return h;
}

uint64_t HashU64Vector(const std::vector<uint64_t>& v) {
  uint64_t h = kFnvOffset;
  for (uint64_t x : v) h = HashU64(h, x);
  return h;
}

// Column separator inside a flattened signature. Signature elements are
// either class ids (< 2^32) or entity-level markers (bit 40 set with a
// 32-bit entity id), so the all-ones word is free.
constexpr uint64_t kColumnSeparator = ~0ull;
// Entities outside the class vector (no class information, or similarities
// without classes) are kept at entity granularity. The marker bit keeps
// them disjoint from class ids.
constexpr uint64_t kEntityLevel = 1ull << 40;

// Flattens a table's class signature from its column-entity index: the
// column count, then per column the (class-or-entity, count) pairs of its
// distinct entities in first-occurrence order (the order the matrix fill
// accumulates in — see TableSignatureIndex), kColumnSeparator-terminated.
// The leading column count disambiguates e.g. a 1-column table from a
// 2-column table whose flattened pair sequences coincide.
void FlattenClassSignature(ColumnIndexView index,
                           std::span<const uint32_t> classes,
                           std::vector<uint64_t>* out) {
  out->clear();
  out->reserve(2 * index.DistinctCount() + index.num_columns + 1);
  out->push_back(static_cast<uint64_t>(index.num_columns));
  for (size_t c = 0; c < index.num_columns; ++c) {
    for (uint32_t s = index.offsets[c]; s < index.offsets[c + 1]; ++s) {
      EntityId e = index.distinct[s];
      uint64_t elem = e < classes.size()
                          ? static_cast<uint64_t>(classes[e])
                          : (kEntityLevel | static_cast<uint64_t>(e));
      out->push_back(elem);
      // Occurrence counts are integral by construction.
      out->push_back(static_cast<uint64_t>(index.counts[s]));
    }
    out->push_back(kColumnSeparator);
  }
}

struct FlatHash {
  size_t operator()(const std::vector<uint64_t>& v) const {
    return static_cast<size_t>(HashU64Vector(v));
  }
};

}  // namespace

TableSignatureIndex BuildTableSignatureIndex(
    const Corpus& corpus, std::vector<uint32_t> entity_classes,
    const CorpusColumnArena* arena, ThreadPool* pool) {
  TableSignatureIndex index;
  index.entity_classes = std::move(entity_classes);
  const std::span<const uint32_t> classes = index.entity_classes.span();
  std::vector<uint32_t> table_signatures;
  table_signatures.reserve(corpus.size());
  std::unordered_map<std::vector<uint64_t>, uint32_t, FlatHash> interned;

  if (pool != nullptr && pool->num_threads() > 1) {
    // Parallel flatten into pre-sized slots (a read-only walk over the
    // arena for covered tables), then serial interning in table-id order —
    // signature ids depend only on that order, never on thread count.
    std::vector<std::vector<uint64_t>> flats(corpus.size());
    pool->ParallelFor(corpus.size(), /*min_chunk=*/8, [&](size_t id) {
      ColumnIndexView view;
      thread_local ColumnEntityIndex column_index;
      thread_local DedupScratch dedup;
      if (arena != nullptr && arena->Covers(static_cast<TableId>(id))) {
        view = arena->ViewOf(static_cast<TableId>(id));
      } else {
        column_index.Build(corpus.table(static_cast<TableId>(id)), dedup);
        view = column_index.View();
      }
      FlattenClassSignature(view, classes, &flats[id]);
    });
    for (TableId id = 0; id < corpus.size(); ++id) {
      uint32_t next = static_cast<uint32_t>(interned.size());
      auto [it, inserted] = interned.emplace(std::move(flats[id]), next);
      table_signatures.push_back(it->second);
    }
    index.table_signatures = std::move(table_signatures);
    index.num_distinct = interned.size();
    return index;
  }

  ColumnEntityIndex column_index;
  DedupScratch dedup;
  std::vector<uint64_t> flat;
  for (TableId id = 0; id < corpus.size(); ++id) {
    ColumnIndexView view;
    if (arena != nullptr && arena->Covers(id)) {
      view = arena->ViewOf(id);
    } else {
      column_index.Build(corpus.table(id), dedup);
      view = column_index.View();
    }
    FlattenClassSignature(view, classes, &flat);
    uint32_t next = static_cast<uint32_t>(interned.size());
    auto [it, inserted] = interned.emplace(flat, next);
    table_signatures.push_back(it->second);
  }
  index.table_signatures = std::move(table_signatures);
  index.num_distinct = interned.size();
  return index;
}

TableSignatureIndex BuildTableSignatureIndexRange(
    std::span<const uint32_t> entity_classes,
    const CorpusColumnArena& shard_arena, TableId begin, TableId end) {
  TableSignatureIndex index;
  index.entity_classes =
      FlatArray<uint32_t>::View(entity_classes.data(), entity_classes.size());
  index.table_base = begin;
  std::vector<uint32_t> table_signatures;
  table_signatures.reserve(end - begin);
  std::unordered_map<std::vector<uint64_t>, uint32_t, FlatHash> interned;
  std::vector<uint64_t> flat;
  for (TableId id = begin; id < end; ++id) {
    // The shard arena is local: corpus table `id` is its table `id - begin`
    // and is always covered (BuildRange indexed exactly this range).
    FlattenClassSignature(shard_arena.ViewOf(id - begin), entity_classes,
                          &flat);
    uint32_t next = static_cast<uint32_t>(interned.size());
    auto [it, inserted] = interned.emplace(flat, next);
    table_signatures.push_back(it->second);
  }
  index.table_signatures = std::move(table_signatures);
  index.num_distinct = interned.size();
  return index;
}

size_t QueryScopedCache::FlatSignatureHash::operator()(
    const std::vector<uint64_t>& v) const {
  return static_cast<size_t>(HashU64Vector(v));
}

size_t QueryScopedCache::MappingKeyHash::operator()(
    const MappingKey& k) const {
  uint64_t h = HashU64(kFnvOffset, k.tuple_and_sig);
  for (uint64_t x : k.identity_fp) h = HashU64(h, x);
  return static_cast<size_t>(h);
}

uint32_t QueryScopedCache::SignatureOf(TableId table_id,
                                       ColumnIndexView index) {
  if (signature_index_ != nullptr && signature_index_->CoversTable(table_id)) {
    return signature_index_
        ->table_signatures[table_id - signature_index_->table_base];
  }
  auto cached = table_signatures_.find(table_id);
  if (cached != table_signatures_.end()) return cached->second;

  // Per-query interning for tables the engine has not signed (late
  // ingestion, or a cache constructed without an index). The high bit
  // keeps these ids disjoint from the precomputed dense ids (a late table
  // never aliases a precomputed signature; the miss only costs a
  // recompute).
  const std::span<const uint32_t> classes =
      signature_index_ != nullptr ? signature_index_->entity_classes.span()
                                  : std::span<const uint32_t>{};
  std::vector<uint64_t> flat;
  FlattenClassSignature(index, classes, &flat);
  uint32_t id = 0x80000000u | static_cast<uint32_t>(signature_ids_.size());
  auto [it, inserted] = signature_ids_.emplace(std::move(flat), id);
  table_signatures_.emplace(table_id, it->second);
  return it->second;
}

const ColumnMapping& QueryScopedCache::MappingFor(
    size_t tuple_index, const std::vector<EntityId>& tuple, const Table& table,
    TableId table_id, const SigmaReader& sigma) {
  mapping_scratch_.index.Build(table, mapping_scratch_.dedup);
  return MappingFor(tuple_index, tuple, table_id,
                    mapping_scratch_.index.View(), sigma);
}

const ColumnMapping& QueryScopedCache::MappingFor(
    size_t tuple_index, const std::vector<EntityId>& tuple, TableId table_id,
    ColumnIndexView index, const SigmaReader& sigma) {
  key_scratch_.tuple_and_sig =
      (static_cast<uint64_t>(tuple_index) << 32) |
      static_cast<uint64_t>(SignatureOf(table_id, index));

  // Identity fingerprint: σ(e, e) = 1 escapes the class abstraction, so
  // every (tuple position, distinct slot) holding a query entity verbatim
  // is part of the key. Only needed when classes actually coarsen —
  // entity-granular signatures already pin identity. Slots are recorded
  // relative to the table's first distinct entity so that keys stay
  // content-stable whether the view comes from the shared arena (absolute
  // pool offsets) or a standalone per-table index.
  std::vector<uint64_t>& fp = key_scratch_.identity_fp;
  fp.clear();
  if (signature_index_ != nullptr &&
      !signature_index_->entity_classes.empty()) {
    const uint32_t table_base = index.DistinctBegin();
    for (uint32_t slot = table_base; slot < index.DistinctEnd(); ++slot) {
      EntityId d = index.distinct[slot];
      for (size_t i = 0; i < tuple.size(); ++i) {
        if (tuple[i] == d) {
          fp.push_back((static_cast<uint64_t>(i) << 40) |
                       static_cast<uint64_t>(slot - table_base));
        }
      }
    }
  }

  auto it = mappings_.find(key_scratch_);
  if (it != mappings_.end()) {
    ++mapping_hits_;
    return it->second;
  }
  ++mapping_misses_;
  // The matrix scratch is reused across tables for the lifetime of the
  // query.
  return mappings_
      .emplace(key_scratch_, MapQueryTupleToColumnsIndexed(
                                 tuple, index, sigma, mapping_scratch_))
      .first->second;
}

}  // namespace thetis
