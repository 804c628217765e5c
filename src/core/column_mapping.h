#ifndef THETIS_CORE_COLUMN_MAPPING_H_
#define THETIS_CORE_COLUMN_MAPPING_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "assignment/hungarian.h"
#include "core/similarity.h"
#include "table/table.h"

namespace thetis {

// The query-tuple → table-column mapping τ of Section 5.1: each query
// entity is assigned to a distinct table column so that the summed
// column-relevance score Σ_i score(e_i, τ(e_i)) is maximal, where
// score(e, C) = Σ_{ē ∈ C} σ(e, ē) over the column's linked entities.
struct ColumnMapping {
  // column_of_entity[i] is the column assigned to query entity i, or -1 when
  // no column carries any positive similarity for it (or there are fewer
  // columns than query entities).
  std::vector<int> column_of_entity;
  // The maximized cumulative score.
  double total_score = 0.0;
};

// Computes τ for one query tuple against one table via the Hungarian
// method. Columns with zero cumulative similarity are never assigned
// (mapping stays -1 for entities whose best column scores 0), matching the
// σ > 0 requirement on relevant mappings.
//
// Caller-owned workspace for MapQueryTupleToColumnsScratch: the k x n
// column-relevance matrix plus the Hungarian solver's internal vectors.
// Fully overwritten on every call; reusing one instance across tables
// avoids a per-(tuple, table) allocation storm on large lakes.
// Epoch-stamped membership table for O(1)-per-cell column dedup. `stamp`
// and `slot` are indexed by entity id (grown on demand); an entity is "in
// the current column" iff its stamp equals the current epoch, so clearing
// between columns is a single epoch increment, not a table wipe.
struct DedupScratch {
  std::vector<uint32_t> stamp;
  std::vector<uint32_t> slot;
  uint32_t epoch = 0;
};

// Non-owning view of one table's dedup'd columns inside a (possibly
// shared) CSR layout. `offsets` points at this table's num_columns + 1
// offset entries; the offsets are ABSOLUTE positions into the backing
// `distinct`/`counts` pools, so a view works equally over a standalone
// per-table ColumnEntityIndex (offsets start at 0) and over a slice of
// the corpus-wide arena (offsets start wherever the table's data lives).
// A table's full distinct-entity union is the contiguous pool range
// [DistinctBegin(), DistinctEnd()) — one batched σ pass covers it.
struct ColumnIndexView {
  const uint32_t* offsets = nullptr;   // num_columns + 1 entries
  const EntityId* distinct = nullptr;  // pool base, NOT table base
  const double* counts = nullptr;      // pool base, NOT table base
  size_t num_columns = 0;

  size_t ColumnSize(size_t c) const { return offsets[c + 1] - offsets[c]; }
  const EntityId* ColumnDistinct(size_t c) const {
    return distinct + offsets[c];
  }
  const double* ColumnCounts(size_t c) const { return counts + offsets[c]; }
  uint32_t DistinctBegin() const { return offsets[0]; }
  uint32_t DistinctEnd() const { return offsets[num_columns]; }
  size_t DistinctCount() const { return DistinctEnd() - DistinctBegin(); }
};

// Appends one table's dedup'd columns to a CSR layout: pushes the leading
// offset (current pool size) followed by one end offset per column, and
// the column's distinct entities (first-occurrence order) with
// multiplicities into the parallel pools. Shared by the per-table
// ColumnEntityIndex::Build (pools start empty, offsets start at 0) and
// the corpus-wide arena build (pools accumulate across tables), so both
// produce bit-identical per-table content.
inline void AppendTableColumns(const Table& table, DedupScratch& dedup,
                               std::vector<uint32_t>* offsets,
                               std::vector<EntityId>* distinct,
                               std::vector<double>* counts) {
  offsets->push_back(static_cast<uint32_t>(distinct->size()));
  for (size_t c = 0; c < table.num_columns(); ++c) {
    ++dedup.epoch;
    if (dedup.epoch == 0) {  // epoch wrapped: invalidate all stamps
      std::fill(dedup.stamp.begin(), dedup.stamp.end(), 0u);
      dedup.epoch = 1;
    }
    uint32_t base = offsets->back();
    for (size_t r = 0; r < table.num_rows(); ++r) {
      EntityId e = table.link(r, c);
      if (e == kNoEntity) continue;
      if (e >= dedup.stamp.size()) {
        dedup.stamp.resize(static_cast<size_t>(e) + 1, 0u);
        dedup.slot.resize(static_cast<size_t>(e) + 1, 0u);
      }
      if (dedup.stamp[e] != dedup.epoch) {
        dedup.stamp[e] = dedup.epoch;
        dedup.slot[e] = static_cast<uint32_t>(distinct->size() - base);
        distinct->push_back(e);
        counts->push_back(1.0);
      } else {
        (*counts)[base + dedup.slot[e]] += 1.0;
      }
    }
    offsets->push_back(static_cast<uint32_t>(distinct->size()));
  }
}

// A table's linked columns collapsed to distinct entities with
// multiplicities, CSR-flattened (offsets + parallel distinct/counts pools).
// Built once per (query, table) and shared by the mapping matrix fill and
// the per-row aggregation — both only need "which distinct entities does
// column c hold, how often" since σ is pure; gathering and dedup'ing cells
// once instead of once per tuple (and again per mapped entity) keeps the
// non-σ overhead flat in the tuple count. Tables covered by the engine's
// CorpusColumnArena never build one of these at query time; this remains
// the fallback for tables added to the corpus after engine construction.
struct ColumnEntityIndex {
  std::vector<uint32_t> offsets;   // num_columns + 1
  std::vector<EntityId> distinct;  // first-occurrence order within a column
  std::vector<double> counts;
  size_t num_columns = 0;

  void Build(const Table& table, DedupScratch& dedup) {
    num_columns = table.num_columns();
    offsets.clear();
    distinct.clear();
    counts.clear();
    AppendTableColumns(table, dedup, &offsets, &distinct, &counts);
  }

  ColumnIndexView View() const {
    return ColumnIndexView{offsets.data(), distinct.data(), counts.data(),
                           num_columns};
  }

  size_t ColumnSize(size_t c) const { return offsets[c + 1] - offsets[c]; }
};

struct MappingScratch {
  std::vector<std::vector<double>> scores;
  HungarianScratch hungarian;
  // Batched σ scores of one column's distinct list against one query
  // entity, and the dedup table + index used by MapQueryTupleToColumns,
  // which builds a ColumnEntityIndex on the fly.
  std::vector<double> cell_scores;
  DedupScratch dedup;
  ColumnEntityIndex index;
};

// Templated over the σ source: `score(i, targets, count, out)` writes
// out[d] = σ(query_tuple[i], targets[d]) for a linked query entity i.
// Passing a concrete source (e.g. a SigmaReader with each entity's row
// resolved once per table) inlines the σ batch call in the innermost
// matrix loop, which dominates the per-table cost once σ itself is cached.
// Consumes a prebuilt column-entity view so multi-tuple queries (and the
// row aggregation) share one gather+dedup pass per table.
template <typename ScoreFn>
ColumnMapping MapQueryTupleToColumnsIndexed(
    const std::vector<EntityId>& query_tuple, ColumnIndexView index,
    const ScoreFn& score, MappingScratch& scratch) {
  std::vector<std::vector<double>>& scores = scratch.scores;
  ColumnMapping mapping;
  size_t k = query_tuple.size();
  size_t n = index.num_columns;
  mapping.column_of_entity.assign(k, -1);
  if (k == 0 || n == 0) return mapping;

  // Column-relevance score matrix S (Section 5.1), filled column by
  // column from the index's distinct entities with multiplicities: the
  // column sum Σ_ē σ(e, ē) is Σ_d count_d · σ(e, d) since σ is pure, so
  // this computes the same mathematical sum as the cell-at-a-time walk
  // while evaluating each repeated entity once. Accumulation order
  // (first-occurrence order) is fixed, so the fill is deterministic and
  // identical across the cached/uncached and serial/parallel paths.
  scores.resize(k);
  for (auto& row : scores) row.assign(n, 0.0);
  std::vector<double>& cell_scores = scratch.cell_scores;
  for (size_t c = 0; c < n; ++c) {
    size_t count = index.ColumnSize(c);
    if (count == 0) continue;
    const EntityId* distinct = index.ColumnDistinct(c);
    const double* counts = index.ColumnCounts(c);
    cell_scores.resize(count);
    for (size_t i = 0; i < k; ++i) {
      if (query_tuple[i] == kNoEntity) continue;
      score(i, distinct, count, cell_scores.data());
      double acc = 0.0;
      for (size_t d = 0; d < count; ++d) {
        acc += counts[d] * cell_scores[d];
      }
      scores[i][c] = acc;
    }
  }

  AssignmentResult assignment = SolveMaxAssignment(scores, scratch.hungarian);
  for (size_t i = 0; i < k; ++i) {
    int c = assignment.column_of_row[i];
    if (c >= 0 && scores[i][static_cast<size_t>(c)] > 0.0) {
      mapping.column_of_entity[i] = c;
      mapping.total_score += scores[i][static_cast<size_t>(c)];
    }
  }
  return mapping;
}

// Type-erased entry point (virtual σ dispatch per column), building the
// table's column-entity index on the fly.
ColumnMapping MapQueryTupleToColumns(const std::vector<EntityId>& query_tuple,
                                     const Table& table,
                                     const EntitySimilarity& sim);

}  // namespace thetis

#endif  // THETIS_CORE_COLUMN_MAPPING_H_
