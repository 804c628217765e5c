#ifndef THETIS_CORE_SIGMA_TABLE_H_
#define THETIS_CORE_SIGMA_TABLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/column_mapping.h"
#include "core/similarity.h"

namespace thetis {

class ThreadPool;

// The lake vocabulary of a search engine: the distinct entities its tables
// mention when it is built, and a dense KG-id → slot map over them. The
// engine derives it at construction (and again when restored from a
// snapshot); it is not persisted.
class SigmaVocabulary {
 public:
  static constexpr uint32_t kNoSlot = ~0u;

  SigmaVocabulary() = default;
  // `entities` must be ascending and distinct (SemanticDataLake's
  // MentionedEntities()).
  explicit SigmaVocabulary(std::span<const EntityId> entities);

  size_t size() const { return entities_.size(); }
  const EntityId* data() const { return entities_.data(); }

  // Slot of `e` in [0, size()), or kNoSlot when the lake did not mention
  // `e` at build (e.g. an entity only a late-ingested table holds).
  uint32_t SlotOf(EntityId e) const {
    return e < slot_of_.size() ? slot_of_[e] : kNoSlot;
  }

 private:
  std::vector<EntityId> entities_;
  std::vector<uint32_t> slot_of_;
};

// One query's σ over the engine's vocabulary, stored slot-major: for each
// vocabulary slot, the σ of every table entity against it, contiguous —
// cols[slot * E + i] = σ(entities[i], vocabulary[slot]) for the table's E
// entities. Filled by base ScoreBatch calls, so every value is
// bit-identical to the base σ. Read-only once built, so every partition of
// the query (pooled or not), the exact rerank and a fused batch's queries
// share one table. Pairs outside it go to the base σ.
//
// Whether to fill the table is decided once, up front: only when the query
// will serve each entity at least as many pairs as the vocabulary holds,
// so the fill never costs more than the σ work it replaces (rent-to-buy's
// 2× bound).
class QuerySigmaTable {
 public:
  // σ of `entities` (ascending, distinct) over `vocab` when
  // `pairs_per_entity` >= vocab->size() > 0, else no values. With a pool
  // of more than one thread the fill runs one block of vocabulary slots
  // per task. `base` and `vocab` are borrowed and must outlive the table.
  QuerySigmaTable(const EntitySimilarity* base, const SigmaVocabulary* vocab,
                  std::vector<EntityId> entities, size_t pairs_per_entity,
                  ThreadPool* pool = nullptr);

  const EntitySimilarity& base() const { return *base_; }
  const SigmaVocabulary& vocab() const { return *vocab_; }
  // The table's entities, ascending (kept when no values were filled).
  const std::vector<EntityId>& entities() const { return entities_; }
  bool built() const { return !cols_.empty(); }

  // σ(q, vocabulary) for a table entity `q` as a strided row:
  // σ(q, vocabulary[s]) is at row[s * entities().size()]. Null when the
  // table holds no values for `q`.
  const double* RowOf(EntityId q) const;

  // σ(entities()[i], vocabulary[slot]) at [i], for a built table.
  const double* Slot(uint32_t slot) const {
    return cols_.data() + static_cast<size_t>(slot) * entities_.size();
  }

  // Base σ evaluations spent filling the table.
  size_t fills() const { return cols_.size(); }

 private:
  const EntitySimilarity* base_;
  const SigmaVocabulary* vocab_;
  std::vector<EntityId> entities_;
  // vocab_->size() blocks of entities_.size() values; empty when not
  // built.
  std::vector<double> cols_;
};

// One thread's σ source over a QuerySigmaTable: a table read for pairs the
// table holds, the base σ for the rest. Counts its own traffic, so the
// table itself stays read-only and shareable across threads.
class SigmaReader {
 public:
  explicit SigmaReader(const QuerySigmaTable* table) : table_(table) {}

  bool built() const { return table_->built(); }

  // out[k] = σ(q, targets[k]), bit-identical to the base σ.
  void ScoreBatch(EntityId q, const EntityId* targets, size_t count,
                  double* out) const {
    ScoreRow(q, RowOf(q), targets, count, out);
  }

  // The table's strided row for `q` (null when it holds none). A caller
  // that scores `q` against several target lists resolves the row once and
  // passes it to ScoreRow.
  const double* RowOf(EntityId q) const { return table_->RowOf(q); }

  // ScoreBatch with `row` == RowOf(q) already resolved.
  void ScoreRow(EntityId q, const double* row, const EntityId* targets,
                size_t count, double* out) const {
    if (row == nullptr) {
      table_->base().ScoreBatch(q, targets, count, out);
      return;
    }
    const SigmaVocabulary& vocab = table_->vocab();
    const size_t stride = table_->entities().size();
    for (size_t k = 0; k < count; ++k) {
      const uint32_t slot = vocab.SlotOf(targets[k]);
      if (slot != SigmaVocabulary::kNoSlot) {
        out[k] = row[static_cast<size_t>(slot) * stride];
      } else {
        out[k] = table_->base().Score(q, targets[k]);
        ++misses_;
      }
    }
    served_ += count;
  }

  // The bound's per-(entity, column) maxima for every one of the E table
  // entities against one table's columns, from a built table:
  //   out[c * E + i] = max(0, max over column c's distinct entities d
  //                           of σ(entities()[i], d)).
  // Each column starts an E-wide accumulator at 0 and takes an
  // element-wise max with each of its entities' contiguous slot values
  // (the base σ for a target outside the vocabulary, counted as E misses),
  // in the column's order: every maximum is the segmented max of the base
  // σ values, bit for bit. Counts E × (the view's distinct count) pairs.
  void ColumnMaxima(ColumnIndexView view, double* out) const;

  // Pairs served from the table, and pairs the base σ computed because the
  // table holds their query entity but not their target. A query entity
  // without values counts in neither.
  size_t hits() const { return served_ - misses_; }
  size_t misses() const { return misses_; }

 private:
  const QuerySigmaTable* table_;
  // Pairs asked of a table-held entity; misses_ of them went to the base.
  mutable size_t served_ = 0;
  mutable size_t misses_ = 0;
};

// One query tuple's σ for the column loops of the mapping fill and the row
// aggregation (the ScoreFn of MapQueryTupleToColumnsIndexed): each
// position's row is resolved once when the tuple is bound to a table, not
// once per column.
class TupleSigma {
 public:
  // `rows` is caller-owned scratch, overwritten here.
  TupleSigma(const SigmaReader& reader, const std::vector<EntityId>& tuple,
             std::vector<const double*>* rows)
      : reader_(reader), tuple_(tuple), rows_(rows) {
    rows->resize(tuple.size());
    for (size_t i = 0; i < tuple.size(); ++i) {
      (*rows)[i] = tuple[i] == kNoEntity ? nullptr : reader.RowOf(tuple[i]);
    }
  }

  // out[d] = σ(tuple[i], targets[d]).
  void operator()(size_t i, const EntityId* targets, size_t count,
                  double* out) const {
    reader_.ScoreRow(tuple_[i], (*rows_)[i], targets, count, out);
  }

 private:
  const SigmaReader& reader_;
  const std::vector<EntityId>& tuple_;
  const std::vector<const double*>* rows_;
};

}  // namespace thetis

#endif  // THETIS_CORE_SIGMA_TABLE_H_
