#ifndef THETIS_CORE_SIGMA_TABLE_H_
#define THETIS_CORE_SIGMA_TABLE_H_

#include <cstdint>
#include <span>
#include <vector>

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

// One query's σ: for each distinct query entity, one row of σ over the
// engine's vocabulary, filled by one base ScoreBatch per entity — so every
// value is bit-identical to the base σ. Read-only once built, so every
// partition of the query (pooled or not), the exact rerank and a fused
// batch's queries share one table. Pairs outside it go to the base σ.
//
// Whether to fill the rows is decided once, up front: only when the query
// will serve each entity at least as many pairs as the vocabulary holds,
// so the fill never costs more than the σ work it replaces (rent-to-buy's
// 2× bound).
class QuerySigmaTable {
 public:
  // Rows for `entities` (ascending, distinct) over `vocab` when
  // `pairs_per_entity` >= vocab->size() > 0, else no rows. With a pool of
  // more than one thread the rows are filled one entity per task. `base`
  // and `vocab` are borrowed and must outlive the table.
  QuerySigmaTable(const EntitySimilarity* base, const SigmaVocabulary* vocab,
                  std::vector<EntityId> entities, size_t pairs_per_entity,
                  ThreadPool* pool = nullptr);

  const EntitySimilarity& base() const { return *base_; }
  const SigmaVocabulary& vocab() const { return *vocab_; }
  // The table's entities, ascending (kept when no rows were filled).
  const std::vector<EntityId>& entities() const { return entities_; }
  bool built() const { return !rows_.empty(); }

  // σ(q, vocabulary) for a table entity `q`, or null when the table has no
  // row for it.
  const double* RowOf(EntityId q) const;

  // Base σ evaluations spent filling the rows.
  size_t fills() const { return rows_.size(); }

 private:
  const EntitySimilarity* base_;
  const SigmaVocabulary* vocab_;
  std::vector<EntityId> entities_;
  // entities_.size() rows of vocab_->size() values; empty when not built.
  std::vector<double> rows_;
};

// One thread's σ source over a QuerySigmaTable: a row gather for pairs the
// table holds, the base σ for the rest. Counts its own traffic, so the
// table itself stays read-only and shareable across threads.
class SigmaReader {
 public:
  explicit SigmaReader(const QuerySigmaTable* table) : table_(table) {}

  // out[k] = σ(q, targets[k]), bit-identical to the base σ.
  void ScoreBatch(EntityId q, const EntityId* targets, size_t count,
                  double* out) const {
    const double* row = table_->RowOf(q);
    if (row == nullptr) {
      table_->base().ScoreBatch(q, targets, count, out);
      return;
    }
    const SigmaVocabulary& vocab = table_->vocab();
    for (size_t k = 0; k < count; ++k) {
      const uint32_t slot = vocab.SlotOf(targets[k]);
      if (slot != SigmaVocabulary::kNoSlot) {
        out[k] = row[slot];
      } else {
        out[k] = table_->base().Score(q, targets[k]);
        ++misses_;
      }
    }
    served_ += count;
  }

  // out[j * count + k] = σ(qs[j], targets[k]), the layout of
  // EntitySimilarity::ScoreBatchMulti; without rows the base's multi-query
  // kernel runs. The rows of `qs` are looked up once and reused while
  // later calls pass the same entity list (a bound context's, for every
  // table of the partition).
  void ScoreBatchMulti(const EntityId* qs, size_t nq, const EntityId* targets,
                       size_t count, double* out) const;

  // Pairs served from a row, and pairs the base σ computed because the
  // table holds their query entity but not their target. A query entity
  // without a row counts in neither.
  size_t hits() const { return served_ - misses_; }
  size_t misses() const { return misses_; }

 private:
  const QuerySigmaTable* table_;
  // Pairs asked of a row-holding entity; misses_ of them went to the base.
  mutable size_t served_ = 0;
  mutable size_t misses_ = 0;
  // Vocabulary slots of one ScoreBatchMulti target list.
  mutable std::vector<uint32_t> slots_;
  // The last ScoreBatchMulti entity list and its rows (null: no row).
  mutable std::vector<EntityId> row_entities_;
  mutable std::vector<const double*> rows_;
};

}  // namespace thetis

#endif  // THETIS_CORE_SIGMA_TABLE_H_
