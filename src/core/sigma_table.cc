#include "core/sigma_table.h"

#include <algorithm>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace thetis {

SigmaVocabulary::SigmaVocabulary(std::span<const EntityId> entities)
    : entities_(entities.begin(), entities.end()) {
  if (entities_.empty()) return;
  slot_of_.assign(static_cast<size_t>(entities_.back()) + 1, kNoSlot);
  for (size_t i = 0; i < entities_.size(); ++i) {
    slot_of_[entities_[i]] = static_cast<uint32_t>(i);
  }
}

QuerySigmaTable::QuerySigmaTable(const EntitySimilarity* base,
                                 const SigmaVocabulary* vocab,
                                 std::vector<EntityId> entities,
                                 size_t pairs_per_entity, ThreadPool* pool)
    : base_(base), vocab_(vocab), entities_(std::move(entities)) {
  THETIS_CHECK(base != nullptr && vocab != nullptr);
  const size_t v = vocab->size();
  if (v == 0 || pairs_per_entity < v || entities_.empty()) return;
  rows_.resize(entities_.size() * v);
  auto fill = [&](size_t i) {
    base_->ScoreBatch(entities_[i], vocab->data(), v, rows_.data() + i * v);
  };
  if (pool != nullptr && pool->num_threads() > 1) {
    pool->ParallelFor(entities_.size(), /*min_chunk=*/1, fill);
  } else {
    for (size_t i = 0; i < entities_.size(); ++i) fill(i);
  }
}

const double* QuerySigmaTable::RowOf(EntityId q) const {
  if (rows_.empty()) return nullptr;
  auto it = std::lower_bound(entities_.begin(), entities_.end(), q);
  if (it == entities_.end() || *it != q) return nullptr;
  return rows_.data() + static_cast<size_t>(it - entities_.begin()) *
                            vocab_->size();
}

void SigmaReader::ScoreBatchMulti(const EntityId* qs, size_t nq,
                                  const EntityId* targets, size_t count,
                                  double* out) const {
  if (!table_->built()) {
    table_->base().ScoreBatchMulti(qs, nq, targets, count, out);
    return;
  }
  if (!std::equal(qs, qs + nq, row_entities_.begin(), row_entities_.end())) {
    row_entities_.assign(qs, qs + nq);
    rows_.resize(nq);
    for (size_t j = 0; j < nq; ++j) rows_[j] = table_->RowOf(qs[j]);
  }
  // One slot lookup per target serves every query entity's gather.
  const SigmaVocabulary& vocab = table_->vocab();
  slots_.resize(count);
  for (size_t k = 0; k < count; ++k) slots_[k] = vocab.SlotOf(targets[k]);
  for (size_t j = 0; j < nq; ++j) {
    const double* row = rows_[j];
    double* o = out + j * count;
    if (row == nullptr) {
      table_->base().ScoreBatch(qs[j], targets, count, o);
      continue;
    }
    for (size_t k = 0; k < count; ++k) {
      if (slots_[k] != SigmaVocabulary::kNoSlot) {
        o[k] = row[slots_[k]];
      } else {
        o[k] = table_->base().Score(qs[j], targets[k]);
        ++misses_;
      }
    }
    served_ += count;
  }
}

}  // namespace thetis
