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

namespace {

// Vocabulary slots per fill block: one entity's σ over a block fits a small
// stack buffer, and each block is one contiguous run of the table, so
// pooled tasks write disjoint memory.
constexpr size_t kFillBlock = 512;

}  // namespace

QuerySigmaTable::QuerySigmaTable(const EntitySimilarity* base,
                                 const SigmaVocabulary* vocab,
                                 std::vector<EntityId> entities,
                                 size_t pairs_per_entity, ThreadPool* pool)
    : base_(base), vocab_(vocab), entities_(std::move(entities)) {
  THETIS_CHECK(base != nullptr && vocab != nullptr);
  const size_t v = vocab->size();
  const size_t e = entities_.size();
  if (v == 0 || pairs_per_entity < v || e == 0) return;
  cols_.resize(v * e);
  // Per entity, one base ScoreBatch over the block's slots, scattered into
  // the entity's lane of each slot.
  auto fill = [&](size_t block) {
    const size_t begin = block * kFillBlock;
    const size_t count = std::min(kFillBlock, v - begin);
    double sigma[kFillBlock];
    for (size_t i = 0; i < e; ++i) {
      base_->ScoreBatch(entities_[i], vocab->data() + begin, count, sigma);
      double* lane = cols_.data() + begin * e + i;
      for (size_t k = 0; k < count; ++k) lane[k * e] = sigma[k];
    }
  };
  const size_t blocks = (v + kFillBlock - 1) / kFillBlock;
  if (pool != nullptr && pool->num_threads() > 1) {
    pool->ParallelFor(blocks, /*min_chunk=*/1, fill);
  } else {
    for (size_t b = 0; b < blocks; ++b) fill(b);
  }
}

const double* QuerySigmaTable::RowOf(EntityId q) const {
  if (cols_.empty()) return nullptr;
  auto it = std::lower_bound(entities_.begin(), entities_.end(), q);
  if (it == entities_.end() || *it != q) return nullptr;
  return cols_.data() + (it - entities_.begin());
}

void SigmaReader::ColumnMaxima(ColumnIndexView view, double* out) const {
  const std::vector<EntityId>& entities = table_->entities();
  const size_t e = entities.size();
  const SigmaVocabulary& vocab = table_->vocab();
  for (size_t c = 0; c < view.num_columns; ++c) {
    double* acc = out + c * e;
    std::fill(acc, acc + e, 0.0);
    for (uint32_t d = view.offsets[c]; d < view.offsets[c + 1]; ++d) {
      const EntityId target = view.distinct[d];
      const uint32_t slot = vocab.SlotOf(target);
      if (slot != SigmaVocabulary::kNoSlot) {
        const double* sigma = table_->Slot(slot);
        for (size_t i = 0; i < e; ++i) acc[i] = std::max(acc[i], sigma[i]);
      } else {
        for (size_t i = 0; i < e; ++i) {
          acc[i] = std::max(acc[i], table_->base().Score(entities[i], target));
        }
        misses_ += e;
      }
    }
  }
  served_ += e * view.DistinctCount();
}

}  // namespace thetis
