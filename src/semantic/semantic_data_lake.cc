#include "semantic/semantic_data_lake.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace thetis {

const std::vector<TableId> SemanticDataLake::kEmptyTables;

SemanticDataLake::SemanticDataLake(const Corpus* corpus,
                                   const KnowledgeGraph* kg)
    : corpus_(corpus), kg_(kg) {
  THETIS_CHECK(corpus != nullptr && kg != nullptr);
  IngestNewTables();
}

size_t SemanticDataLake::IngestNewTables() {
  const size_t first = indexed_tables_;
  const Taxonomy& taxonomy = kg_->taxonomy();
  if (type_table_counts_.size() < taxonomy.size()) {
    type_table_counts_.resize(taxonomy.size(), 0);
  }
  // Per-call scratch, sized by the new tables and the taxonomy only: one
  // table's linked cells, and the last table (plus one) each type was
  // counted for.
  std::vector<EntityId> entities;
  std::vector<TableId> type_stamp(taxonomy.size(), 0);
  std::vector<EntityId> new_entities;
  for (TableId id = static_cast<TableId>(first); id < corpus_->size(); ++id) {
    const Table& t = corpus_->table(id);
    entities.clear();
    for (size_t r = 0; r < t.num_rows(); ++r) {
      for (EntityId e : t.row_links(r)) {
        if (e != kNoEntity) entities.push_back(e);
      }
    }
    std::sort(entities.begin(), entities.end());
    entities.erase(std::unique(entities.begin(), entities.end()),
                   entities.end());
    const TableId stamp = id + 1;
    for (EntityId e : entities) {
      auto [it, inserted] = entity_tables_.try_emplace(e);
      it->second.push_back(id);
      if (inserted) new_entities.push_back(e);
      // Count each type of e's ancestor-closed type set once per table.
      // A type already stamped for this table has its whole ancestor path
      // stamped too, so each walk stops at the first stamped type.
      for (TypeId ty : kg_->DirectTypes(e)) {
        for (; ty != kNoType && type_stamp[ty] != stamp;
             ty = taxonomy.parent(ty)) {
          type_stamp[ty] = stamp;
          ++type_table_counts_[ty];
        }
      }
    }
  }
  indexed_tables_ = corpus_->size();
  std::sort(new_entities.begin(), new_entities.end());
  const size_t old_size = mentioned_entities_.size();
  mentioned_entities_.insert(mentioned_entities_.end(), new_entities.begin(),
                             new_entities.end());
  std::inplace_merge(mentioned_entities_.begin(),
                     mentioned_entities_.begin() + old_size,
                     mentioned_entities_.end());
  return indexed_tables_ - first;
}

const std::vector<TableId>& SemanticDataLake::TablesWithEntity(
    EntityId e) const {
  auto it = entity_tables_.find(e);
  return it == entity_tables_.end() ? kEmptyTables : it->second;
}

size_t SemanticDataLake::TableFrequency(EntityId e) const {
  return TablesWithEntity(e).size();
}

double SemanticDataLake::Informativeness(EntityId e) const {
  size_t n = corpus_->size();
  if (n == 0) return 1.0;
  size_t tf = TableFrequency(e);
  if (tf == 0) return 1.0;
  // Normalize by log(1 + 2N) so that even tf == 1 stays strictly below the
  // unseen-entity weight of 1.
  double num = std::log(1.0 + static_cast<double>(n) / static_cast<double>(tf));
  double den = std::log(1.0 + 2.0 * static_cast<double>(n));
  return den <= 0.0 ? 1.0 : num / den;
}

double SemanticDataLake::TypeTableFraction(TypeId t) const {
  if (corpus_->size() == 0) return 0.0;
  size_t count = t < type_table_counts_.size() ? type_table_counts_[t] : 0;
  return static_cast<double>(count) / static_cast<double>(corpus_->size());
}

}  // namespace thetis
