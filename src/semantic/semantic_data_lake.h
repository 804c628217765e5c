#ifndef THETIS_SEMANTIC_SEMANTIC_DATA_LAKE_H_
#define THETIS_SEMANTIC_SEMANTIC_DATA_LAKE_H_

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "kg/knowledge_graph.h"
#include "table/corpus.h"

namespace thetis {

// The semantic data lake <D, G, Φ> of Definition 2.1, with the derived
// inverted structures the search layer needs:
//
//  * Φ⁻¹ as entity → table postings (which tables mention entity e);
//  * entity table frequencies, feeding the informativeness weights I(e)
//    used in the weighted Euclidean distance (Eq. 2);
//  * per-type table fractions, used by the LSEI to drop uninformative types
//    that appear in more than half the corpus (Section 6.1).
//
// The corpus and graph are borrowed and must outlive this object. Links on
// already-indexed tables must not change (rebuild instead), but new tables
// may be appended to the corpus at any time and picked up with
// IngestNewTables() — the dynamic-lake workflow the paper motivates
// ("a data lake should allow effortless addition of new datasets").
class SemanticDataLake {
 public:
  SemanticDataLake(const Corpus* corpus, const KnowledgeGraph* kg);

  // Indexes tables appended to the corpus since construction (or the last
  // ingest): postings, frequencies and type statistics are updated in
  // place. Returns the number of newly indexed tables.
  size_t IngestNewTables();

  const Corpus& corpus() const { return *corpus_; }
  const KnowledgeGraph& kg() const { return *kg_; }

  // Tables mentioning entity `e`, ascending by id; empty for unseen entities.
  const std::vector<TableId>& TablesWithEntity(EntityId e) const;

  // Number of distinct tables mentioning `e`.
  size_t TableFrequency(EntityId e) const;

  // Informativeness I(e) ∈ [0, 1]: entities mentioned in few tables are more
  // discriminative. Computed as log(1 + N/tf) / log(1 + 2N) with N the
  // corpus size and tf the entity's table frequency, so the weight strictly
  // decreases with frequency; entities absent from the corpus get 1.
  double Informativeness(EntityId e) const;

  // Fraction of corpus tables containing at least one entity whose expanded
  // type set includes `t`.
  double TypeTableFraction(TypeId t) const;

  // Distinct entities mentioned anywhere in the corpus, ascending.
  const std::vector<EntityId>& MentionedEntities() const {
    return mentioned_entities_;
  }

 private:
  const Corpus* corpus_;
  const KnowledgeGraph* kg_;
  size_t indexed_tables_ = 0;
  std::unordered_map<EntityId, std::vector<TableId>> entity_tables_;
  std::vector<EntityId> mentioned_entities_;
  // Tables counted per type, indexed by TypeId (taxonomy-sized).
  std::vector<size_t> type_table_counts_;
  static const std::vector<TableId> kEmptyTables;
};

}  // namespace thetis

#endif  // THETIS_SEMANTIC_SEMANTIC_DATA_LAKE_H_
