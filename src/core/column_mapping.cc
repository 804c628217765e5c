#include "core/column_mapping.h"

namespace thetis {

ColumnMapping MapQueryTupleToColumns(const std::vector<EntityId>& query_tuple,
                                     const Table& table,
                                     const EntitySimilarity& sim) {
  MappingScratch scratch;
  scratch.index.Build(table, scratch.dedup);
  return MapQueryTupleToColumnsIndexed(
      query_tuple, scratch.index.View(),
      [&](size_t i, const EntityId* targets, size_t count, double* out) {
        sim.ScoreBatch(query_tuple[i], targets, count, out);
      },
      scratch);
}

}  // namespace thetis
