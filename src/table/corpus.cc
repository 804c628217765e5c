#include "table/corpus.h"

#include <atomic>
#include <unordered_set>

namespace thetis {

Result<TableId> Corpus::AddTable(Table table) {
  if (table.name().empty()) {
    return Status::InvalidArgument("table must have a name");
  }
  auto [it, inserted] =
      by_name_.emplace(table.name(), static_cast<TableId>(tables_.size()));
  if (!inserted) {
    return Status::AlreadyExists("table name '" + table.name() +
                                 "' already in corpus");
  }
  tables_.push_back(std::make_shared<Table>(std::move(table)));
  return it->second;
}

Corpus Corpus::Clone() const {
  Corpus copy;
  copy.tables_ = tables_;
  copy.by_name_ = by_name_;
  return copy;
}

Table* Corpus::mutable_table(TableId id) {
  std::shared_ptr<Table>& table = tables_[id];
  if (table.use_count() > 1) {
    table = std::make_shared<Table>(*table);
  } else {
    // The last other holder may have let go on another thread: order its
    // reads of the table before this caller's writes.
    std::atomic_thread_fence(std::memory_order_acquire);
  }
  return table.get();
}

Result<TableId> Corpus::FindByName(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) {
    return Status::NotFound("no table named '" + name + "'");
  }
  return it->second;
}

CorpusStats Corpus::ComputeStats() const {
  CorpusStats stats;
  stats.num_tables = tables_.size();
  if (tables_.empty()) return stats;
  double rows = 0.0;
  double cols = 0.0;
  double cov = 0.0;
  std::unordered_set<EntityId> entities;
  for (const auto& table : tables_) {
    const Table& t = *table;
    rows += static_cast<double>(t.num_rows());
    cols += static_cast<double>(t.num_columns());
    cov += t.LinkCoverage();
    stats.total_cells += t.num_rows() * t.num_columns();
    for (EntityId e : t.DistinctEntities()) entities.insert(e);
  }
  double n = static_cast<double>(tables_.size());
  stats.mean_rows = rows / n;
  stats.mean_columns = cols / n;
  stats.mean_link_coverage = cov / n;
  stats.distinct_entities = entities.size();
  return stats;
}

}  // namespace thetis
