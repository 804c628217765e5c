#ifndef THETIS_TABLE_CORPUS_H_
#define THETIS_TABLE_CORPUS_H_

#include <cstddef>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "table/table.h"
#include "util/status.h"

namespace thetis {

// Aggregate corpus statistics (the columns of the paper's Table 2).
struct CorpusStats {
  size_t num_tables = 0;
  double mean_rows = 0.0;
  double mean_columns = 0.0;
  double mean_link_coverage = 0.0;
  size_t total_cells = 0;
  size_t distinct_entities = 0;
};

// The data lake D = {T1, ..., Tn}: an append-only collection of tables with
// stable TableIds and name lookup.
//
// Each table is held behind a shared pointer, so corpora made by Clone()
// share their tables until one of them writes: mutable_table() first
// copies a table that another corpus still holds (copy-on-write). Every
// corpus therefore behaves as a deep copy of the others. As for any
// container, writes to one corpus (AddTable, mutable_table) must not race
// reads or a Clone() of that same corpus; corpora that share tables may be
// read, written and destroyed on different threads.
class Corpus {
 public:
  Corpus() = default;

  // Copies are deliberate (Clone below), so the corpus is move-only.
  Corpus(const Corpus&) = delete;
  Corpus& operator=(const Corpus&) = delete;
  Corpus(Corpus&&) = default;
  Corpus& operator=(Corpus&&) = default;

  // Adds a table; its name must be unique within the corpus.
  Result<TableId> AddTable(Table table);

  // A copy with identical TableIds that shares every table with this
  // corpus: O(tables) pointer copies plus the name map, no cells. Writes to
  // either corpus afterwards stay private to it (see mutable_table). The
  // serving runtime clones the writer's master corpus once per published
  // epoch, so this is a named operation rather than a copy constructor.
  Corpus Clone() const;

  size_t size() const { return tables_.size(); }
  const Table& table(TableId id) const { return *tables_[id]; }
  // The table for writing. When another corpus shares it, it is copied
  // first, so the write is seen by this corpus only. Write through the
  // pointer before this corpus is next cloned: a clone shares the table.
  Table* mutable_table(TableId id);

  Result<TableId> FindByName(const std::string& name) const;

  CorpusStats ComputeStats() const;

 private:
  std::vector<std::shared_ptr<Table>> tables_;
  std::unordered_map<std::string, TableId> by_name_;
};

}  // namespace thetis

#endif  // THETIS_TABLE_CORPUS_H_
