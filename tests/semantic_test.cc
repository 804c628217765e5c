#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "benchgen/benchmark_factory.h"
#include "kg/knowledge_graph.h"
#include "semantic/semantic_data_lake.h"
#include "table/corpus.h"

namespace thetis {
namespace {

struct Fixture {
  KnowledgeGraph kg;
  Corpus corpus;

  Fixture() {
    Taxonomy* tax = kg.mutable_taxonomy();
    TypeId thing = tax->AddType("Thing").value();
    TypeId common = tax->AddType("Common", thing).value();
    TypeId rare = tax->AddType("Rare", thing).value();

    // e0 appears in every table, e1 in one, e2 never.
    EntityId e0 = kg.AddEntity("everywhere").value();
    EntityId e1 = kg.AddEntity("once").value();
    kg.AddEntity("never").value();
    EXPECT_TRUE(kg.AddEntityType(e0, common).ok());
    EXPECT_TRUE(kg.AddEntityType(e1, rare).ok());

    for (int i = 0; i < 4; ++i) {
      Table t("t" + std::to_string(i), {"c"});
      std::vector<EntityId> links = {e0};
      if (i == 0) {
        EXPECT_TRUE(t.AppendRow({Value::String("once")}, {e1}).ok());
      }
      EXPECT_TRUE(t.AppendRow({Value::String("everywhere")}, links).ok());
      EXPECT_TRUE(corpus.AddTable(std::move(t)).ok());
    }
  }
};

TEST(SemanticDataLakeTest, EntityPostings) {
  Fixture f;
  SemanticDataLake lake(&f.corpus, &f.kg);
  EXPECT_EQ(lake.TablesWithEntity(0).size(), 4u);
  EXPECT_EQ(lake.TablesWithEntity(1), (std::vector<TableId>{0}));
  EXPECT_TRUE(lake.TablesWithEntity(2).empty());
  EXPECT_EQ(lake.TableFrequency(0), 4u);
}

TEST(SemanticDataLakeTest, MentionedEntitiesSorted) {
  Fixture f;
  SemanticDataLake lake(&f.corpus, &f.kg);
  EXPECT_EQ(lake.MentionedEntities(), (std::vector<EntityId>{0, 1}));
}

TEST(SemanticDataLakeTest, InformativenessOrdering) {
  Fixture f;
  SemanticDataLake lake(&f.corpus, &f.kg);
  double freq = lake.Informativeness(0);  // in all 4 tables
  double rare = lake.Informativeness(1);  // in 1 table
  double unseen = lake.Informativeness(2);
  EXPECT_LT(freq, rare);
  EXPECT_LT(rare, unseen);
  EXPECT_DOUBLE_EQ(unseen, 1.0);
  EXPECT_GT(freq, 0.0);
}

TEST(SemanticDataLakeTest, InformativenessInUnitInterval) {
  Fixture f;
  SemanticDataLake lake(&f.corpus, &f.kg);
  for (EntityId e = 0; e < f.kg.num_entities(); ++e) {
    double i = lake.Informativeness(e);
    EXPECT_GE(i, 0.0);
    EXPECT_LE(i, 1.0);
  }
}

TEST(SemanticDataLakeTest, TypeTableFractions) {
  Fixture f;
  SemanticDataLake lake(&f.corpus, &f.kg);
  TypeId thing = f.kg.taxonomy().FindByLabel("Thing").value();
  TypeId common = f.kg.taxonomy().FindByLabel("Common").value();
  TypeId rare = f.kg.taxonomy().FindByLabel("Rare").value();
  // "Thing" is an ancestor of both entities' types -> in all tables.
  EXPECT_DOUBLE_EQ(lake.TypeTableFraction(thing), 1.0);
  EXPECT_DOUBLE_EQ(lake.TypeTableFraction(common), 1.0);
  EXPECT_DOUBLE_EQ(lake.TypeTableFraction(rare), 0.25);
}

TEST(SemanticDataLakeTest, EmptyCorpus) {
  KnowledgeGraph kg;
  kg.AddEntity("x").value();
  Corpus corpus;
  SemanticDataLake lake(&corpus, &kg);
  EXPECT_TRUE(lake.MentionedEntities().empty());
  EXPECT_DOUBLE_EQ(lake.Informativeness(0), 1.0);
  EXPECT_DOUBLE_EQ(lake.TypeTableFraction(0), 0.0);
}

// The lake index as it was built per (table, entity) pair before the
// one-pass ingest: a hash set of each table's distinct entities, each
// entity's type set expanded through a hash set, and a hash set of the
// table's types. Kept as the reference the one-pass build must match.
struct ReferenceLake {
  std::unordered_map<EntityId, std::vector<TableId>> entity_tables;
  std::unordered_map<TypeId, size_t> type_tables;
  std::vector<EntityId> mentioned;

  ReferenceLake(const Corpus& corpus, const KnowledgeGraph& kg) {
    for (TableId id = 0; id < corpus.size(); ++id) {
      std::unordered_set<TypeId> table_types;
      for (EntityId e : corpus.table(id).DistinctEntities()) {
        entity_tables[e].push_back(id);
        for (TypeId t : kg.DirectTypes(e)) {
          for (TypeId a : kg.taxonomy().SelfAndAncestors(t)) {
            table_types.insert(a);
          }
        }
      }
      for (TypeId t : table_types) ++type_tables[t];
    }
    for (const auto& [e, _] : entity_tables) mentioned.push_back(e);
    std::sort(mentioned.begin(), mentioned.end());
  }

  std::vector<TableId> TablesWithEntity(EntityId e) const {
    auto it = entity_tables.find(e);
    return it == entity_tables.end() ? std::vector<TableId>() : it->second;
  }
};

void ExpectLakeMatchesReference(const SemanticDataLake& lake,
                                const ReferenceLake& ref, size_t num_tables) {
  const KnowledgeGraph& kg = lake.kg();
  const double n = static_cast<double>(num_tables);
  EXPECT_EQ(lake.MentionedEntities(), ref.mentioned);
  for (EntityId e = 0; e < kg.num_entities(); ++e) {
    const std::vector<TableId> want = ref.TablesWithEntity(e);
    ASSERT_EQ(lake.TablesWithEntity(e), want) << "entity " << e;
    const double informativeness =
        want.empty() ? 1.0
                     : std::log(1.0 + n / static_cast<double>(want.size())) /
                           std::log(1.0 + 2.0 * n);
    EXPECT_EQ(lake.Informativeness(e), informativeness) << "entity " << e;
  }
  for (TypeId t = 0; t < kg.taxonomy().size(); ++t) {
    auto it = ref.type_tables.find(t);
    const size_t count = it == ref.type_tables.end() ? 0 : it->second;
    EXPECT_EQ(lake.TypeTableFraction(t), static_cast<double>(count) / n)
        << "type " << t;
  }
}

TEST(SemanticDataLakeTest, OnePassBuildMatchesReferenceInEveryChunking) {
  benchgen::Benchmark bench =
      benchgen::MakeBenchmark(benchgen::PresetKind::kWt2015Like, 0.1, 17);
  const KnowledgeGraph& kg = bench.kg.kg;
  // The generated lake has unlinked attribute columns and unlinked entity
  // cells; add tables without rows and without any link among them.
  std::vector<Table> tables;
  for (TableId id = 0; id < bench.lake.corpus.size(); ++id) {
    if (id % 37 == 3) tables.push_back(Table("empty" + std::to_string(id), {}));
    if (id % 41 == 5) {
      Table unlinked("unlinked" + std::to_string(id), {"a", "b"});
      EXPECT_TRUE(
          unlinked.AppendRow({Value::String("x"), Value::Number(1)}).ok());
      tables.push_back(std::move(unlinked));
    }
    tables.push_back(bench.lake.corpus.table(id));
  }
  tables.push_back(Table("empty_last", {"c"}));
  ASSERT_GT(tables.size(), 20u);

  Corpus corpus;
  for (const Table& t : tables) ASSERT_TRUE(corpus.AddTable(t).ok());
  const ReferenceLake ref(corpus, kg);
  ASSERT_FALSE(ref.mentioned.empty());
  // Several entities carry direct types that share ancestors.
  size_t multi_typed = 0;
  for (EntityId e : ref.mentioned) multi_typed += kg.DirectTypes(e).size() > 1;
  ASSERT_GT(multi_typed, 0u);

  {
    SCOPED_TRACE("one-shot build");
    const SemanticDataLake one_shot(&corpus, &kg);
    ExpectLakeMatchesReference(one_shot, ref, corpus.size());
  }

  SCOPED_TRACE("ingest in chunks of 1, 7 and the rest");
  Corpus grown;
  ASSERT_TRUE(grown.AddTable(tables[0]).ok());
  SemanticDataLake chunked(&grown, &kg);
  ExpectLakeMatchesReference(chunked, ReferenceLake(grown, kg), 1);
  for (size_t i = 1; i < 8; ++i) ASSERT_TRUE(grown.AddTable(tables[i]).ok());
  EXPECT_EQ(chunked.IngestNewTables(), 7u);
  ExpectLakeMatchesReference(chunked, ReferenceLake(grown, kg), 8);
  for (size_t i = 8; i < tables.size(); ++i) {
    ASSERT_TRUE(grown.AddTable(tables[i]).ok());
  }
  EXPECT_EQ(chunked.IngestNewTables(), tables.size() - 8);
  EXPECT_EQ(chunked.IngestNewTables(), 0u);
  ExpectLakeMatchesReference(chunked, ref, corpus.size());
}

}  // namespace
}  // namespace thetis
