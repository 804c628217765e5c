// Cross-configuration sweeps over the search stack: LSEI invariants across
// all six paper configurations, linker-mode coverage ordering, skip-gram
// dimensionality, and informativeness monotonicity on constructed corpora.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <tuple>
#include <unordered_set>

#include "benchgen/benchmark_factory.h"
#include "core/search_engine.h"
#include "core/similarity.h"
#include "embedding/skipgram.h"
#include "linking/entity_linker.h"
#include "lsh/lsei.h"
#include "semantic/semantic_data_lake.h"

namespace thetis {
namespace {

// --- LSEI invariants across every paper configuration -----------------------------

struct LseiSweepParam {
  LseiMode mode;
  size_t num_functions;
  size_t band_size;
};

// Prints a case as e.g. "types_32_8". gtest's default printer dumps the
// struct's raw bytes, padding included, and ctest names each case after
// the printed value, so without this the test names change between runs.
void PrintTo(const LseiSweepParam& p, std::ostream* os) {
  *os << (p.mode == LseiMode::kTypes ? "types" : "embeddings") << "_"
      << p.num_functions << "_" << p.band_size;
}

class LseiConfigSweep : public ::testing::TestWithParam<LseiSweepParam> {
 protected:
  static void SetUpTestSuite() {
    bench_ = new benchgen::Benchmark(
        benchgen::MakeBenchmark(benchgen::PresetKind::kWt2015Like, 0.08, 3));
    lake_ = new SemanticDataLake(&bench_->lake.corpus, &bench_->kg.kg);
    embeddings_ = new EmbeddingStore(
        benchgen::TrainBenchmarkEmbeddings(bench_->kg, 9));
    queries_ = new std::vector<benchgen::GeneratedQuery>(
        benchgen::MakeQueries(bench_->kg, 8));
  }
  static void TearDownTestSuite() {
    delete queries_;
    delete embeddings_;
    delete lake_;
    delete bench_;
  }

  static benchgen::Benchmark* bench_;
  static SemanticDataLake* lake_;
  static EmbeddingStore* embeddings_;
  static std::vector<benchgen::GeneratedQuery>* queries_;
};

benchgen::Benchmark* LseiConfigSweep::bench_ = nullptr;
SemanticDataLake* LseiConfigSweep::lake_ = nullptr;
EmbeddingStore* LseiConfigSweep::embeddings_ = nullptr;
std::vector<benchgen::GeneratedQuery>* LseiConfigSweep::queries_ = nullptr;

TEST_P(LseiConfigSweep, VotesMonotoneAndCandidatesValid) {
  LseiOptions options;
  options.mode = GetParam().mode;
  options.num_functions = GetParam().num_functions;
  options.band_size = GetParam().band_size;
  Lsei lsei(lake_, embeddings_, options);
  for (const auto& gq : *queries_) {
    std::vector<TableId> prev;
    for (size_t votes = 1; votes <= 4; ++votes) {
      auto cand = lsei.CandidateTablesForQuery(gq.query.tuples, votes);
      // Sorted, unique, in range.
      for (size_t i = 0; i < cand.size(); ++i) {
        EXPECT_LT(cand[i], bench_->lake.corpus.size());
        if (i > 0) {
          EXPECT_LT(cand[i - 1], cand[i]);
        }
      }
      if (votes > 1) {
        // Monotone: higher vote thresholds keep a subset.
        EXPECT_LE(cand.size(), prev.size());
        std::unordered_set<TableId> prev_set(prev.begin(), prev.end());
        for (TableId t : cand) EXPECT_TRUE(prev_set.count(t) > 0);
      }
      prev = std::move(cand);
    }
  }
}

TEST_P(LseiConfigSweep, QueryEntityOwnTablesSurviveOneVote) {
  LseiOptions options;
  options.mode = GetParam().mode;
  options.num_functions = GetParam().num_functions;
  options.band_size = GetParam().band_size;
  Lsei lsei(lake_, embeddings_, options);
  // An entity always collides with itself, so its own tables are candidates
  // at the 1-vote threshold.
  for (const auto& gq : *queries_) {
    EntityId anchor = gq.query.tuples[0][0];
    auto cand = lsei.CandidateTablesForEntity(anchor, 1);
    for (TableId t : lake_->TablesWithEntity(anchor)) {
      EXPECT_TRUE(std::binary_search(cand.begin(), cand.end(), t))
          << "entity " << anchor << " table " << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    PaperConfigs, LseiConfigSweep,
    ::testing::Values(LseiSweepParam{LseiMode::kTypes, 32, 8},
                      LseiSweepParam{LseiMode::kTypes, 128, 8},
                      LseiSweepParam{LseiMode::kTypes, 30, 10},
                      LseiSweepParam{LseiMode::kEmbeddings, 32, 8},
                      LseiSweepParam{LseiMode::kEmbeddings, 128, 8},
                      LseiSweepParam{LseiMode::kEmbeddings, 30, 10}));

// --- Linker modes: keyword fallback never reduces coverage --------------------------

TEST(LinkerModeSweep, KeywordFallbackCoversAtLeastExact) {
  auto bench =
      benchgen::MakeBenchmark(benchgen::PresetKind::kWt2015Like, 0.03, 13);
  // Strip and relink under both modes.
  auto clone_and_link = [&](LinkingMode mode) {
    benchgen::SyntheticLake lake = benchgen::CloneLake(bench.lake);
    for (TableId id = 0; id < lake.corpus.size(); ++id) {
      lake.corpus.mutable_table(id)->ClearLinks();
    }
    LinkerOptions options;
    options.mode = mode;
    EntityLinker linker(&bench.kg.kg, options);
    return linker.LinkCorpus(&lake.corpus);
  };
  LinkingStats exact = clone_and_link(LinkingMode::kExact);
  LinkingStats keyword = clone_and_link(LinkingMode::kExactThenKeyword);
  EXPECT_EQ(exact.cells_considered, keyword.cells_considered);
  EXPECT_GE(keyword.cells_linked, exact.cells_linked);
  EXPECT_GT(exact.cells_linked, 0u);
}

TEST(LinkerModeSweep, ExactRelinkingReproducesGeneratedLinks) {
  // Every generated link stores the entity's exact label, so exact
  // relinking must recover it.
  auto bench =
      benchgen::MakeBenchmark(benchgen::PresetKind::kWt2015Like, 0.02, 14);
  benchgen::SyntheticLake relinked = benchgen::CloneLake(bench.lake);
  for (TableId id = 0; id < relinked.corpus.size(); ++id) {
    relinked.corpus.mutable_table(id)->ClearLinks();
  }
  EntityLinker linker(&bench.kg.kg);
  linker.LinkCorpus(&relinked.corpus);
  for (TableId id = 0; id < bench.lake.corpus.size(); ++id) {
    const Table& orig = bench.lake.corpus.table(id);
    const Table& redo = relinked.corpus.table(id);
    for (size_t r = 0; r < orig.num_rows(); ++r) {
      for (size_t c = 0; c < orig.num_columns(); ++c) {
        if (orig.link(r, c) != kNoEntity) {
          EXPECT_EQ(redo.link(r, c), orig.link(r, c))
              << "table " << id << " cell (" << r << "," << c << ")";
        }
      }
    }
  }
}

// --- Skip-gram dimensionality sweep ---------------------------------------------------

class SkipGramDimSweep : public ::testing::TestWithParam<int> {};

TEST_P(SkipGramDimSweep, SeparatesTopicsAtEveryDimension) {
  size_t dim = GetParam();
  std::vector<std::vector<WalkToken>> walks;
  for (int i = 0; i < 150; ++i) {
    walks.push_back({0, 1, 2, 0, 1, 2});
    walks.push_back({3, 4, 5, 3, 4, 5});
  }
  SkipGramOptions options;
  options.dim = dim;
  options.epochs = 4;
  options.seed = 3 + dim;
  EmbeddingStore store = SkipGramTrainer(options).Train(walks, 6);
  store.NormalizeAll();
  EXPECT_EQ(store.dim(), dim);
  EXPECT_GT(store.Cosine(0, 1), store.Cosine(0, 4) + 0.15f);
}

INSTANTIATE_TEST_SUITE_P(Dims, SkipGramDimSweep,
                         ::testing::Values(4, 8, 16, 32, 64));

// --- Informativeness strictly decreasing in table frequency ---------------------------

TEST(InformativenessSweep, StrictlyDecreasingInFrequency) {
  KnowledgeGraph kg;
  const size_t n = 12;
  for (size_t i = 0; i < n; ++i) {
    kg.AddEntity("e" + std::to_string(i)).value();
  }
  // Entity i appears in exactly i+1 tables (of n total).
  Corpus corpus;
  for (size_t t = 0; t < n; ++t) {
    // Table t mentions every entity with id >= t, one row per entity.
    Table table("t" + std::to_string(t), {"c"});
    for (size_t i = t; i < n; ++i) {
      EXPECT_TRUE(table
                      .AppendRow({Value::String(kg.label(
                                     static_cast<EntityId>(i)))},
                                 {static_cast<EntityId>(i)})
                      .ok());
    }
    if (table.num_rows() == 0) continue;
    EXPECT_TRUE(corpus.AddTable(std::move(table)).ok());
  }
  SemanticDataLake lake(&corpus, &kg);
  // Entity i is in tables 0..i -> frequency i+1.
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(lake.TableFrequency(static_cast<EntityId>(i)), i + 1);
  }
  for (size_t i = 1; i < n; ++i) {
    EXPECT_LT(lake.Informativeness(static_cast<EntityId>(i)),
              lake.Informativeness(static_cast<EntityId>(i - 1)))
        << "frequency " << i + 1;
  }
}

}  // namespace
}  // namespace thetis
