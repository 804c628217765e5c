// Tests of the benchmark's helpers (perfbench/lib.h).

#include "lib.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "benchgen/benchmark_factory.h"
#include "core/similarity.h"
#include "lsh/lsei.h"
#include "serve/serve_runtime.h"

namespace thetis::perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(PercentileTest, NearestRankWhenTenSamplesLieBeyond) {
  EXPECT_EQ(Percentile(OneTo(100), 0.50), 50.0);
  EXPECT_EQ(Percentile(OneTo(100), 0.90), 90.0);
  EXPECT_EQ(Percentile(OneTo(200), 0.95), 190.0);
}

TEST(PercentileTest, RefusesWhenFewerThanTenSamplesLieBeyond) {
  EXPECT_FALSE(Percentile(OneTo(100), 0.95).has_value());  // 5 beyond
  EXPECT_FALSE(Percentile(OneTo(99), 0.90).has_value());   // 9 beyond
  EXPECT_TRUE(Percentile(OneTo(21), 0.50).has_value());    // 10 beyond
  EXPECT_FALSE(Percentile(OneTo(19), 0.50).has_value());   // 9 beyond
  EXPECT_FALSE(Percentile({}, 0.50).has_value());
}

TEST(PercentileTest, SlicedPercentileReadsTheTypicalSlice) {
  // Five slices of 100; one runs ten times slower.
  std::vector<double> ordered;
  for (size_t s = 0; s < 5; ++s) {
    for (double v : OneTo(100)) ordered.push_back(s == 2 ? 10 * v : v);
  }
  ordered.push_back(1e9);  // partial slice, dropped
  EXPECT_EQ(SlicedPercentile(ordered, 0.90, 100), 90.0);
  EXPECT_GT(Percentile(ordered, 0.90), 90.0);  // pooled: pulled up
  EXPECT_FALSE(SlicedPercentile(ordered, 0.95, 100).has_value());
  EXPECT_FALSE(SlicedPercentile(OneTo(99), 0.5, 100).has_value());
}

TEST(PercentileTest, MedianOfSmallSamples) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(LadderTest, BacklogCheck) {
  std::vector<size_t> steady(400);
  for (size_t i = 0; i < steady.size(); ++i) steady[i] = 3 + i % 5;
  EXPECT_FALSE(BacklogGrows(steady, 8.0));
  std::vector<size_t> growing(400);
  for (size_t i = 0; i < growing.size(); ++i) growing[i] = i / 4;
  EXPECT_TRUE(BacklogGrows(growing, 8.0));
  // Growth within the slack is a fluctuation, not a backlog.
  std::vector<size_t> bump(400, 2);
  for (size_t i = 300; i < 400; ++i) bump[i] = 9;
  EXPECT_FALSE(BacklogGrows(bump, 8.0));
  EXPECT_FALSE(BacklogGrows({}, 8.0));
}

TEST(LadderTest, RungNeedsSloFullSuccessAndNoBacklog) {
  RungResult rung{200.0, 10.0, 1.0, false};
  EXPECT_TRUE(RungPasses(rung, 25.0));
  EXPECT_FALSE(RungPasses(rung, 5.0));
  rung.ok_share = 0.999;
  EXPECT_FALSE(RungPasses(rung, 25.0));
  rung.ok_share = 1.0;
  rung.backlog_grows = true;
  EXPECT_FALSE(RungPasses(rung, 25.0));
}

TEST(LadderTest, BinarySearchFindsHighestPassingRung) {
  const std::vector<double> ladder = {100, 125, 150, 175, 200, 225,
                                      250, 300, 350, 400, 450, 500};
  auto knee_at = [](double knee) {
    return [knee](double rate) {
      RungResult r;
      r.rate_qps = rate;
      r.p90_ms = rate <= knee ? 5.0 : 100.0;
      r.ok_share = 1.0;
      r.backlog_grows = false;
      return r;
    };
  };
  size_t probes = 0;
  EXPECT_EQ(MaxPassingRate(ladder, 25.0, knee_at(230.0), &probes), 225.0);
  EXPECT_LE(probes, 4u);
  EXPECT_EQ(MaxPassingRate(ladder, 25.0, knee_at(50.0)), 0.0);
  EXPECT_EQ(MaxPassingRate(ladder, 25.0, knee_at(1e9)), 500.0);
  EXPECT_EQ(MaxPassingRate(ladder, 25.0, knee_at(100.0)), 100.0);
}

Table NamedTable(const std::string& name) {
  Table table(name, {"c"});
  EXPECT_TRUE(table.AppendRow({Value::String(name)}).ok());
  return table;
}

TEST(EpochContentTest, DeletesTombstoneAndIngestCompacts) {
  Corpus initial;
  for (const char* name : {"a", "b", "c"}) initial.AddTable(NamedTable(name));
  EpochContent content(initial);

  WriteOp del;
  del.kind = WriteOp::Kind::kDelete;
  del.name = "b";
  del.epoch_id = 1;
  ASSERT_TRUE(content.Apply(del));
  EXPECT_EQ(content.epoch_id(), 1u);
  EXPECT_FALSE(content.corpus_changed());
  EXPECT_TRUE(content.tombstones().Contains(1));
  EXPECT_EQ(content.corpus().table(1).num_rows(), 1u);  // not yet blanked

  WriteOp ingest;
  ingest.kind = WriteOp::Kind::kIngest;
  ingest.tables = {NamedTable("d")};
  ingest.epoch_id = 2;
  ASSERT_TRUE(content.Apply(ingest));
  EXPECT_TRUE(content.corpus_changed());
  EXPECT_TRUE(content.tombstones().empty());
  ASSERT_EQ(content.corpus().size(), 4u);
  EXPECT_EQ(content.corpus().table(1).name(), "b");  // name kept
  EXPECT_EQ(content.corpus().table(1).num_rows(), 0u);
  EXPECT_EQ(content.corpus().table(3).name(), "d");

  WriteOp unknown = del;
  unknown.name = "zzz";
  EXPECT_FALSE(content.Apply(unknown));
  WriteOp duplicate = ingest;
  duplicate.tables = {NamedTable("b")};  // reserved by the blanked table
  EXPECT_FALSE(content.Apply(duplicate));
  EXPECT_EQ(content.epoch_id(), 2u);
}

// The reconstruction must agree with the runtime itself: every epoch a
// live prefiltered runtime publishes under interleaved deletes and ingests
// ranks exactly like an offline engine over EpochContent, given the epoch's
// own LSEI candidates.
TEST(EpochContentTest, OfflineEngineOverContentMatchesServedEpochs) {
  benchgen::Benchmark bench =
      benchgen::MakeBenchmark(benchgen::PresetKind::kWt2015Like, 0.1, 7);
  TypeJaccardSimilarity sim(&bench.kg.kg);
  const Corpus& full = bench.lake.corpus;
  const size_t held_out = 8;
  Corpus initial;
  for (TableId id = 0; id + held_out < full.size(); ++id) {
    initial.AddTable(full.table(id));
  }
  std::vector<Query> queries;
  for (auto& g : benchgen::MakeQueries(bench.kg, 12, 5)) {
    queries.push_back(g.query);
  }
  ServeOptions options;
  options.num_workers = 1;
  options.enable_prefilter = true;
  const LseiOptions lsei_options;
  ServeRuntime runtime(initial.Clone(), &bench.kg.kg, &sim, options, nullptr,
                       &lsei_options);
  EpochContent content(initial);

  std::vector<WriteOp> ops;
  for (size_t i = 0; i < 6; ++i) {
    WriteOp op;
    if (i % 3 == 2) {
      op.kind = WriteOp::Kind::kIngest;
      for (size_t t = 0; t < 4; ++t) {
        op.tables.push_back(full.table(initial.size() + (i / 3) * 4 + t));
      }
    } else {
      op.kind = WriteOp::Kind::kDelete;
      op.name = initial.table(static_cast<TableId>(3 + 5 * i)).name();
    }
    ops.push_back(std::move(op));
  }
  for (size_t step = 0; step <= ops.size(); ++step) {
    if (step > 0) {
      WriteOp& op = ops[step - 1];
      Result<uint64_t> epoch =
          op.kind == WriteOp::Kind::kIngest
              ? runtime.IngestTables(std::vector<Table>(op.tables))
              : runtime.DeleteTable(op.name);
      ASSERT_TRUE(epoch.ok());
      op.epoch_id = epoch.value();
      ASSERT_TRUE(content.Apply(op));
    }
    SemanticDataLake lake(&content.corpus(), &bench.kg.kg);
    SearchOptions search = options.search;
    search.tombstones =
        std::make_shared<TableTombstones>(content.tombstones());
    SearchEngine offline(&lake, &sim, search);
    EpochRegistry::Pin pin = runtime.PinCurrent();
    ASSERT_EQ(pin->id, content.epoch_id());
    PrefilteredSearchEngine served(pin->engine, pin->lsei, 1);
    for (const Query& q : queries) {
      EXPECT_TRUE(SameRanking(
          served.Search(q),
          offline.SearchCandidates(
              q, pin->lsei->CandidateTablesForQuery(q.tuples, 1))))
          << "epoch " << pin->id;
    }
  }
}

TEST(ExactnessGateTest, RejectsCorruptedRankings) {
  const std::vector<SearchHit> truth = {{4, 0.9}, {7, 0.8}, {1, 0.8}};
  ExactnessGate gate;
  gate.AddReference(3, 0, truth);
  EXPECT_TRUE(gate.Check(3, 0, truth));

  std::vector<SearchHit> nudged = truth;
  nudged[1].score = std::nextafter(nudged[1].score, 1.0);  // one ulp
  EXPECT_FALSE(gate.Check(3, 0, nudged));
  std::vector<SearchHit> swapped = truth;
  std::swap(swapped[1], swapped[2]);
  EXPECT_FALSE(gate.Check(3, 0, swapped));
  std::vector<SearchHit> truncated(truth.begin(), truth.end() - 1);
  EXPECT_FALSE(gate.Check(3, 0, truncated));
  // Right ranking, wrong epoch: there is no reference to pass against.
  EXPECT_FALSE(gate.Check(2, 0, truth));

  EXPECT_EQ(gate.checked(), 5u);
  EXPECT_EQ(gate.mismatched(), 4u);
}

TEST(SpanRecorderTest, RecordsOnlyWhenEnabled) {
  SpanRecorder off(false);
  Timed(&off, "x", 0, [] {});
  EXPECT_TRUE(off.DurationsMs("x").empty());

  SpanRecorder on(true);
  const double seconds = Timed(&on, "x", 1, [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  });
  Timed(&on, "y", 1, [] {});
  std::vector<double> ms = on.DurationsMs("x");
  ASSERT_EQ(ms.size(), 1u);
  EXPECT_GE(ms[0], 2.0);
  EXPECT_DOUBLE_EQ(ms[0], 1e3 * seconds);
}

}  // namespace
}  // namespace thetis::perfbench
