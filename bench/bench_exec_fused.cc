// Batch-fused query execution: throughput of the table-major fused bound
// pass (one arena walk per group, every table's distinct-entity slice
// gathered once and scored against the batch's entity union via the
// multi-query kernels, one σ table per group) versus the legacy
// query-major path, at batch sizes 1/8/32 on the ~1k-table default lake.
//
// The workload is topical serving traffic — many concurrent queries about
// few topics — which is where fusion pays: queries within a group share
// entities, so the fused pass computes each (entity, table) σ once instead
// of once per query. Two backend legs: fp32 bounds with the cache on
// (fusion shares one σ table across the group) and int8 quantized bounds
// with the cache off (fusion amortizes the per-table gather + kernel
// dispatch).
//
// Expected shape: queries_per_sec grows with batch size on both legs;
// batch 32 is >= 1.5x batch 1 (the CI gate enforces the weaker
// not-slower-than-batch-1 bound). Rankings are bit-identical at every
// batch size — exec_test's BatchFusionParitySweep asserts that; this
// binary only measures cost.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common.h"
#include "exec/query_executor.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace thetis::bench {
namespace {

const World& TheWorld() {
  return GetWorld(benchgen::PresetKind::kWt2015Like, BenchScale());
}

// 32 five-tuple queries drawn from 2 topics: the entity pools repeat
// query to query, giving the cross-query overlap real trending-topic
// traffic has (and batch fusion exploits).
std::vector<Query> TopicalQueries(const World& w, size_t count) {
  const auto& kg = w.bench.kg;
  const size_t topics = kg.num_topics < 2 ? kg.num_topics : 2;
  std::vector<Query> out;
  uint64_t s = 0x9e3779b97f4a7c15ull;
  auto next = [&s]() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return s >> 33;
  };
  for (size_t q = 0; q < count; ++q) {
    const auto& members = kg.topic_members[q % topics];
    if (members.empty()) continue;
    Query query;
    for (size_t t = 0; t < 5; ++t) {
      std::vector<EntityId> tuple;
      for (size_t e = 0; e < 2; ++e) {
        tuple.push_back(members[next() % members.size()]);
      }
      query.tuples.push_back(std::move(tuple));
    }
    out.push_back(std::move(query));
  }
  return out;
}

void ExecFusedBench(benchmark::State& state, size_t batch, bool int8) {
  const World& w = TheWorld();
  SearchOptions options;
  const EntitySimilarity* sim;
  if (int8) {
    // Quantized bounds need no σ table; fusion's lever here is the
    // once-per-table gather + one multi-query kernel call per slice.
    options.enable_cache = false;
    options.bound_backend = SearchOptions::BoundBackend::kInt8;
    sim = w.emb_sim.get();
  } else {
    options.enable_cache = true;
    options.bound_backend = SearchOptions::BoundBackend::kFp32;
    sim = w.type_sim.get();
  }
  SearchEngine engine(w.lake.get(), sim, options);
  // One worker: the comparison is fused vs per-query bound work, not
  // pool parallelism (which both modes get equally, across groups).
  ThreadPool pool(1);
  QueryExecutor executor(&engine, &pool);
  executor.set_batch_size(batch);
  std::vector<Query> queries = TopicalQueries(w, 32);

  // One untimed warmup pass (page-in, allocator steady state), then the
  // timed passes averaged — single-pass numbers are too noisy for the CI
  // not-slower gate.
  constexpr size_t kPasses = 3;
  benchmark::DoNotOptimize(executor.ExecuteBatch(queries));
  for (auto _ : state) {
    SearchStats stats;
    Stopwatch watch;
    for (size_t pass = 0; pass < kPasses; ++pass) {
      auto results = executor.ExecuteBatch(queries);
      benchmark::DoNotOptimize(results);
      if (pass == 0) stats = SumBatchStats(results);
    }
    double total = watch.ElapsedSeconds();
    double n = static_cast<double>(kPasses * queries.size());
    state.counters["queries_per_sec"] = n / total;
    state.counters["ms_per_query"] = 1e3 * total / n;
    state.counters["fused_reuses"] =
        static_cast<double>(stats.bound_fused_reuses);
  }
}

void RegisterAll() {
  for (bool int8 : {false, true}) {
    const char* backend = int8 ? "int8" : "fp32";
    for (size_t batch : {1, 8, 32}) {
      std::string name = std::string("ExecFused/") + backend + "/batch" +
                         std::to_string(batch);
      benchmark::RegisterBenchmark(name.c_str(), ExecFusedBench, batch, int8)
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
}

}  // namespace
}  // namespace thetis::bench

int main(int argc, char** argv) {
  thetis::bench::RegisterAll();
  thetis::bench::ObsExportInit(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
