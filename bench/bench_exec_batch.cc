// Batched query execution through the QueryExecutor: the serving-side
// workload (many queries, one lake). Sweeps worker counts x {cached,
// nocache} x {brute force, LSEI-prefiltered}, reporting per-query wall
// time and the query-scoped cache hit rates.
//
// Expected shape: cached >= 1.5x faster than nocache at every worker
// count (the query σ table removes the per-(row, table) recomputation
// that Table 3 measures); throughput scales with workers since queries are
// independent; hit rates are high (each query entity is scored against
// the same lake entities over and over).

#include <benchmark/benchmark.h>

#include <string>

#include "common.h"
#include "exec/query_executor.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace thetis::bench {
namespace {

const World& TheWorld() {
  return GetWorld(benchgen::PresetKind::kWt2015Like, BenchScale());
}

void ExecBatchBench(benchmark::State& state, size_t threads, bool cached,
                    bool prefiltered) {
  const World& w = TheWorld();
  SearchOptions options;
  options.enable_cache = cached;
  SearchEngine engine(w.lake.get(), w.type_sim.get(), options);
  ThreadPool pool(threads);
  QueryExecutor executor(&engine, &pool);
  LseiOptions lsh;
  lsh.num_functions = 30;
  lsh.band_size = 10;
  Lsei lsei(w.lake.get(), w.embeddings.get(), lsh);
  if (prefiltered) executor.EnablePrefilter(&lsei, /*votes=*/3);

  std::vector<Query> queries;
  for (const auto& gq : w.queries5) queries.push_back(gq.query);

  for (auto _ : state) {
    Stopwatch watch;
    auto results = executor.ExecuteBatch(queries);
    double total = watch.ElapsedSeconds();
    benchmark::DoNotOptimize(results);
    state.counters["ms_per_query"] =
        1e3 * total / static_cast<double>(queries.size());
    SearchStats stats = SumBatchStats(results);
    double sim_lookups =
        static_cast<double>(stats.sim_cache_hits + stats.sim_cache_misses);
    double map_lookups = static_cast<double>(stats.mapping_cache_hits +
                                             stats.mapping_cache_misses);
    state.counters["sim_hit_rate"] =
        sim_lookups == 0.0 ? 0.0 : stats.sim_cache_hits / sim_lookups;
    state.counters["map_hit_rate"] =
        map_lookups == 0.0 ? 0.0 : stats.mapping_cache_hits / map_lookups;
    // Fraction of scoring time spent building + solving column mappings;
    // the remainder is the per-row σ aggregation and top-k upkeep.
    state.counters["mapping_frac"] =
        stats.total_seconds == 0.0
            ? 0.0
            : stats.mapping_seconds / stats.total_seconds;
  }
}

void RegisterAll() {
  for (bool prefiltered : {false, true}) {
    const char* mode = prefiltered ? "lsei" : "brute";
    for (size_t threads : {1, 2, 4, 8}) {
      for (bool cached : {true, false}) {
        std::string name = std::string("ExecBatch/") + mode + "/threads" +
                           std::to_string(threads) +
                           (cached ? "/cached" : "/nocache");
        benchmark::RegisterBenchmark(name.c_str(), ExecBatchBench, threads,
                                     cached, prefiltered)
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond);
      }
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
