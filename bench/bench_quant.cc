// bench_quant — headline numbers of the quantized int8 bound pass, the
// two of which CI gates on (see .github/workflows/ci.yml perf-smoke):
//
//   QuantMemory        fp32 vs int8 embedding-arena bytes; the reduction
//                      ratio must stay >= 3x (it is ~3.2x at dim 32:
//                      1 byte/component + 8 bytes/row vs 4 bytes/component).
//   QuantBound/fp32    bound_ms_per_query with the exact fp32 bound pass.
//   QuantBound/int8    same queries with the int8 quantized bound pass.
//
// Both also run with the cache off (`*_nocache`): with the cache on, fp32
// bound probes are gathers from the query's σ table (whose rows the rerank
// reads too), so the cached pair measures the end-to-end trade while the
// nocache pair isolates the raw bound-pass cost — that is the pair CI
// gates on (int8 not slower than fp32, with slack for timer noise).
//
// Both backends are admissible upper bounds, so the rankings must be
// bit-identical — asserted here per query before anything is timed; a
// violation aborts the binary, which fails the CI job.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>

#include "common.h"
#include "util/stopwatch.h"

namespace thetis::bench {
namespace {

const World& TheWorld() {
  return GetWorld(benchgen::PresetKind::kWt2015Like, BenchScale());
}

void QuantMemory(benchmark::State& state) {
  const World& w = TheWorld();
  const QuantizedEmbeddingStore& quant = w.emb_sim->quantized();
  const double fp32_bytes = static_cast<double>(
      w.embeddings->size() * w.embeddings->dim() * sizeof(float));
  const double int8_bytes = static_cast<double>(quant.arena_bytes());
  for (auto _ : state) {
    benchmark::DoNotOptimize(int8_bytes);
  }
  state.counters["fp32_arena_bytes"] = fp32_bytes;
  state.counters["int8_arena_bytes"] = int8_bytes;
  state.counters["reduction"] =
      int8_bytes == 0.0 ? 0.0 : fp32_bytes / int8_bytes;
}

void QuantBound(benchmark::State& state, SearchOptions::BoundBackend backend,
                bool cache) {
  const World& w = TheWorld();
  SearchOptions options;
  options.enable_prune = true;
  options.enable_cache = cache;
  options.bound_backend = backend;
  SearchEngine engine(w.lake.get(), w.emb_sim.get(), options);
  SearchOptions ref_options;
  ref_options.enable_prune = true;
  ref_options.bound_backend = SearchOptions::BoundBackend::kFp32;
  SearchEngine reference(w.lake.get(), w.emb_sim.get(), ref_options);

  const auto& queries = w.queries5;
  for (const auto& gq : queries) {
    auto hits = engine.Search(gq.query);
    auto want = reference.Search(gq.query);
    bool same = want.size() == hits.size();
    for (size_t i = 0; same && i < want.size(); ++i) {
      same =
          want[i].table == hits[i].table && want[i].score == hits[i].score;
    }
    if (!same) {
      std::fprintf(stderr, "quantized ranking parity violation\n");
      std::abort();
    }
  }
  // Several passes over the query set: at smoke scale one pass's bound
  // time is near the timer floor, and the CI gate compares these numbers.
  constexpr size_t kReps = 5;
  for (auto _ : state) {
    double bound_seconds = 0.0;
    double total_seconds = 0.0;
    size_t pruned = 0;
    size_t candidates = 0;
    for (size_t rep = 0; rep < kReps; ++rep) {
      for (const auto& gq : queries) {
        SearchStats stats;
        auto hits = engine.Search(gq.query, &stats);
        benchmark::DoNotOptimize(hits);
        bound_seconds += stats.bound_seconds;
        total_seconds += stats.total_seconds;
        pruned += stats.tables_pruned;
        candidates += stats.candidate_count;
      }
    }
    const double n = static_cast<double>(kReps * queries.size());
    state.counters["bound_ms_per_query"] = 1e3 * bound_seconds / n;
    state.counters["ms_per_query"] = 1e3 * total_seconds / n;
    state.counters["prune_rate"] =
        candidates == 0 ? 0.0
                        : static_cast<double>(pruned) /
                              static_cast<double>(candidates);
  }
}

void RegisterAll() {
  benchmark::RegisterBenchmark("QuantMemory", QuantMemory)->Iterations(1);
  struct Row {
    const char* name;
    SearchOptions::BoundBackend backend;
    bool cache;
  };
  const Row rows[] = {
      {"QuantBound/fp32", SearchOptions::BoundBackend::kFp32, true},
      {"QuantBound/int8", SearchOptions::BoundBackend::kInt8, true},
      {"QuantBound/fp32_nocache", SearchOptions::BoundBackend::kFp32, false},
      {"QuantBound/int8_nocache", SearchOptions::BoundBackend::kInt8, false},
  };
  for (const Row& row : rows) {
    benchmark::RegisterBenchmark(row.name, QuantBound, row.backend, row.cache)
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace
}  // namespace thetis::bench

int main(int argc, char** argv) {
  thetis::bench::RegisterAll();
  thetis::bench::ObsExportInit(&argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
