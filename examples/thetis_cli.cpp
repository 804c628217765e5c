// thetis_cli — a small command line around the library, the shape a
// downstream user would operate:
//
//   thetis_cli generate <dir> [--scale S] [--preset wt2015|wt2019|gittables]
//       Generate a synthetic benchmark and persist it: KG (triples),
//       corpus (CSVs + links), embeddings (text).
//
//   thetis_cli stats <dir>
//       Print corpus and KG statistics of a persisted lake.
//
//   thetis_cli search <dir> [--sim types|embeddings] [--k N]
//              [--lsh] [--no-cache] [--no-prune]
//              [--bound-backend fp32|int8|bitset|auto] [--threads N]
//              [--build-threads N] [--shards N]
//              [--batch-size N] [--no-batch-fuse]
//              [--save-engine F] [--load-engine F]
//              [--metrics-out F] [--trace-out F]
//              <entity label> [<entity label> ...]
//       Semantic table search for one entity tuple; labels must exist in
//       the persisted KG. --no-cache disables the query-scoped scoring
//       cache and --no-prune the bound-and-prune pass (both exact — for
//       timing comparisons); --bound-backend picks how the prune pass
//       computes its admissible upper bounds: the exact fp32 sigma, the
//       int8 quantized embedding arena, the packed type bitsets, or auto
//       (default: the compressed backend when the scoring cache is off,
//       else fp32, read from the query's sigma table like the rerank).
//       Every backend is admissible, so rankings are bit-identical; a
//       backend the similarity cannot serve falls back to fp32. The
//       resolved choice is printed and the per-backend arena bytes land
//       in --metrics-out. --threads N routes the query
//       through the batched QueryExecutor on an N-worker pool;
//       --build-threads N parallelizes the offline build (engine
//       arena/signature construction and the LSEI signature pass) —
//       built state is bit-identical for every N.
//       --shards N partitions the engine into N contiguous table-range
//       shards searched scatter-gather with a shared score floor;
//       rankings are bit-identical to --shards 1 for every N and the
//       shard layout persists through --save-engine/--load-engine.
//       --batch-size N (with --threads) groups queries into fused batches
//       of N: one table-major bound pass and one shared sigma table serve
//       the whole group (rankings bit-identical to N=1); --no-batch-fuse
//       is the escape hatch back to the legacy per-query path. The
//       resolved execution mode is printed alongside the backend/shard
//       lines.
//       --metrics-out writes the observability counters after the query
//       (Prometheus text, or a JSON snapshot when F ends in .json);
//       --trace-out enables per-stage span tracing and writes a Chrome
//       trace-event JSON (open in chrome://tracing or Perfetto).
//       --save-engine writes the built engine (and LSEI, when --lsh is
//       given) to one mmap-able snapshot file after construction;
//       --load-engine restores it instead of rebuilding — startup becomes
//       an mmap plus validation, rankings are bit-identical, and the
//       snapshot's similarity/LSEI configuration overrides --sim/--lsh
//       construction (the lake directory is still required: the snapshot
//       holds derived artifacts, not the tables themselves).
//
//   thetis_cli serve <dir> [--sim types|embeddings] [--k N] [--lsh]
//              [--serve-workers N] [--serve-queue N] [--deadline-ms X]
//              [--batch-size N] [--linger-us N] [--shards N]
//              [--load-engine F] [--metrics-out F]
//       Long-running NDJSON server over stdin/stdout backed by the
//       concurrent ServeRuntime: queries pin an immutable engine epoch
//       (no shared lock on the read path) while ingest/delete publish
//       successor epochs without stalling readers. One JSON request per
//       input line, one JSON response per output line:
//         {"query": ["<label>", ...]}
//             rank the entity tuple; responds with
//             {"ok":true,"epoch":E,"status":"OK","latency_ms":L,
//              "hits":[{"table":"name","score":S}, ...]}
//             (a shed or deadline-exceeded query responds ok:false with
//             status RESOURCE_EXHAUSTED / DEADLINE_EXCEEDED and no hits —
//             rankings are all-or-nothing, never partial).
//         {"ingest": [{"name":"t","columns":["c",...],
//                      "rows":[["<cell>",...], ...]}, ...]}
//             live-ingest tables and hot-swap to a new epoch; cells that
//             match a KG entity label are linked, others stay plain text.
//         {"delete": "<table name>"}
//             tombstone a table (published as a thin epoch re-skin; the
//             next ingest compacts it away).
//         {"stats": true}
//             {"ok":true,"epoch":E,"hot_swaps":H,"workers":W}
//       --deadline-ms bounds each query's execution budget and
//       --serve-queue the per-worker admission queue (overload sheds with
//       RESOURCE_EXHAUSTED instead of queueing unboundedly).
//       --load-engine cold-starts epoch 0 from an engine snapshot (mmap,
//       no offline build); later ingests still hot-swap normally. The
//       transport is deliberately stdin/stdout only — a socket front-end
//       is a wrapper's job, e.g.:
//         socat TCP-LISTEN:7777,reuseaddr,fork EXEC:"thetis_cli serve lake"
//
// Exit code 0 on success, 1 on user error, 2 on IO/internal error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "benchgen/benchmark_factory.h"
#include "core/search_engine.h"
#include "core/similarity.h"
#include "embedding/embedding_store.h"
#include "exec/query_executor.h"
#include "io/engine_snapshot.h"
#include "kg/triple_io.h"
#include "lsh/lsei.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "semantic/corpus_io.h"
#include "semantic/semantic_data_lake.h"
#include "serve/serve_runtime.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

using namespace thetis;  // NOLINT: example brevity
namespace fs = std::filesystem;

namespace {

int Fail(const std::string& message, int code = 1) {
  std::fprintf(stderr, "thetis_cli: %s\n", message.c_str());
  return code;
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  thetis_cli generate <dir> [--scale S] [--preset "
               "wt2015|wt2019|gittables]\n"
               "  thetis_cli stats <dir>\n"
               "  thetis_cli search <dir> [--sim types|embeddings] [--k N] "
               "[--lsh] [--no-cache] [--no-prune] "
               "[--bound-backend fp32|int8|bitset|auto] [--threads N] "
               "[--build-threads N] [--shards N] "
               "[--batch-size N] [--no-batch-fuse] "
               "[--save-engine F] [--load-engine F] "
               "[--metrics-out F] [--trace-out F] "
               "<label> [...]\n"
               "  thetis_cli serve <dir> [--sim types|embeddings] [--k N] "
               "[--lsh] [--serve-workers N] [--serve-queue N] "
               "[--deadline-ms X] [--batch-size N] [--linger-us N] "
               "[--shards N] [--load-engine F] [--metrics-out F]\n");
  return 1;
}

int RunGenerate(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  std::string dir = args[0];
  double scale = 0.1;
  benchgen::PresetKind preset = benchgen::PresetKind::kWt2015Like;
  for (size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--scale" && i + 1 < args.size()) {
      scale = std::atof(args[++i].c_str());
    } else if (args[i] == "--preset" && i + 1 < args.size()) {
      const std::string& p = args[++i];
      if (p == "wt2015") {
        preset = benchgen::PresetKind::kWt2015Like;
      } else if (p == "wt2019") {
        preset = benchgen::PresetKind::kWt2019Like;
      } else if (p == "gittables") {
        preset = benchgen::PresetKind::kGitTablesLike;
      } else {
        return Fail("unknown preset '" + p + "'");
      }
    } else {
      return Fail("unknown argument '" + args[i] + "'");
    }
  }
  if (scale <= 0.0) return Fail("--scale must be positive");

  std::printf("generating %s at scale %.3f ...\n",
              benchgen::PresetName(preset), scale);
  benchgen::Benchmark bench = benchgen::MakeBenchmark(preset, scale);
  std::printf("training embeddings ...\n");
  EmbeddingStore embeddings = benchgen::TrainBenchmarkEmbeddings(bench.kg);

  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return Fail("cannot create " + dir, 2);
  Status s = WriteTriplesFile(bench.kg.kg, (fs::path(dir) / "kg.triples").string());
  if (!s.ok()) return Fail(s.ToString(), 2);
  s = SaveCorpus(bench.lake.corpus, bench.kg.kg,
                 (fs::path(dir) / "corpus").string());
  if (!s.ok()) return Fail(s.ToString(), 2);
  s = embeddings.SaveToFile((fs::path(dir) / "embeddings.txt").string());
  if (!s.ok()) return Fail(s.ToString(), 2);
  std::printf("wrote %zu tables, %zu entities to %s\n",
              bench.lake.corpus.size(), bench.kg.kg.num_entities(),
              dir.c_str());
  return 0;
}

struct LoadedLake {
  KnowledgeGraph kg;
  Corpus corpus;
  std::unique_ptr<EmbeddingStore> embeddings;  // may be null
};

int LoadLake(const std::string& dir, LoadedLake* out) {
  auto kg = ReadTriplesFile((fs::path(dir) / "kg.triples").string());
  if (!kg.ok()) {
    Fail("loading KG: " + kg.status().ToString(), 2);
    return 2;
  }
  out->kg = std::move(kg).value();
  auto corpus = LoadCorpus((fs::path(dir) / "corpus").string(), out->kg);
  if (!corpus.ok()) {
    Fail("loading corpus: " + corpus.status().ToString(), 2);
    return 2;
  }
  out->corpus = std::move(corpus).value();
  auto emb =
      EmbeddingStore::LoadFromFile((fs::path(dir) / "embeddings.txt").string());
  if (emb.ok()) {
    out->embeddings =
        std::make_unique<EmbeddingStore>(std::move(emb).value());
  }
  return 0;
}

int RunStats(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  LoadedLake lake;
  if (int rc = LoadLake(args[0], &lake); rc != 0) return rc;
  CorpusStats cs = lake.corpus.ComputeStats();
  KgStats ks = lake.kg.ComputeStats();
  std::printf("corpus: %zu tables | %.1f rows x %.1f cols | %.1f%% linked | "
              "%zu distinct entities mentioned\n",
              cs.num_tables, cs.mean_rows, cs.mean_columns,
              100.0 * cs.mean_link_coverage, cs.distinct_entities);
  std::printf("kg:     %zu entities | %zu edges | %zu types | %zu predicates"
              " | %.2f types/entity\n",
              ks.num_entities, ks.num_edges, ks.num_types, ks.num_predicates,
              ks.mean_types_per_entity);
  std::printf("embeddings: %s\n",
              lake.embeddings ? (std::to_string(lake.embeddings->size()) +
                                 " x " + std::to_string(lake.embeddings->dim()))
                                    .c_str()
                              : "(none)");
  return 0;
}

int RunSearch(const std::vector<std::string>& args) {
  if (args.size() < 2) return Usage();
  std::string dir = args[0];
  bool use_embeddings = false;
  bool use_lsh = false;
  bool use_cache = true;
  bool use_prune = true;
  SearchOptions::BoundBackend bound_backend = SearchOptions::BoundBackend::kAuto;
  size_t threads = 0;        // 0: direct engine call, no executor
  size_t build_threads = 1;  // offline build parallelism (1 = serial)
  size_t shards = 1;         // engine partition count (1 = unsharded)
  size_t batch_size = 1;     // fused-batch group size (1 = legacy path)
  bool batch_fuse = true;    // --no-batch-fuse escape hatch
  size_t k = 10;
  std::string metrics_out;
  std::string trace_out;
  std::string save_engine;
  std::string load_engine;
  std::vector<std::string> labels;
  for (size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--sim" && i + 1 < args.size()) {
      const std::string& s = args[++i];
      if (s == "embeddings") {
        use_embeddings = true;
      } else if (s != "types") {
        return Fail("unknown similarity '" + s + "'");
      }
    } else if (args[i] == "--k" && i + 1 < args.size()) {
      k = static_cast<size_t>(std::atoi(args[++i].c_str()));
      if (k == 0) return Fail("--k must be positive");
    } else if (args[i] == "--lsh") {
      use_lsh = true;
    } else if (args[i] == "--no-cache") {
      use_cache = false;
    } else if (args[i] == "--no-prune") {
      use_prune = false;
    } else if (args[i] == "--bound-backend" && i + 1 < args.size()) {
      const std::string& b = args[++i];
      if (b == "fp32") {
        bound_backend = SearchOptions::BoundBackend::kFp32;
      } else if (b == "int8") {
        bound_backend = SearchOptions::BoundBackend::kInt8;
      } else if (b == "bitset") {
        bound_backend = SearchOptions::BoundBackend::kBitset;
      } else if (b == "auto") {
        bound_backend = SearchOptions::BoundBackend::kAuto;
      } else {
        return Fail("unknown bound backend '" + b + "'");
      }
    } else if (args[i] == "--threads" && i + 1 < args.size()) {
      threads = static_cast<size_t>(std::atoi(args[++i].c_str()));
      if (threads == 0) return Fail("--threads must be positive");
    } else if (args[i] == "--build-threads" && i + 1 < args.size()) {
      build_threads = static_cast<size_t>(std::atoi(args[++i].c_str()));
      if (build_threads == 0) return Fail("--build-threads must be positive");
    } else if (args[i] == "--shards" && i + 1 < args.size()) {
      shards = static_cast<size_t>(std::atoi(args[++i].c_str()));
      if (shards == 0) return Fail("--shards must be positive");
    } else if (args[i] == "--batch-size" && i + 1 < args.size()) {
      batch_size = static_cast<size_t>(std::atoi(args[++i].c_str()));
      if (batch_size == 0) return Fail("--batch-size must be positive");
    } else if (args[i] == "--no-batch-fuse") {
      batch_fuse = false;
    } else if (args[i] == "--save-engine" && i + 1 < args.size()) {
      save_engine = args[++i];
    } else if (args[i] == "--load-engine" && i + 1 < args.size()) {
      load_engine = args[++i];
    } else if (args[i] == "--metrics-out" && i + 1 < args.size()) {
      metrics_out = args[++i];
    } else if (args[i] == "--trace-out" && i + 1 < args.size()) {
      trace_out = args[++i];
    } else {
      labels.push_back(args[i]);
    }
  }
  if (labels.empty()) return Fail("no query entity labels given");
  if (!trace_out.empty()) obs::SetTracingEnabled(true);

  LoadedLake lake;
  if (int rc = LoadLake(dir, &lake); rc != 0) return rc;
  if (use_embeddings && !lake.embeddings) {
    return Fail("no embeddings.txt in " + dir + "; use --sim types");
  }

  Query query;
  query.tuples.emplace_back();
  for (const std::string& label : labels) {
    auto e = lake.kg.FindByLabel(label);
    if (!e.ok()) return Fail("entity '" + label + "' not in the KG");
    query.tuples[0].push_back(e.value());
  }

  SemanticDataLake sem(&lake.corpus, &lake.kg);
  TypeJaccardSimilarity types(&lake.kg);
  std::unique_ptr<EmbeddingCosineSimilarity> cosine;
  if (lake.embeddings) {
    cosine = std::make_unique<EmbeddingCosineSimilarity>(lake.embeddings.get());
  }
  SearchOptions options;
  options.top_k = k;
  options.enable_cache = use_cache;
  options.enable_prune = use_prune;
  options.bound_backend = bound_backend;
  options.build_threads = build_threads;
  options.num_shards = shards;

  // The engine either comes back from a snapshot (mmap + validation, no
  // offline build) or is built from the lake; either way the query path
  // below sees one `engine` and one optional `lsei`.
  std::unique_ptr<LoadedEngine> loaded;
  std::unique_ptr<SearchEngine> built_engine;
  std::unique_ptr<Lsei> built_lsei;
  const SearchEngine* engine = nullptr;
  const Lsei* lsei = nullptr;
  if (!load_engine.empty()) {
    Stopwatch load_watch;
    LoadedEngine::Options load_options;
    load_options.search = options;
    auto restored = LoadedEngine::Load(load_engine, &sem, load_options);
    if (!restored.ok()) {
      return Fail("loading engine snapshot: " + restored.status().ToString(),
                  2);
    }
    loaded = std::move(restored).value();
    engine = &loaded->engine();
    lsei = loaded->lsei();
    std::printf("engine restored from %s (%.1f MiB mapped, sim=%s%s) in "
                "%.1f ms\n",
                load_engine.c_str(),
                static_cast<double>(loaded->mapped_bytes()) / (1024.0 * 1024.0),
                loaded->similarity().name().c_str(),
                lsei != nullptr ? ", +lsei" : "", load_watch.ElapsedMillis());
    if (use_lsh && lsei == nullptr) {
      return Fail("snapshot has no LSEI; re-save it with --lsh");
    }
    if (!use_lsh) lsei = nullptr;
  } else {
    built_engine = std::make_unique<SearchEngine>(
        &sem,
        use_embeddings ? static_cast<const EntitySimilarity*>(cosine.get())
                       : &types,
        options);
    engine = built_engine.get();
    if (use_lsh) {
      LseiOptions lsh;
      lsh.mode = use_embeddings ? LseiMode::kEmbeddings : LseiMode::kTypes;
      lsh.num_functions = 30;
      lsh.band_size = 10;
      lsh.num_threads = build_threads;
      built_lsei = std::make_unique<Lsei>(&sem, lake.embeddings.get(), lsh);
      lsei = built_lsei.get();
    }
    if (!save_engine.empty()) {
      EngineSnapshotParts parts;
      parts.lake = &sem;
      parts.engine = engine;
      parts.lsei = lsei;
      Status s = SaveEngineSnapshot(save_engine, parts);
      if (!s.ok()) {
        return Fail("saving engine snapshot: " + s.ToString(), 2);
      }
      std::printf("engine snapshot written to %s\n", save_engine.c_str());
    }
  }

  Stopwatch watch;
  std::vector<SearchHit> hits;
  SearchStats stats;
  std::string exec_mode = "per-query (direct engine)";
  if (threads > 0) {
    ThreadPool pool(threads);
    QueryExecutor executor(engine, &pool);
    if (lsei != nullptr) executor.EnablePrefilter(lsei, /*votes=*/3);
    executor.set_batch_size(batch_size);
    executor.set_batch_fuse(batch_fuse);
    exec_mode = std::string(executor.resolved_mode()) + " (batch-size " +
                std::to_string(executor.batch_size()) + ", " +
                std::to_string(threads) + " threads)";
    if (batch_size > 1) {
      // The fused plumbing runs even for a single query (a batch of one):
      // the CLI is the smoke test for exactly the path a server would use.
      std::vector<Query> batch{query};
      std::vector<QueryResult> results = executor.ExecuteBatch(batch);
      hits = std::move(results[0].hits);
      stats = results[0].stats;
    } else {
      QueryResult result = executor.Execute(query);
      hits = std::move(result.hits);
      stats = result.stats;
    }
  } else if (lsei != nullptr) {
    PrefilteredSearchEngine fast(engine, lsei, /*votes=*/3);
    hits = fast.Search(query, &stats);
  } else {
    hits = engine->Search(query, &stats);
  }
  double ms = watch.ElapsedMillis();

  std::printf("top-%zu of %zu scored tables (%.1f ms%s):\n", k,
              stats.tables_scored, ms,
              use_lsh ? (", " +
                         std::to_string(
                             static_cast<int>(100.0 *
                                              stats.search_space_reduction)) +
                         "% pruned by LSH")
                            .c_str()
                      : "");
  if (use_prune) {
    std::printf("prune: %zu of %zu candidates bounded away (backend %s)\n",
                stats.tables_pruned, stats.candidate_count,
                stats.bound_backend);
  }
  if (stats.num_shards > 1) {
    std::printf("shards: %zu searched scatter-gather (%zu floor publishes, "
                "%zu floor-only stops)\n",
                stats.num_shards, stats.floor_publishes, stats.floor_hits);
  }
  std::printf("exec: %s\n", exec_mode.c_str());
  if (use_cache) {
    size_t sim_lookups = stats.sim_cache_hits + stats.sim_cache_misses;
    size_t map_lookups =
        stats.mapping_cache_hits + stats.mapping_cache_misses;
    std::printf("cache: sigma %zu/%zu hits (%.0f%%), mappings %zu/%zu reused"
                " (%.0f%%)\n",
                stats.sim_cache_hits, sim_lookups,
                sim_lookups == 0 ? 0.0
                                 : 100.0 * static_cast<double>(
                                       stats.sim_cache_hits) /
                                       static_cast<double>(sim_lookups),
                stats.mapping_cache_hits, map_lookups,
                map_lookups == 0 ? 0.0
                                 : 100.0 * static_cast<double>(
                                       stats.mapping_cache_hits) /
                                       static_cast<double>(map_lookups));
  }
  for (const SearchHit& hit : hits) {
    std::printf("  %8.4f  %s\n", hit.score,
                lake.corpus.table(hit.table).name().c_str());
  }
  if (!metrics_out.empty()) {
    if (!obs::WriteMetricsFile(metrics_out)) {
      return Fail("cannot write metrics to " + metrics_out, 2);
    }
    std::printf("metrics written to %s\n", metrics_out.c_str());
  }
  if (!trace_out.empty()) {
    if (!obs::WriteChromeTraceFile(trace_out)) {
      return Fail("cannot write trace to " + trace_out, 2);
    }
    std::printf("trace written to %s\n", trace_out.c_str());
  }
  return 0;
}

// ---------------------------------------------------------------------------
// serve: NDJSON over stdin/stdout on top of ServeRuntime.
//
// The protocol is small enough that a hundred-line recursive-descent JSON
// reader beats a dependency (the build deliberately bakes in no JSON
// library). \uXXXX escapes outside ASCII decode to '?'.
// ---------------------------------------------------------------------------

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;                                  // kString
  std::vector<Json> items;                           // kArray
  std::vector<std::pair<std::string, Json>> fields;  // kObject

  const Json* Find(const std::string& key) const {
    for (const auto& field : fields) {
      if (field.first == key) return &field.second;
    }
    return nullptr;
  }
};

class JsonReader {
 public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  bool Parse(Json* out) {
    if (!ParseValue(out)) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\r' || text_[pos_] == '\n')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool ParseValue(Json* out) {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') return ParseObject(out);
    if (c == '[') return ParseArray(out);
    if (c == '"') {
      out->kind = Json::Kind::kString;
      return ParseString(&out->text);
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      out->kind = Json::Kind::kBool;
      out->boolean = true;
      pos_ += 4;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      out->kind = Json::Kind::kBool;
      out->boolean = false;
      pos_ += 5;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      out->kind = Json::Kind::kNull;
      pos_ += 4;
      return true;
    }
    char* end = nullptr;
    const double value = std::strtod(text_.c_str() + pos_, &end);
    if (end == text_.c_str() + pos_) return false;
    out->kind = Json::Kind::kNumber;
    out->number = value;
    pos_ = static_cast<size_t>(end - text_.c_str());
    return true;
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return false;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return false;
          char* end = nullptr;
          const std::string hex = text_.substr(pos_, 4);
          const long code = std::strtol(hex.c_str(), &end, 16);
          if (end != hex.c_str() + 4) return false;
          out->push_back(code < 0x80 ? static_cast<char>(code) : '?');
          pos_ += 4;
          break;
        }
        default:
          return false;
      }
    }
    return false;  // unterminated
  }

  bool ParseArray(Json* out) {
    if (!Consume('[')) return false;
    out->kind = Json::Kind::kArray;
    if (Consume(']')) return true;
    for (;;) {
      Json item;
      if (!ParseValue(&item)) return false;
      out->items.push_back(std::move(item));
      if (Consume(']')) return true;
      if (!Consume(',')) return false;
    }
  }

  bool ParseObject(Json* out) {
    if (!Consume('{')) return false;
    out->kind = Json::Kind::kObject;
    if (Consume('}')) return true;
    for (;;) {
      SkipSpace();
      std::string key;
      if (!ParseString(&key)) return false;
      if (!Consume(':')) return false;
      Json value;
      if (!ParseValue(&value)) return false;
      out->fields.emplace_back(std::move(key), std::move(value));
      if (Consume('}')) return true;
      if (!Consume(',')) return false;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

// One response line; every request, well- or mal-formed, gets exactly one.
void Respond(const std::string& body) {
  std::printf("%s\n", body.c_str());
  std::fflush(stdout);
}

void RespondError(const std::string& message) {
  Respond("{\"ok\":false,\"error\":\"" + JsonEscape(message) + "\"}");
}

// Builds a Table from {"name":..., "columns":[...], "rows":[[...], ...]}.
// String cells matching a KG entity label get linked; everything else is
// plain data. Returns false with `error` set on a malformed spec.
bool TableFromJson(const Json& spec, const KnowledgeGraph& kg, Table* out,
                   std::string* error) {
  const Json* name = spec.Find("name");
  const Json* columns = spec.Find("columns");
  if (name == nullptr || name->kind != Json::Kind::kString ||
      columns == nullptr || columns->kind != Json::Kind::kArray) {
    *error = "ingest table needs a \"name\" string and a \"columns\" array";
    return false;
  }
  std::vector<std::string> column_names;
  for (const Json& column : columns->items) {
    if (column.kind != Json::Kind::kString) {
      *error = "column names must be strings";
      return false;
    }
    column_names.push_back(column.text);
  }
  Table table(name->text, std::move(column_names));
  if (const Json* rows = spec.Find("rows")) {
    if (rows->kind != Json::Kind::kArray) {
      *error = "\"rows\" must be an array of arrays";
      return false;
    }
    for (const Json& row : rows->items) {
      if (row.kind != Json::Kind::kArray) {
        *error = "\"rows\" must be an array of arrays";
        return false;
      }
      std::vector<Value> values;
      std::vector<EntityId> links;
      for (const Json& cell : row.items) {
        if (cell.kind == Json::Kind::kString) {
          auto entity = kg.FindByLabel(cell.text);
          links.push_back(entity.ok() ? entity.value() : kNoEntity);
          values.push_back(Value::String(cell.text));
        } else if (cell.kind == Json::Kind::kNumber) {
          links.push_back(kNoEntity);
          values.push_back(Value::Number(cell.number));
        } else {
          links.push_back(kNoEntity);
          values.push_back(Value::Null());
        }
      }
      Status s = table.AppendRow(std::move(values), std::move(links));
      if (!s.ok()) {
        *error = "table '" + name->text + "': " + s.ToString();
        return false;
      }
    }
  }
  *out = std::move(table);
  return true;
}

int RunServe(const std::vector<std::string>& args) {
  if (args.empty()) return Usage();
  std::string dir = args[0];
  bool use_embeddings = false;
  bool use_lsh = false;
  size_t k = 10;
  size_t serve_workers = 2;
  size_t serve_queue = 256;
  size_t batch_size = 8;
  size_t linger_us = 200;
  size_t shards = 1;
  double deadline_ms = 0.0;
  std::string load_engine;
  std::string metrics_out;
  for (size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--sim" && i + 1 < args.size()) {
      const std::string& s = args[++i];
      if (s == "embeddings") {
        use_embeddings = true;
      } else if (s != "types") {
        return Fail("unknown similarity '" + s + "'");
      }
    } else if (args[i] == "--k" && i + 1 < args.size()) {
      k = static_cast<size_t>(std::atoi(args[++i].c_str()));
      if (k == 0) return Fail("--k must be positive");
    } else if (args[i] == "--lsh") {
      use_lsh = true;
    } else if (args[i] == "--serve-workers" && i + 1 < args.size()) {
      serve_workers = static_cast<size_t>(std::atoi(args[++i].c_str()));
      if (serve_workers == 0) return Fail("--serve-workers must be positive");
    } else if (args[i] == "--serve-queue" && i + 1 < args.size()) {
      serve_queue = static_cast<size_t>(std::atoi(args[++i].c_str()));
      if (serve_queue == 0) return Fail("--serve-queue must be positive");
    } else if (args[i] == "--deadline-ms" && i + 1 < args.size()) {
      deadline_ms = std::atof(args[++i].c_str());
      if (deadline_ms < 0.0) return Fail("--deadline-ms must be >= 0");
    } else if (args[i] == "--batch-size" && i + 1 < args.size()) {
      batch_size = static_cast<size_t>(std::atoi(args[++i].c_str()));
      if (batch_size == 0) return Fail("--batch-size must be positive");
    } else if (args[i] == "--linger-us" && i + 1 < args.size()) {
      linger_us = static_cast<size_t>(std::atoi(args[++i].c_str()));
    } else if (args[i] == "--shards" && i + 1 < args.size()) {
      shards = static_cast<size_t>(std::atoi(args[++i].c_str()));
      if (shards == 0) return Fail("--shards must be positive");
    } else if (args[i] == "--load-engine" && i + 1 < args.size()) {
      load_engine = args[++i];
    } else if (args[i] == "--metrics-out" && i + 1 < args.size()) {
      metrics_out = args[++i];
    } else {
      return Fail("unknown argument '" + args[i] + "'");
    }
  }

  LoadedLake lake;
  if (int rc = LoadLake(dir, &lake); rc != 0) return rc;
  if (use_embeddings && !lake.embeddings) {
    return Fail("no embeddings.txt in " + dir + "; use --sim types");
  }

  ServeOptions serve;
  serve.num_workers = serve_workers;
  serve.queue_capacity = serve_queue;
  serve.batch_size = batch_size;
  serve.linger_micros = linger_us;
  serve.deadline_seconds = deadline_ms / 1000.0;
  serve.enable_prefilter = use_lsh;
  serve.votes = 3;
  serve.search.top_k = k;
  serve.search.num_shards = shards;

  // Borrowed by the runtime for its whole life: declared before it.
  TypeJaccardSimilarity types(&lake.kg);
  std::unique_ptr<EmbeddingCosineSimilarity> cosine;
  if (lake.embeddings) {
    cosine = std::make_unique<EmbeddingCosineSimilarity>(lake.embeddings.get());
  }
  LseiOptions lsh;
  lsh.mode = use_embeddings ? LseiMode::kEmbeddings : LseiMode::kTypes;
  lsh.num_functions = 30;
  lsh.band_size = 10;

  std::unique_ptr<ServeRuntime> runtime;
  if (!load_engine.empty()) {
    // Cold start: epoch 0 borrows the mmap'd snapshot engine (and its LSEI
    // and similarity, overriding --sim/--lsh construction, like search).
    auto restored = ServeRuntime::FromSnapshot(load_engine,
                                               std::move(lake.corpus),
                                               &lake.kg, serve);
    if (!restored.ok()) {
      return Fail("loading engine snapshot: " + restored.status().ToString(),
                  2);
    }
    runtime = std::move(restored).value();
  } else {
    runtime = std::make_unique<ServeRuntime>(
        std::move(lake.corpus), &lake.kg,
        use_embeddings ? static_cast<const EntitySimilarity*>(cosine.get())
                       : &types,
        serve, lake.embeddings.get(), use_lsh ? &lsh : nullptr);
  }
  char deadline_text[32] = "none";
  if (deadline_ms > 0.0) {
    std::snprintf(deadline_text, sizeof(deadline_text), "%.1f ms",
                  deadline_ms);
  }
  std::fprintf(stderr,
               "serving epoch %llu on %zu workers (queue %zu, batch %zu, "
               "deadline %s); one JSON request per stdin line, EOF stops\n",
               static_cast<unsigned long long>(runtime->current_epoch_id()),
               runtime->num_workers(), serve_queue, batch_size,
               deadline_text);

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.find_first_not_of(" \t\r\n") == std::string::npos) continue;
    Json request;
    JsonReader reader(line);
    if (!reader.Parse(&request) || request.kind != Json::Kind::kObject) {
      RespondError("malformed JSON request");
      continue;
    }

    if (const Json* q = request.Find("query")) {
      if (q->kind != Json::Kind::kArray || q->items.empty()) {
        RespondError("\"query\" must be a non-empty array of entity labels");
        continue;
      }
      Query query;
      query.tuples.emplace_back();
      std::string bad_label;
      for (const Json& item : q->items) {
        if (item.kind != Json::Kind::kString) {
          bad_label = "(non-string)";
          break;
        }
        auto entity = lake.kg.FindByLabel(item.text);
        if (!entity.ok()) {
          bad_label = item.text;
          break;
        }
        query.tuples[0].push_back(entity.value());
      }
      if (!bad_label.empty()) {
        RespondError("entity '" + bad_label + "' not in the KG");
        continue;
      }
      ServeResponse response = runtime->Submit(std::move(query)).get();
      char head[160];
      std::snprintf(head, sizeof(head),
                    "{\"ok\":%s,\"epoch\":%llu,\"status\":\"%s\","
                    "\"latency_ms\":%.3f",
                    response.status.ok() ? "true" : "false",
                    static_cast<unsigned long long>(response.epoch_id),
                    StatusCodeName(response.status.code()),
                    response.latency_seconds * 1e3);
      std::string body = head;
      if (response.status.ok()) {
        // This loop is the runtime's only writer, so the current epoch is
        // the response's epoch; names are stable anyway (TableIds are
        // append-only and deleted names stay reserved through compaction).
        EpochRegistry::Pin pin = runtime->PinCurrent();
        const Corpus& corpus = pin->engine->lake()->corpus();
        body += ",\"hits\":[";
        for (size_t i = 0; i < response.hits.size(); ++i) {
          const SearchHit& hit = response.hits[i];
          char entry[64];
          std::snprintf(entry, sizeof(entry), "%s{\"score\":%.6f,\"table\":",
                        i == 0 ? "" : ",", hit.score);
          body += entry;
          body += "\"" + JsonEscape(corpus.table(hit.table).name()) + "\"}";
        }
        body += "]}";
      } else {
        body += ",\"error\":\"" + JsonEscape(response.status.ToString()) +
                "\"}";
      }
      Respond(body);
    } else if (const Json* ingest = request.Find("ingest")) {
      if (ingest->kind != Json::Kind::kArray || ingest->items.empty()) {
        RespondError("\"ingest\" must be a non-empty array of table specs");
        continue;
      }
      std::vector<Table> tables;
      std::string error;
      for (const Json& spec : ingest->items) {
        Table table;
        if (!TableFromJson(spec, lake.kg, &table, &error)) break;
        tables.push_back(std::move(table));
      }
      if (!error.empty()) {
        RespondError(error);
        continue;
      }
      const size_t count = tables.size();
      auto epoch = runtime->IngestTables(std::move(tables));
      if (!epoch.ok()) {
        RespondError(epoch.status().ToString());
        continue;
      }
      char buf[96];
      std::snprintf(buf, sizeof(buf),
                    "{\"ok\":true,\"epoch\":%llu,\"tables\":%zu}",
                    static_cast<unsigned long long>(epoch.value()), count);
      Respond(buf);
    } else if (const Json* del = request.Find("delete")) {
      if (del->kind != Json::Kind::kString) {
        RespondError("\"delete\" must be a table name string");
        continue;
      }
      auto epoch = runtime->DeleteTable(del->text);
      if (!epoch.ok()) {
        RespondError(epoch.status().ToString());
        continue;
      }
      char buf[64];
      std::snprintf(buf, sizeof(buf), "{\"ok\":true,\"epoch\":%llu}",
                    static_cast<unsigned long long>(epoch.value()));
      Respond(buf);
    } else if (request.Find("stats") != nullptr) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "{\"ok\":true,\"epoch\":%llu,\"hot_swaps\":%llu,"
                    "\"workers\":%zu}",
                    static_cast<unsigned long long>(
                        runtime->current_epoch_id()),
                    static_cast<unsigned long long>(runtime->hot_swaps()),
                    runtime->num_workers());
      Respond(buf);
    } else {
      RespondError("expected one of \"query\", \"ingest\", \"delete\", "
                   "\"stats\"");
    }
  }

  runtime->Stop();
  std::fprintf(stderr, "served until EOF: epoch %llu, %llu hot-swaps\n",
               static_cast<unsigned long long>(runtime->current_epoch_id()),
               static_cast<unsigned long long>(runtime->hot_swaps()));
  if (!metrics_out.empty()) {
    if (!obs::WriteMetricsFile(metrics_out)) {
      return Fail("cannot write metrics to " + metrics_out, 2);
    }
    std::fprintf(stderr, "metrics written to %s\n", metrics_out.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "generate") return RunGenerate(args);
  if (command == "stats") return RunStats(args);
  if (command == "search") return RunSearch(args);
  if (command == "serve") return RunServe(args);
  return Usage();
}
