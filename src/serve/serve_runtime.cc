#include "serve/serve_runtime.h"

#include <algorithm>
#include <utility>

#include "core/corpus_index.h"
#include "obs/query_metrics.h"
#include "util/logging.h"

namespace thetis {

namespace {

ServeOptions Normalize(ServeOptions options) {
  if (options.num_workers == 0) {
    options.num_workers = std::max(1u, std::thread::hardware_concurrency());
  }
  if (options.batch_size == 0) options.batch_size = 1;
  if (options.queue_capacity < 2) options.queue_capacity = 2;
  if (options.votes == 0) options.votes = 1;
  return options;
}

double SecondsSince(std::chrono::steady_clock::time_point t0,
                    std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

ServeRuntime::ServeRuntime(SnapshotTag, ServeOptions options,
                           const KnowledgeGraph* kg)
    : options_(Normalize(std::move(options))), kg_(kg) {
  THETIS_CHECK(kg_ != nullptr);
}

ServeRuntime::ServeRuntime(Corpus initial, const KnowledgeGraph* kg,
                           const EntitySimilarity* sim, ServeOptions options,
                           const EmbeddingStore* embeddings,
                           const LseiOptions* lsei_options)
    : options_(Normalize(std::move(options))),
      kg_(kg),
      sim_(sim),
      master_corpus_(std::move(initial)) {
  THETIS_CHECK(kg_ != nullptr && sim_ != nullptr);
  master_lake_ = std::make_unique<SemanticDataLake>(&master_corpus_, kg_);
  if (lsei_options != nullptr) {
    master_lsei_ =
        std::make_unique<Lsei>(master_lake_.get(), embeddings, *lsei_options);
  }
  std::lock_guard<std::mutex> lock(writer_mutex_);
  PublishEpoch(BuildFullEpoch());
  StartWorkers();
}

Result<std::unique_ptr<ServeRuntime>> ServeRuntime::FromSnapshot(
    const std::string& path, Corpus corpus, const KnowledgeGraph* kg,
    ServeOptions options) {
  std::unique_ptr<ServeRuntime> runtime(
      new ServeRuntime(SnapshotTag{}, std::move(options), kg));
  runtime->master_corpus_ = std::move(corpus);
  runtime->master_lake_ =
      std::make_unique<SemanticDataLake>(&runtime->master_corpus_, kg);

  // Epoch 0 gets its OWN corpus clone and lake: the master lake is mutated
  // by ingest, so no published epoch may ever read it. The snapshot is
  // loaded against the epoch's lake, binding the restored engine to the
  // immutable world readers will pin.
  auto epoch = std::make_shared<EngineEpoch>();
  epoch->id = runtime->epoch_counter_++;
  auto epoch_corpus =
      std::make_unique<Corpus>(runtime->master_corpus_.Clone());
  auto epoch_lake =
      std::make_unique<SemanticDataLake>(epoch_corpus.get(), kg);
  LoadedEngine::Options load_options;
  load_options.search = runtime->EpochSearchOptions(nullptr);
  auto loaded = LoadedEngine::Load(path, epoch_lake.get(), load_options);
  if (!loaded.ok()) return loaded.status();
  runtime->loaded_ =
      std::shared_ptr<const LoadedEngine>(std::move(loaded).value());
  runtime->sim_ = &runtime->loaded_->similarity();
  if (runtime->loaded_->lsei() != nullptr) {
    // The master LSEI thaws the snapshot's frozen structures copy-on-write
    // as ingest inserts new content; the mmap stays the backing store for
    // everything untouched (loaded_ outlives every epoch).
    runtime->master_lsei_ = std::make_unique<Lsei>(
        runtime->loaded_->lsei()->CloneRebound(runtime->master_lake_.get()));
  }
  epoch->loaded = runtime->loaded_;
  epoch->engine = &runtime->loaded_->engine();
  epoch->lsei = runtime->loaded_->lsei();
  epoch->corpus = std::move(epoch_corpus);
  epoch->lake = std::move(epoch_lake);

  std::lock_guard<std::mutex> lock(runtime->writer_mutex_);
  runtime->PublishEpoch(std::move(epoch));
  runtime->StartWorkers();
  return runtime;
}

ServeRuntime::~ServeRuntime() { Stop(); }

SearchOptions ServeRuntime::EpochSearchOptions(
    std::shared_ptr<const TableTombstones> tombstones) const {
  SearchOptions search = options_.search;
  search.deadline_seconds = options_.deadline_seconds;
  search.build_threads = options_.build_threads;
  search.tombstones = std::move(tombstones);
  return search;
}

std::shared_ptr<EngineEpoch> ServeRuntime::BuildFullEpoch() {
  auto epoch = std::make_shared<EngineEpoch>();
  epoch->id = epoch_counter_++;
  auto corpus = std::make_unique<Corpus>(master_corpus_.Clone());
  auto lake = std::make_unique<SemanticDataLake>(corpus.get(), kg_);
  std::unique_ptr<Lsei> lsei;
  if (master_lsei_ != nullptr) {
    lsei = std::make_unique<Lsei>(master_lsei_->CloneRebound(lake.get()));
  }
  auto engine = std::make_unique<SearchEngine>(lake.get(), sim_,
                                               EpochSearchOptions(nullptr));
  epoch->engine = engine.get();
  epoch->lsei = lsei.get();
  epoch->corpus = std::move(corpus);
  epoch->lake = std::move(lake);
  epoch->lsei_owned = std::move(lsei);
  epoch->engine_owned = std::move(engine);
  return epoch;
}

std::shared_ptr<EngineEpoch> ServeRuntime::BuildDeleteEpoch(TableId id) {
  const std::shared_ptr<const EngineEpoch>& cur = writer_current_;
  THETIS_CHECK(cur != nullptr);
  // One-hop base chain: a re-skin of a re-skin still borrows from the
  // underlying full epoch, so retiring an intermediate re-skin never
  // strands storage and chains never grow.
  std::shared_ptr<const EngineEpoch> base =
      cur->base != nullptr ? cur->base : cur;

  auto tombstones = std::make_shared<TableTombstones>(
      cur->tombstones != nullptr ? *cur->tombstones : TableTombstones());
  tombstones->Add(id);

  auto epoch = std::make_shared<EngineEpoch>();
  epoch->id = epoch_counter_++;
  epoch->base = base;
  epoch->loaded = base->loaded;
  epoch->tombstones = tombstones;

  // Re-skin: the successor engine adopts VIEWS of the base epoch's arenas
  // and signature indexes (zero copies — `base` keeps the storage alive),
  // so publishing a delete costs per-shard header setup, not a rebuild.
  SearchEngine::Prebuilt prebuilt;
  prebuilt.shards.reserve(base->engine->shards().size());
  for (const EngineShard& shard : base->engine->shards()) {
    EngineShard view;
    view.begin = shard.begin;
    view.end = shard.end;
    view.arena = CorpusColumnArena::FromSnapshotView(
        shard.arena.table_offsets(), shard.arena.col_offsets(),
        shard.arena.distinct(), shard.arena.counts());
    view.signatures.entity_classes =
        FlatArray<uint32_t>::View(shard.signatures.entity_classes.span());
    view.signatures.table_signatures =
        FlatArray<uint32_t>::View(shard.signatures.table_signatures.span());
    view.signatures.num_distinct = shard.signatures.num_distinct;
    view.signatures.table_base = shard.signatures.table_base;
    prebuilt.shards.push_back(std::move(view));
  }
  prebuilt.row_counts = base->engine->RowCounts();
  auto engine = std::make_unique<SearchEngine>(
      base->engine->lake(), base->engine->similarity(),
      EpochSearchOptions(tombstones), std::move(prebuilt));
  epoch->engine = engine.get();
  epoch->engine_owned = std::move(engine);
  epoch->lsei = base->lsei;
  return epoch;
}

void ServeRuntime::PublishEpoch(std::shared_ptr<const EngineEpoch> epoch) {
  const bool is_swap = writer_current_ != nullptr;
  writer_current_ = epoch;
  current_epoch_id_.store(epoch->id, std::memory_order_relaxed);
  registry_.Publish(std::move(epoch));
  if (is_swap) hot_swaps_.fetch_add(1, std::memory_order_relaxed);
}

Result<uint64_t> ServeRuntime::IngestTables(std::vector<Table> tables) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  // Compaction: fold the tombstones in force into the master corpus by
  // blanking each deleted table (its name stays reserved; TableIds are
  // append-only and never reassigned). The successor epoch's freshly
  // built lake and arenas then see no trace of the deleted content, so
  // the new epoch starts with an empty tombstone set.
  const std::shared_ptr<const EngineEpoch> cur = writer_current_;
  if (cur != nullptr && cur->tombstones != nullptr &&
      !cur->tombstones->empty()) {
    for (TableId id = 0; id < master_corpus_.size(); ++id) {
      if (cur->tombstones->Contains(id)) {
        Table* table = master_corpus_.mutable_table(id);
        *table = Table(table->name(), {});
      }
    }
  }
  for (Table& table : tables) {
    Result<TableId> added = master_corpus_.AddTable(std::move(table));
    if (!added.ok()) return added.status();
  }
  master_lake_->IngestNewTables();
  if (master_lsei_ != nullptr) master_lsei_->IngestNewContent();
  std::shared_ptr<EngineEpoch> epoch = BuildFullEpoch();
  const uint64_t id = epoch->id;
  PublishEpoch(std::move(epoch));
  return id;
}

Result<uint64_t> ServeRuntime::DeleteTable(const std::string& name) {
  std::lock_guard<std::mutex> lock(writer_mutex_);
  Result<TableId> found = master_corpus_.FindByName(name);
  if (!found.ok()) return found.status();
  std::shared_ptr<EngineEpoch> epoch = BuildDeleteEpoch(found.value());
  const uint64_t id = epoch->id;
  PublishEpoch(std::move(epoch));
  return id;
}

void ServeRuntime::StartWorkers() {
  queues_.reserve(options_.num_workers);
  workers_.reserve(options_.num_workers);
  for (size_t w = 0; w < options_.num_workers; ++w) {
    queues_.push_back(
        std::make_unique<BoundedQueue<Request>>(options_.queue_capacity));
  }
  for (size_t w = 0; w < options_.num_workers; ++w) {
    workers_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

std::future<ServeResponse> ServeRuntime::Submit(Query query) {
  Request request;
  request.query = std::move(query);
  request.arrival = std::chrono::steady_clock::now();
  std::future<ServeResponse> future = request.promise.get_future();
  if (stop_.load(std::memory_order_acquire) || queues_.empty()) {
    ShedRequest(std::move(request));
    return future;
  }
  // Round-robin with one failover sweep: a full queue spills to its
  // neighbors before the request is shed, so a single slow worker does not
  // shed traffic the others could absorb.
  const size_t start = next_queue_.fetch_add(1, std::memory_order_relaxed);
  for (size_t i = 0; i < queues_.size(); ++i) {
    if (queues_[(start + i) % queues_.size()]->TryPush(std::move(request))) {
      return future;
    }
  }
  ShedRequest(std::move(request));
  return future;
}

void ServeRuntime::ShedRequest(Request request) {
  ServeResponse response;
  response.stats.shed = 1;
  response.status = StatusFromStats(response.stats);
  response.epoch_id = current_epoch_id();
  response.latency_seconds =
      SecondsSince(request.arrival, std::chrono::steady_clock::now());
  obs::RecordQueryShed();
  obs::RecordServeRequest(response.latency_seconds);
  request.promise.set_value(std::move(response));
}

void ServeRuntime::WorkerLoop(size_t worker) {
  // The per-worker pool has one (inline) thread: QueryExecutor parallelism
  // is ACROSS workers here, each worker running its batches serially —
  // which is exactly the fused path's execution model.
  ThreadPool pool(1);
  BoundedQueue<Request>& queue = *queues_[worker];
  std::vector<Request> batch;
  batch.reserve(options_.batch_size);
  for (;;) {
    batch.clear();
    Request request;
    while (batch.size() < options_.batch_size && queue.TryPop(&request)) {
      batch.push_back(std::move(request));
    }
    if (batch.empty()) {
      // Drain before exit: a stop arriving mid-burst still completes every
      // admitted request (Submit rejects new ones once stop_ is set).
      if (stop_.load(std::memory_order_acquire)) return;
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      continue;
    }
    if (batch.size() < options_.batch_size && options_.linger_micros > 0 &&
        !stop_.load(std::memory_order_acquire)) {
      // Adaptive close: linger briefly for followers so bursts fuse, then
      // ship whatever arrived. Isolated queries pay at most the linger.
      const auto close =
          std::chrono::steady_clock::now() +
          std::chrono::microseconds(options_.linger_micros);
      while (batch.size() < options_.batch_size &&
             std::chrono::steady_clock::now() < close) {
        if (queue.TryPop(&request)) {
          batch.push_back(std::move(request));
        } else {
          std::this_thread::yield();
        }
      }
    }
    ProcessBatch(&pool, std::move(batch));
    batch.reserve(options_.batch_size);
  }
}

void ServeRuntime::ProcessBatch(ThreadPool* pool,
                                std::vector<Request> batch) {
  // Shed-at-dequeue: a query whose whole deadline budget elapsed while
  // queued cannot possibly answer in time — refuse it without touching
  // the engine (ResourceExhausted, like an admission shed; the engine's
  // own DeadlineExceeded is reserved for queries that actually ran).
  std::vector<Request> run;
  run.reserve(batch.size());
  const auto dequeued = std::chrono::steady_clock::now();
  for (Request& request : batch) {
    if (options_.deadline_seconds > 0.0 &&
        SecondsSince(request.arrival, dequeued) >= options_.deadline_seconds) {
      ShedRequest(std::move(request));
    } else {
      run.push_back(std::move(request));
    }
  }
  if (run.empty()) return;

  // THE reader hot path: one pin covers the whole batch. No lock is taken
  // between here and the ranking; the pinned epoch is immutable and cannot
  // be retired until the pin releases.
  EpochRegistry::Pin pin = registry_.PinCurrent();
  THETIS_CHECK(pin);  // epoch 0 is published before workers start

  std::vector<Query> queries;
  queries.reserve(run.size());
  for (Request& request : run) queries.push_back(std::move(request.query));

  QueryExecutor executor(pin->engine, pool);
  if (options_.enable_prefilter && pin->lsei != nullptr) {
    executor.EnablePrefilter(pin->lsei, options_.votes);
  }
  executor.set_batch_size(options_.batch_size);
  obs::RecordServeBatch(run.size());
  std::vector<QueryResult> results = executor.ExecuteBatch(queries);

  const auto done = std::chrono::steady_clock::now();
  for (size_t i = 0; i < run.size(); ++i) {
    ServeResponse response;
    response.status = std::move(results[i].status);
    response.hits = std::move(results[i].hits);
    response.stats = results[i].stats;
    response.epoch_id = pin->id;
    response.latency_seconds = SecondsSince(run[i].arrival, done);
    obs::RecordServeRequest(response.latency_seconds);
    run[i].promise.set_value(std::move(response));
  }
}

void ServeRuntime::Stop() {
  if (stop_.exchange(true, std::memory_order_acq_rel)) return;
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  // Fulfill anything that slipped in after the workers drained.
  for (auto& queue : queues_) {
    Request request;
    while (queue->TryPop(&request)) ShedRequest(std::move(request));
  }
  registry_.TryRetire();
}

}  // namespace thetis
