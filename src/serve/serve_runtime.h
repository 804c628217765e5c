#ifndef THETIS_SERVE_SERVE_RUNTIME_H_
#define THETIS_SERVE_SERVE_RUNTIME_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/search_engine.h"
#include "embedding/embedding_store.h"
#include "exec/query_executor.h"
#include "io/engine_snapshot.h"
#include "kg/knowledge_graph.h"
#include "lsh/lsei.h"
#include "serve/bounded_queue.h"
#include "serve/epoch_registry.h"
#include "table/corpus.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace thetis {

struct ServeOptions {
  // Request-loop worker threads (0 = hardware concurrency). Each worker
  // owns one admission queue and executes its dequeued batches inline, so
  // the natural unit of parallelism is the worker, matching QueryExecutor's
  // one-query-per-worker model.
  size_t num_workers = 2;
  // Per-worker admission queue capacity (rounded up to a power of two).
  // When every queue is full, Submit sheds the request immediately with
  // ResourceExhausted instead of blocking the client thread.
  size_t queue_capacity = 256;
  // Max queries fused into one engine batch per dequeue sweep (1 = no
  // fusion). Workers close a partially filled batch after `linger_micros`
  // so bursts fuse without isolated queries paying a full linger.
  size_t batch_size = 8;
  size_t linger_micros = 200;
  // Per-query execution deadline (0 = none), applied as
  // SearchOptions::deadline_seconds on every epoch's engine. Queries whose
  // whole budget already elapsed in the admission queue are shed at
  // dequeue (ResourceExhausted) without touching the engine.
  double deadline_seconds = 0.0;
  // Route queries through the epoch's LSEI prefilter (requires an LSEI:
  // build options passed at construction, or one restored from the
  // snapshot). Prefiltered execution is per-query, not fused.
  bool enable_prefilter = false;
  size_t votes = 1;
  // Engine options every epoch is built with (top_k, aggregation, shard
  // count, bound backend, ...). deadline_seconds/tombstones/build_threads
  // in here are overwritten by the runtime.
  SearchOptions search;
  // Writer-side build parallelism for successor epochs. Readers never see
  // build cost regardless of this value.
  size_t build_threads = 1;
};

// One served query's outcome. `status` is OK for a complete exact ranking,
// ResourceExhausted for a shed query (admission queue full, or deadline
// already spent in queue), DeadlineExceeded when the engine aborted on its
// budget. `epoch_id` names the engine epoch that produced the ranking —
// rankings are bit-identical to an offline engine built over that epoch's
// exact corpus state, which is what the parity harness asserts.
struct ServeResponse {
  Status status;
  std::vector<SearchHit> hits;
  SearchStats stats;
  uint64_t epoch_id = 0;
  // Submit-to-response wall time (queue wait + execution).
  double latency_seconds = 0.0;
};

// The concurrent serving runtime: a long-running process answering queries
// from many client threads while a single writer applies live ingest and
// deletes, with three guarantees:
//
//  1. Readers never block on the writer (and vice versa). A query pins the
//     current immutable engine epoch through the EpochRegistry — two
//     atomic ops on a cache-line-private counter, no shared mutex anywhere
//     between request arrival and ranking.
//  2. Every ranking is exact against exactly one epoch. Ingest publishes a
//     fully built successor world (corpus clone + lake + engine + LSEI);
//     deletes publish a thin re-skin (view shards over the base epoch's
//     arenas + an extended tombstone set). In-flight queries keep the
//     epoch they pinned; it is destroyed only after their pins drain.
//  3. Overload degrades predictably. Bounded admission queues shed with
//     ResourceExhausted instead of queueing unboundedly, and per-query
//     deadline budgets abort all-or-nothing with DeadlineExceeded — a
//     returned ranking is never partial.
//
// Deletes tombstone immediately (no rebuild); the next ingest folds the
// tombstones into the master corpus (compaction: deleted tables are
// blanked, their names stay reserved) so successor epochs start clean.
//
// Thread-safety: Submit may be called from any number of threads.
// IngestTables/DeleteTable serialize on an internal writer mutex (callers
// may race; the registry still sees a single logical writer). Stop()/the
// destructor must not race Submit.
class ServeRuntime {
 public:
  // Serves `initial` (moved in) with a fresh offline build as epoch 0.
  // `kg` and `sim` are borrowed and must outlive the runtime. When
  // `lsei_options` is non-null an LSEI is built over the master lake and
  // cloned into every epoch (`embeddings` is required for kEmbeddings
  // mode, ignored otherwise).
  ServeRuntime(Corpus initial, const KnowledgeGraph* kg,
               const EntitySimilarity* sim, ServeOptions options,
               const EmbeddingStore* embeddings = nullptr,
               const LseiOptions* lsei_options = nullptr);

  // Cold start from an engine snapshot (src/io): epoch 0 borrows the
  // mmap'd engine/LSEI from the LoadedEngine instead of rebuilding, so
  // startup is the mmap plus validation. `corpus` must be the corpus the
  // snapshot was saved over (the loader's lake fingerprint enforces it).
  // The mapping is kept alive for the runtime's whole life — later epochs'
  // LSEI clones and delete re-skins may still view it.
  static Result<std::unique_ptr<ServeRuntime>> FromSnapshot(
      const std::string& path, Corpus corpus, const KnowledgeGraph* kg,
      ServeOptions options);

  ~ServeRuntime();
  ServeRuntime(const ServeRuntime&) = delete;
  ServeRuntime& operator=(const ServeRuntime&) = delete;

  // Enqueues one query. The future resolves when a worker finishes it (or
  // immediately on shed). Never blocks beyond the queue push.
  std::future<ServeResponse> Submit(Query query);

  // Writer API. Both publish a successor epoch and return its id; neither
  // ever blocks a reader. IngestTables fails (publishing nothing) on a
  // duplicate table name; DeleteTable fails on an unknown name.
  Result<uint64_t> IngestTables(std::vector<Table> tables);
  Result<uint64_t> DeleteTable(const std::string& name);

  // Pins the current epoch for direct (non-queued) inspection — what a
  // query submitted now would execute against. Used by tests and the
  // parity harness.
  EpochRegistry::Pin PinCurrent() { return registry_.PinCurrent(); }

  uint64_t current_epoch_id() const {
    return current_epoch_id_.load(std::memory_order_relaxed);
  }
  // Epochs published after the initial one (i.e. live hot-swaps).
  uint64_t hot_swaps() const {
    return hot_swaps_.load(std::memory_order_relaxed);
  }
  size_t num_workers() const { return workers_.size(); }
  const ServeOptions& options() const { return options_; }

  // Stops the workers, completes queued requests, sheds any stragglers.
  // Idempotent; called by the destructor.
  void Stop();

 private:
  struct Request {
    Query query;
    std::chrono::steady_clock::time_point arrival;
    std::promise<ServeResponse> promise;
  };
  struct SnapshotTag {};

  ServeRuntime(SnapshotTag, ServeOptions options, const KnowledgeGraph* kg);

  // Engine options for a new epoch: the configured search options with the
  // runtime's deadline/build settings and `tombstones` spliced in.
  SearchOptions EpochSearchOptions(
      std::shared_ptr<const TableTombstones> tombstones) const;

  // Writer mutex held by all three. BuildFullEpoch clones the master
  // world; BuildDeleteEpoch re-skins the current epoch's base with view
  // shards and an extended tombstone set.
  std::shared_ptr<EngineEpoch> BuildFullEpoch();
  std::shared_ptr<EngineEpoch> BuildDeleteEpoch(TableId id);
  void PublishEpoch(std::shared_ptr<const EngineEpoch> epoch);

  void StartWorkers();
  void WorkerLoop(size_t worker);
  void ProcessBatch(ThreadPool* pool, std::vector<Request> batch);
  void ShedRequest(Request req);

  ServeOptions options_;
  const KnowledgeGraph* kg_;
  const EntitySimilarity* sim_ = nullptr;

  // Snapshot cold start only: the mmap'd artifact every borrowing epoch
  // views. Declared before the registry so it outlives all epochs.
  std::shared_ptr<const LoadedEngine> loaded_;

  // Writer-owned master state: the one mutable world ingest applies to.
  // Each full epoch clones the master corpus, sharing its tables; a table
  // the writer compacts is copied first while an epoch still holds it
  // (Corpus::mutable_table), and epochs are cloned and destroyed only on
  // the writer side, so readers and the writer share no mutable structure.
  Corpus master_corpus_;
  std::unique_ptr<SemanticDataLake> master_lake_;
  std::unique_ptr<Lsei> master_lsei_;

  std::mutex writer_mutex_;
  uint64_t epoch_counter_ = 0;  // guarded by writer_mutex_
  // The writer's view of the latest epoch (base for delete re-skins).
  std::shared_ptr<const EngineEpoch> writer_current_;  // guarded

  std::atomic<uint64_t> current_epoch_id_{0};
  std::atomic<uint64_t> hot_swaps_{0};

  EpochRegistry registry_;

  std::vector<std::unique_ptr<BoundedQueue<Request>>> queues_;
  std::atomic<size_t> next_queue_{0};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> workers_;
};

}  // namespace thetis

#endif  // THETIS_SERVE_SERVE_RUNTIME_H_
