// The repository benchmark: drives one named workload from a seed through
// Thetis's public APIs, checks every ranking for exactness and prints one
// JSON line of metrics. See perfbench/README.md for why each workload
// exists and which layer metric should move which end-to-end metric.
//
//   thetis_perfbench --workload serve-churn|analyst-embed
//                    --seed N --seconds S --trace 0|1 --work-dir DIR
//
// --trace 0 prints the end-to-end metrics; --trace 1 turns on the span
// recorder and prints the per-layer metrics (spans go to DIR as JSON).
// Exit code 0 only when every check passed.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "benchgen/benchmark_factory.h"
#include "benchgen/ground_truth.h"
#include "benchgen/metrics.h"
#include "core/search_engine.h"
#include "core/similarity.h"
#include "embedding/skipgram.h"
#include "exec/query_executor.h"
#include "io/engine_snapshot.h"
#include "lib.h"
#include "lsh/lsei.h"
#include "serve/serve_runtime.h"
#include "util/thread_pool.h"

namespace thetis::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

Clock::duration ToDuration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

// ------------------------------------------------------------ constants

// Every workload serves the same fixed WT2015-like lake (~2000 tables) and
// draws its requests from a fixed pool of queries. The seed draws the
// traffic: which pool query each request sends, when it arrives, and which
// tables the writer deletes. Runs with different seeds thus measure the
// same system on differently ordered traffic, and the per-seed mix of a
// window of thousands of requests varies little.
constexpr uint64_t kLakeSeed = 101;
constexpr uint64_t kPoolSeed = 303;
constexpr double kLakeScale = 1.0;
constexpr size_t kTopK = 10;
constexpr size_t kQueryPool = 256;

// Serving configuration of serve-churn.
constexpr size_t kServeWorkers = 2;
constexpr size_t kServeBatch = 8;
constexpr size_t kLingerMicros = 200;
constexpr double kDeadlineSeconds = 0.5;

// serve-churn: open-loop rate, ladder, and the writer's cadence.
constexpr double kChurnRate = 70.0;
constexpr double kChurnSloMs = 25.0;
const std::vector<double> kChurnLadder = {60, 80, 100, 120, 140, 160,
                                          180, 200, 240, 280, 320};
constexpr double kWritePeriodSeconds = 0.25;  // one write per period
constexpr size_t kIngestEvery = 4;            // every 4th write ingests
constexpr size_t kIngestTables = 4;
constexpr size_t kIngestPoolTables = 200;     // held out of the initial lake

// analyst-embed: 4 shards searched by the client plus 3 pool threads.
constexpr size_t kAnalystShards = 4;
constexpr size_t kAnalystPoolThreads = 3;

// Set-up is sampled this many times before the measured window and as many
// times after it: the host runs slow for seconds at a time, and set-ups
// half a minute apart rarely share a slow phase.
constexpr size_t kSetupRepeats = 8;
constexpr size_t kAnalystSetupRepeats = 3;
// Requests per slice of a window for the sliced percentiles: 200 leaves 20
// samples beyond each slice's p90.
constexpr size_t kSlice = 200;
constexpr double kWarmupSeconds = 2.0;
constexpr double kProbeWarmupSeconds = 0.5;
constexpr double kProbeSeconds = 2.5;

// ----------------------------------------------------------------- args

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     args->seconds >= 1.0 && args->seconds <= 120.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && have_seconds && have_trace &&
         !args->work_dir.empty() &&
         (args->workload == "serve-churn" ||
          args->workload == "analyst-embed");
}

// -------------------------------------------------------------- metrics

class Report {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    metrics_[name] = {value, unit};
  }
  std::optional<double> Get(const std::string& name) const {
    auto it = metrics_.find(name);
    if (it == metrics_.end()) return std::nullopt;
    return it->second.first;
  }
  void Print(bool correct, size_t attempted, size_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    bool first = true;
    for (const auto& [name, metric] : metrics_) {
      const double v = std::isfinite(metric.first) ? metric.first : -1.0;
      std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), v, metric.second);
      first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::map<std::string, std::pair<double, const char*>> metrics_;
};

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double total = 0.0;
  for (double v : values) total += v;
  return total / static_cast<double>(values.size());
}

double Share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

// ---------------------------------------------------------------- inputs

struct Lake {
  benchgen::Benchmark bench;
  const KnowledgeGraph& kg() const { return bench.kg.kg; }
  const Corpus& corpus() const { return bench.lake.corpus; }
};

// The benchgen workload: 5-tuple queries rotating over every topic.
std::vector<Query> DiverseQueries(const benchgen::SyntheticKg& kg, size_t n,
                                  uint64_t seed) {
  std::vector<Query> out;
  for (auto& generated : benchgen::MakeQueries(kg, n, seed * 7919 + 3)) {
    out.push_back(std::move(generated.query));
  }
  return out;
}

// Mean NDCG@10 of the served rankings against the generator's ground truth.
double MeanNdcg(const Lake& lake, const std::vector<Query>& pool,
                const std::map<size_t, std::vector<SearchHit>>& served) {
  std::vector<double> ndcg;
  for (const auto& [query, hits] : served) {
    benchgen::RelevanceJudgments truth = benchgen::ComputeGroundTruth(
        lake.bench.kg, lake.bench.lake, pool[query]);
    ndcg.push_back(
        benchgen::NdcgAtK(benchgen::HitTables(hits), truth.relevance, kTopK));
  }
  return Mean(ndcg);
}

// Runs fn(i) for i in [0, n) on up to 4 threads (outside timed windows).
template <typename Fn>
void ParallelOver(size_t n, Fn&& fn) {
  ThreadPool pool(3);
  pool.ParallelFor(n, [&](size_t i) { fn(i); });
}

// ------------------------------------------------------- open-loop load

struct Outcome {
  size_t query = 0;
  uint64_t epoch = 0;
  bool ok = false;
  double latency_ms = 0.0;  // from when the request was due
  double server_ms = 0.0;   // the runtime's own submit-to-response time
  std::vector<SearchHit> hits;
  SearchStats stats;
};

struct Window {
  std::vector<Outcome> outcomes;
  std::vector<size_t> outstanding;  // at each arrival
  std::vector<double> late_ms;      // generator lateness at each arrival
  std::vector<double> pin_ns;       // PinCurrent samples between arrivals
  double seconds = 0.0;
  size_t ok = 0;

  double OkShare() const {
    return Share(static_cast<double>(ok), static_cast<double>(outcomes.size()));
  }
  std::vector<double> OkLatencies() const {
    std::vector<double> out;
    for (const Outcome& o : outcomes) {
      if (o.ok) out.push_back(o.latency_ms);
    }
    return out;
  }
};

// Open-loop arrivals at `rate` for `seconds`, each query drawn uniformly
// from the pool. The generator thread also harvests finished responses and,
// when asked, samples PinCurrent once per gap between arrivals.
Window RunOpenLoop(ServeRuntime* runtime, const std::vector<Query>& pool,
                   double rate, double seconds, std::mt19937_64* rng,
                   bool sample_pins, SpanRecorder* spans) {
  struct Pending {
    size_t query;
    Clock::time_point due;
    Clock::time_point submitted;
    std::future<ServeResponse> future;
  };
  Window window;
  std::uniform_int_distribution<size_t> pick(0, pool.size() - 1);
  std::deque<Pending> inflight;
  auto harvest_one = [&] {
    Pending& p = inflight.front();
    ServeResponse response = p.future.get();
    Outcome o;
    o.query = p.query;
    o.epoch = response.epoch_id;
    o.ok = response.status.ok();
    o.server_ms = 1e3 * response.latency_seconds;
    o.latency_ms =
        1e3 * (SecondsBetween(p.due, p.submitted) + response.latency_seconds);
    o.hits = std::move(response.hits);
    o.stats = response.stats;
    if (o.ok) ++window.ok;
    window.outcomes.push_back(std::move(o));
    inflight.pop_front();
  };
  auto harvest_ready = [&] {
    while (!inflight.empty() &&
           inflight.front().future.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready) {
      harvest_one();
    }
  };

  // Poisson arrivals conditioned on their count: rate * seconds arrival
  // times drawn uniformly over the window and sorted. Every run of a
  // window offers exactly the same load; only the spacing is random.
  const size_t arrivals =
      static_cast<size_t>(std::llround(rate * seconds));
  std::uniform_real_distribution<double> at(0.0, seconds);
  std::vector<double> offsets(arrivals);
  for (double& t : offsets) t = at(*rng);
  std::sort(offsets.begin(), offsets.end());

  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < arrivals; ++i) {
    const Clock::time_point due = start + ToDuration(offsets[i]);
    harvest_ready();
    if (sample_pins) {
      Timed(spans, "serve.pin", i, [&] {
        const Clock::time_point t0 = Clock::now();
        {
          EpochRegistry::Pin pin = runtime->PinCurrent();
          if (!pin) std::abort();
        }
        window.pin_ns.push_back(1e9 * SecondsBetween(t0, Clock::now()));
      });
    }
    // Sleep to just short of the due time, then yield up to it: a plain
    // sleep overshoots by tens of microseconds, which would be charged to
    // every request's latency.
    const auto spin = std::chrono::microseconds(150);
    if (Clock::now() + spin < due) std::this_thread::sleep_until(due - spin);
    while (Clock::now() < due) std::this_thread::yield();
    const size_t query = pick(*rng);
    Pending p{query, due, Clock::now(), {}};
    window.late_ms.push_back(1e3 * SecondsBetween(due, p.submitted));
    p.future = runtime->Submit(pool[query]);
    inflight.push_back(std::move(p));
    window.outstanding.push_back(inflight.size());
  }
  while (!inflight.empty()) harvest_one();
  window.seconds = SecondsBetween(start, Clock::now());
  return window;
}

// Every pool query once, in groups of two batches per worker so that no
// query waits in the queue long enough to reach its deadline. NDCG is
// computed from these rankings; they also warm the server up.
Window PoolPass(ServeRuntime* runtime, const std::vector<Query>& pool) {
  constexpr size_t kGroup = 2 * kServeWorkers * kServeBatch;
  Window pass;
  for (size_t begin = 0; begin < pool.size(); begin += kGroup) {
    const size_t end = std::min(pool.size(), begin + kGroup);
    std::vector<std::future<ServeResponse>> futures;
    for (size_t q = begin; q < end; ++q) {
      futures.push_back(runtime->Submit(pool[q]));
    }
    for (size_t q = begin; q < end; ++q) {
      ServeResponse response = futures[q - begin].get();
      Outcome o;
      o.query = q;
      o.epoch = response.epoch_id;
      o.ok = response.status.ok();
      o.hits = std::move(response.hits);
      if (o.ok) ++pass.ok;
      pass.outcomes.push_back(std::move(o));
    }
  }
  return pass;
}

// A request that did not complete OK misses any latency limit, so the
// ladder's p90 counts failures as infinitely slow.
RungResult JudgeRung(const Window& window, double rate) {
  RungResult rung;
  rung.rate_qps = rate;
  std::vector<double> latencies;
  for (const Outcome& o : window.outcomes) {
    latencies.push_back(o.ok ? o.latency_ms : INFINITY);
  }
  rung.p90_ms = SlicedPercentile(latencies, 0.90, kSlice).value_or(INFINITY);
  rung.ok_share = window.OkShare();
  rung.backlog_grows = BacklogGrows(
      window.outstanding, static_cast<double>(2 * kServeWorkers * kServeBatch));
  return rung;
}

ServeOptions MakeServeOptions() {
  ServeOptions options;
  options.num_workers = kServeWorkers;
  options.queue_capacity = 1024;
  options.batch_size = kServeBatch;
  options.linger_micros = kLingerMicros;
  options.deadline_seconds = kDeadlineSeconds;
  options.enable_prefilter = true;
  options.votes = 1;
  options.search.top_k = kTopK;
  return options;
}

// --------------------------------------------------------- shared output

struct RunState {
  Report report;
  bool correct = true;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> errors;

  void Fail(const std::string& message) {
    correct = false;
    errors.push_back(message);
  }
};

// The end-to-end latency block common to every workload. Percentiles are
// read per slice of kSlice consecutive requests and the median slice is
// reported (SlicedPercentile): this host runs slow for seconds at a time,
// which would otherwise decide the p90 of a whole window.
void ReportLatency(RunState* run, const std::vector<double>& ordered_ms,
                   double qps) {
  std::optional<double> p50 = SlicedPercentile(ordered_ms, 0.50, kSlice);
  std::optional<double> p90 = SlicedPercentile(ordered_ms, 0.90, kSlice);
  if (!p50 || !p90) {
    run->Fail("too few latency samples for p90");
    return;
  }
  run->report.Add("p50_ms", *p50, "ms");
  run->report.Add("p90_ms", *p90, "ms");
  run->report.Add("qps", qps, "1/s");
}

// Per-layer numbers carried by SearchStats, summed over OK responses.
void ReportStats(RunState* run, const std::vector<const SearchStats*>& stats,
                 bool prefilter) {
  double scored = 0, pruned = 0, sim_hits = 0, sim_all = 0, map_hits = 0,
         map_all = 0, floor_hits = 0, tombstoned = 0, bound = 0,
         candidates = 0, reduction = 0;
  std::vector<double> mapping_ms;
  for (const SearchStats* s : stats) {
    scored += s->tables_scored;
    pruned += s->tables_pruned;
    sim_hits += s->sim_cache_hits;
    sim_all += s->sim_cache_hits + s->sim_cache_misses;
    map_hits += s->mapping_cache_hits;
    map_all += s->mapping_cache_hits + s->mapping_cache_misses;
    floor_hits += s->floor_hits;
    tombstoned += s->tables_tombstoned;
    bound += s->bound_seconds;
    candidates += s->candidate_count;
    reduction += s->search_space_reduction;
    mapping_ms.push_back(1e3 * s->mapping_seconds);
  }
  const double n = std::max<double>(1.0, static_cast<double>(stats.size()));
  Report& r = run->report;
  r.Add("core.prune_share", Share(pruned, scored + pruned), "share");
  r.Add("core.scored_per_query", scored / n, "count");
  r.Add("core.sim_hit_share", Share(sim_hits, sim_all), "share");
  r.Add("core.floor_hits_per_query", floor_hits / n, "count");
  r.Add("core.tombstoned_per_query", tombstoned / n, "count");
  r.Add("core.bound_ms", 1e3 * bound / n, "ms");
  r.Add("assignment.mapping_ms", Median(mapping_ms), "ms");
  r.Add("assignment.mapping_hit_share", Share(map_hits, map_all), "share");
  if (prefilter) {
    r.Add("lsh.candidates_per_query", candidates / n, "count");
    r.Add("lsh.reduction_share", reduction / n, "share");
  }
}

// Every per-layer metric, zero until a workload measures it: a traced run
// prints the full set, with 0 for layers the workload leaves idle.
void ReportIdleLayers(Report* r) {
  for (const char* ms : {"serve.wait_ms", "serve.delete_ms",
                         "serve.ingest_visible_ms", "load.late_ms",
                         "exec.batch_ms", "core.search_ms", "lsh.lookup_ms",
                         "io.load_ms"}) {
    r->Add(ms, 0.0, "ms");
  }
  for (const char* s : {"core.build_s", "lsh.build_s", "io.save_s",
                        "embedding.train_s"}) {
    r->Add(s, 0.0, "s");
  }
  r->Add("serve.pin_ns.p50", 0.0, "ns");
  r->Add("serve.pin_ns.p99", 0.0, "ns");
  r->Add("serve.hot_swaps", 0.0, "count");
  r->Add("serve.shed_share", 0.0, "share");
  r->Add("serve.deadline_share", 0.0, "share");
  r->Add("serve.max_rate_qps", 0.0, "1/s");
  r->Add("io.snapshot_mib", 0.0, "MiB");
  r->Add("lsh.candidates_per_query", 0.0, "count");
  r->Add("lsh.reduction_share", 0.0, "share");
}

// Serve-side per-layer metrics of a measured window.
void ReportServeWindow(RunState* run, const Window& window) {
  std::vector<double> wait_ms;
  double shed = 0, deadline = 0;
  for (const Outcome& o : window.outcomes) {
    shed += o.stats.shed;
    deadline += o.stats.deadline_exceeded;
    if (o.ok) wait_ms.push_back(o.server_ms - 1e3 * o.stats.total_seconds);
  }
  const double n = static_cast<double>(window.outcomes.size());
  Report& r = run->report;
  r.Add("serve.wait_ms", Median(wait_ms), "ms");
  r.Add("serve.shed_share", Share(shed, n), "share");
  r.Add("serve.deadline_share", Share(deadline, n), "share");
  r.Add("load.late_ms", Median(window.late_ms), "ms");
  if (!window.pin_ns.empty()) {
    r.Add("serve.pin_ns.p50", Median(window.pin_ns), "ns");
    r.Add("serve.pin_ns.p99",
          Percentile(window.pin_ns, 0.99).value_or(0.0), "ns");
  }
}

// Replays the window's OK queries in arrival order, in groups of the
// serving batch size, on `epoch`: the executor call the workers make, then
// the same group decomposed into the lsh and core calls it is made of.
void ReplayBatches(RunState* run, SpanRecorder* spans, const Window& window,
                   const std::vector<Query>& pool, const EngineEpoch& epoch) {
  ThreadPool inline_pool(1);
  QueryExecutor executor(epoch.engine, &inline_pool);
  executor.set_batch_size(kServeBatch);
  executor.EnablePrefilter(epoch.lsei, 1);
  std::vector<Query> group;
  std::vector<double> search_ms;
  uint64_t batch_id = 0;
  auto flush = [&] {
    if (group.empty()) return;
    ++batch_id;
    Timed(spans, "exec.batch", batch_id,
          [&] { executor.ExecuteBatch(group); });
    for (const Query& q : group) {
      std::vector<TableId> candidates;
      Timed(spans, "lsh.lookup", batch_id, [&] {
        candidates = epoch.lsei->CandidateTablesForQuery(q.tuples, 1);
      });
      search_ms.push_back(1e3 * Timed(spans, "core.search", batch_id, [&] {
        epoch.engine->SearchCandidates(q, candidates);
      }));
    }
    group.clear();
  };
  for (const Outcome& o : window.outcomes) {
    if (!o.ok) continue;
    group.push_back(pool[o.query]);
    if (group.size() == kServeBatch) flush();
  }
  flush();
  run->report.Add("exec.batch_ms", Median(spans->DurationsMs("exec.batch")),
                  "ms");
  run->report.Add("core.search_ms", Median(search_ms), "ms");
  run->report.Add("lsh.lookup_ms", Median(spans->DurationsMs("lsh.lookup")),
                  "ms");
}

// The tail of the serve workload: exactness gate over every response, NDCG
// on epoch-0 rankings, end-to-end report of the window.
void FinishServe(RunState* run, const Lake& lake,
                 const std::vector<Query>& pool, const Window& window,
                 const Window& ndcg_window,
                 const std::vector<const Window*>& all_windows,
                 ExactnessGate* gate, double peak_rss_mib) {
  size_t ok = 0;
  for (const Window* w : all_windows) {
    for (const Outcome& o : w->outcomes) {
      if (!o.ok) continue;
      ++ok;
      gate->Check(o.epoch, o.query, o.hits);
    }
  }
  if (gate->mismatched() != 0) {
    run->Fail(std::to_string(gate->mismatched()) + " of " +
              std::to_string(gate->checked()) +
              " served rankings differ from their epoch's reference");
  }
  std::map<size_t, std::vector<SearchHit>> epoch0;
  for (const Outcome& o : ndcg_window.outcomes) {
    if (o.ok && o.epoch == 0) epoch0.emplace(o.query, o.hits);
  }
  run->attempted = window.outcomes.size();
  run->failed = window.outcomes.size() - window.ok;
  Report& r = run->report;
  r.Add("ok_share", window.OkShare(), "share");
  r.Add("exact_share",
        Share(static_cast<double>(gate->checked() - gate->mismatched()),
              static_cast<double>(ok)),
        "share");
  r.Add("ndcg_at_10", MeanNdcg(lake, pool, epoch0), "score");
  r.Add("peak_rss_mib", peak_rss_mib, "MiB");
  ReportLatency(run, window.OkLatencies(),
                static_cast<double>(window.ok) / window.seconds);
}

// Measures the ladder's max rate; every probe's responses join `windows`
// so the exactness gate sees them too.
double MeasureMaxRate(ServeRuntime* runtime, const std::vector<Query>& pool,
                      const std::vector<double>& ladder, double slo_ms,
                      std::mt19937_64* rng,
                      std::vector<std::unique_ptr<Window>>* windows) {
  return MaxPassingRate(ladder, slo_ms, [&](double rate) {
    RunOpenLoop(runtime, pool, rate, kProbeWarmupSeconds, rng, false, nullptr);
    windows->push_back(std::make_unique<Window>(
        RunOpenLoop(runtime, pool, rate, kProbeSeconds, rng, false, nullptr)));
    return JudgeRung(*windows->back(), rate);
  });
}

// --------------------------------------------------------- serve-churn

// The single writer of serve-churn: at a fixed cadence, deletes a table of
// the initial lake, and every kIngestEvery-th write ingests kIngestTables
// held-out tables instead (deletes only, once those are used up). Logs
// every write with the epoch it published.
class ChurnWriter {
 public:
  ChurnWriter(ServeRuntime* runtime, std::vector<Table> ingest_pool,
              std::vector<std::string> delete_order, SpanRecorder* spans)
      : runtime_(runtime),
        ingest_pool_(std::move(ingest_pool)),
        delete_order_(std::move(delete_order)),
        spans_(spans) {}
  ~ChurnWriter() { Stop(); }
  ChurnWriter(const ChurnWriter&) = delete;
  ChurnWriter& operator=(const ChurnWriter&) = delete;

  void Start() {
    thread_ = std::thread([this] { Loop(); });
  }
  void Stop() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  const std::vector<WriteOp>& log() const { return log_; }
  const std::vector<double>& ingest_ms() const { return ingest_ms_; }
  const std::vector<double>& delete_ms() const { return delete_ms_; }
  const std::string& error() const { return error_; }

 private:
  void Loop() {
    const Clock::time_point start = Clock::now();
    for (size_t k = 1; error_.empty(); ++k) {
      std::this_thread::sleep_until(start +
                                    ToDuration(k * kWritePeriodSeconds));
      if (stop_.load(std::memory_order_acquire)) return;
      WriteOp op;
      Result<uint64_t> epoch = Status::Ok();
      if (k % kIngestEvery == 0 &&
          next_ingest_ + kIngestTables <= ingest_pool_.size()) {
        op.kind = WriteOp::Kind::kIngest;
        op.tables.assign(ingest_pool_.begin() + next_ingest_,
                         ingest_pool_.begin() + next_ingest_ + kIngestTables);
        next_ingest_ += kIngestTables;
        std::vector<Table> batch = op.tables;
        ingest_ms_.push_back(1e3 * Timed(spans_, "serve.ingest", k, [&] {
          epoch = runtime_->IngestTables(std::move(batch));
        }));
      } else if (next_delete_ < delete_order_.size()) {
        op.kind = WriteOp::Kind::kDelete;
        op.name = delete_order_[next_delete_++];
        delete_ms_.push_back(1e3 * Timed(spans_, "serve.delete", k, [&] {
          epoch = runtime_->DeleteTable(op.name);
        }));
      } else {
        error_ = "writer ran out of tables";
        return;
      }
      if (!epoch.ok()) {
        error_ = "write failed: " + epoch.status().message();
        return;
      }
      op.epoch_id = epoch.value();
      log_.push_back(std::move(op));
    }
  }

  ServeRuntime* runtime_;
  std::vector<Table> ingest_pool_;
  std::vector<std::string> delete_order_;
  SpanRecorder* spans_;
  size_t next_ingest_ = 0;
  size_t next_delete_ = 0;
  std::vector<WriteOp> log_;
  std::vector<double> ingest_ms_;
  std::vector<double> delete_ms_;
  std::string error_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: joins before the members it uses go
};

// References for every (epoch, query) served under churn. The writes are
// replayed into a synchronous single-writer runtime, whose pinned epochs
// give each query's LSEI candidates (an incrementally ingested LSEI can
// legitimately differ from one built afresh); the ranking itself
// comes from an offline engine built over that epoch's exact content.
void ChurnReferences(RunState* run, const Lake& lake, const Corpus& initial,
                     const EntitySimilarity* sim,
                     const LseiOptions& lsei_options,
                     const std::vector<WriteOp>& log,
                     const std::vector<Query>& pool,
                     const std::vector<const Window*>& windows,
                     ExactnessGate* gate) {
  std::map<uint64_t, std::vector<size_t>> served;  // epoch -> queries
  for (const Window* w : windows) {
    for (const Outcome& o : w->outcomes) {
      if (o.ok) served[o.epoch].push_back(o.query);
    }
  }
  for (auto& [epoch, queries] : served) {
    std::sort(queries.begin(), queries.end());
    queries.erase(std::unique(queries.begin(), queries.end()), queries.end());
  }

  ServeOptions replay_options = MakeServeOptions();
  replay_options.num_workers = 1;
  ServeRuntime replay(initial.Clone(), &lake.kg(), sim, replay_options,
                      nullptr, &lsei_options);
  replay.Stop();  // it only applies writes and pins epochs; no requests
  EpochContent content(initial);
  std::unique_ptr<SemanticDataLake> offline_lake;
  std::unique_ptr<SearchEngine> offline;
  SearchOptions search = replay_options.search;

  for (size_t step = 0; step <= log.size(); ++step) {
    if (step > 0) {
      const WriteOp& op = log[step - 1];
      Result<uint64_t> epoch =
          op.kind == WriteOp::Kind::kIngest
              ? replay.IngestTables(std::vector<Table>(op.tables))
              : replay.DeleteTable(op.name);
      if (!epoch.ok() || epoch.value() != op.epoch_id || !content.Apply(op)) {
        run->Fail("write log does not replay");
        return;
      }
    }
    if (offline == nullptr || content.corpus_changed()) {
      offline.reset();
      offline_lake =
          std::make_unique<SemanticDataLake>(&content.corpus(), &lake.kg());
      search.tombstones.reset();
      offline = std::make_unique<SearchEngine>(offline_lake.get(), sim, search);
    }
    search.tombstones =
        std::make_shared<TableTombstones>(content.tombstones());
    offline->set_options(search);

    auto it = served.find(content.epoch_id());
    if (it == served.end()) continue;
    const std::vector<size_t>& queries = it->second;
    EpochRegistry::Pin pin = replay.PinCurrent();
    if (pin->id != content.epoch_id() || pin->lsei == nullptr) {
      run->Fail("replayed runtime is at the wrong epoch");
      return;
    }
    std::vector<std::vector<SearchHit>> hits(queries.size());
    ParallelOver(queries.size(), [&](size_t i) {
      const Query& q = pool[queries[i]];
      hits[i] = offline->SearchCandidates(
          q, pin->lsei->CandidateTablesForQuery(q.tuples, 1));
    });
    for (size_t i = 0; i < queries.size(); ++i) {
      gate->AddReference(content.epoch_id(), queries[i], std::move(hits[i]));
    }
  }
}

void RunServeChurn(const Args& args, RunState* run, SpanRecorder* spans) {
  Lake lake{benchgen::MakeBenchmark(benchgen::PresetKind::kWt2015Like,
                                    kLakeScale, kLakeSeed)};
  const std::vector<Query> pool =
      DiverseQueries(lake.bench.kg, kQueryPool, kPoolSeed);
  std::mt19937_64 rng(args.seed);
  const ServeOptions options = MakeServeOptions();
  const LseiOptions lsei_options;
  TypeJaccardSimilarity sim(&lake.kg());

  // The initial lake holds all but the last kIngestPoolTables tables; the
  // writer ingests those and deletes initial tables in a seeded order.
  Corpus initial;
  std::vector<Table> ingest_pool;
  const size_t initial_size = lake.corpus().size() - kIngestPoolTables;
  for (TableId id = 0; id < lake.corpus().size(); ++id) {
    if (id < initial_size) {
      initial.AddTable(lake.corpus().table(id));
    } else {
      ingest_pool.push_back(lake.corpus().table(id));
    }
  }
  std::vector<std::string> delete_order;
  for (TableId id = 0; id < initial.size(); ++id) {
    delete_order.push_back(initial.table(id).name());
  }
  std::shuffle(delete_order.begin(), delete_order.end(), rng);

  // Start-up: inputs in memory -> first query answered.
  std::vector<double> setup_s;
  auto start_up = [&] {
    Corpus corpus = initial.Clone();
    const Clock::time_point t0 = Clock::now();
    auto started = std::make_unique<ServeRuntime>(
        std::move(corpus), &lake.kg(), &sim, options, nullptr, &lsei_options);
    ServeResponse first = started->Submit(pool[0]).get();
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    if (!first.status.ok()) run->Fail("first query failed");
    return started;
  };
  std::unique_ptr<ServeRuntime> runtime;
  for (size_t rep = 0; rep < kSetupRepeats; ++rep) {
    runtime.reset();
    runtime = start_up();
  }

  // Every pool query once on epoch 0, before any write.
  auto epoch0 = std::make_unique<Window>(PoolPass(runtime.get(), pool));
  if (epoch0->ok != pool.size()) run->Fail("epoch-0 pass did not complete");

  std::vector<std::unique_ptr<Window>> windows;
  windows.push_back(std::move(epoch0));
  ChurnWriter writer(runtime.get(), std::move(ingest_pool),
                     std::move(delete_order), spans);
  writer.Start();
  windows.push_back(std::make_unique<Window>(RunOpenLoop(
      runtime.get(), pool, kChurnRate, kWarmupSeconds, &rng, false, nullptr)));
  windows.push_back(std::make_unique<Window>(RunOpenLoop(
      runtime.get(), pool, kChurnRate, args.seconds, &rng, true, spans)));
  const Window& window = *windows.back();
  const double peak_rss = PeakRssMib();
  double max_rate = 0.0;
  if (args.trace) {
    max_rate = MeasureMaxRate(runtime.get(), pool, kChurnLadder, kChurnSloMs,
                              &rng, &windows);
  }
  writer.Stop();
  runtime->Stop();
  if (!writer.error().empty()) run->Fail(writer.error());
  for (size_t rep = 0; rep < kSetupRepeats; ++rep) start_up();

  ExactnessGate gate;
  std::vector<const Window*> all;
  for (const auto& w : windows) all.push_back(w.get());
  ChurnReferences(run, lake, initial, &sim, lsei_options, writer.log(), pool,
                  all, &gate);

  run->report.Add("setup_s", Median(setup_s), "s");
  FinishServe(run, lake, pool, window, *windows.front(), all, &gate,
              peak_rss);
  if (args.trace) {
    ReportIdleLayers(&run->report);
    std::vector<const SearchStats*> stats;
    for (const Outcome& o : window.outcomes) {
      if (o.ok) stats.push_back(&o.stats);
    }
    ReportStats(run, stats, true);
    ReportServeWindow(run, window);
    {
      EpochRegistry::Pin pin = runtime->PinCurrent();
      ReplayBatches(run, spans, window, pool, *pin);
    }
    // Standalone builds of the two offline structures the runtime builds
    // at start-up, and a save and load of them as an engine snapshot (the
    // cold-start path of ServeRuntime::FromSnapshot), timed from outside.
    SemanticDataLake build_lake(&initial, &lake.kg());
    std::unique_ptr<Lsei> lsei;
    const double lsh_build_s = Timed(spans, "lsh.build", 0, [&] {
      lsei = std::make_unique<Lsei>(&build_lake, nullptr, lsei_options);
    });
    std::unique_ptr<SearchEngine> engine;
    const double core_build_s = Timed(spans, "core.build", 0, [&] {
      engine = std::make_unique<SearchEngine>(&build_lake, &sim,
                                              options.search);
    });
    // A private path per run: re-saving over a file another process has
    // mapped would truncate it under that process.
    const std::string snapshot = args.work_dir + "/churn-" +
                                 std::to_string(args.seed) + "-" +
                                 std::to_string(Clock::now()
                                                    .time_since_epoch()
                                                    .count()) +
                                 ".snap";
    Status saved = Status::Ok();
    const double save_s = Timed(spans, "io.save", 0, [&] {
      EngineSnapshotParts parts;
      parts.lake = &build_lake;
      parts.engine = engine.get();
      parts.lsei = lsei.get();
      saved = SaveEngineSnapshot(snapshot, parts);
    });
    Result<std::unique_ptr<LoadedEngine>> loaded = Status::Ok();
    const double load_s = Timed(spans, "io.load", 0, [&] {
      if (saved.ok()) loaded = LoadedEngine::Load(snapshot, &build_lake);
    });
    std::error_code ec;
    const double snapshot_mib =
        static_cast<double>(std::filesystem::file_size(snapshot, ec)) /
        1048576.0;
    if (!saved.ok() || !loaded.ok()) run->Fail("snapshot round trip failed");
    loaded = Status::Ok();  // unmap before the file goes
    std::filesystem::remove(snapshot, ec);
    Report& r = run->report;
    r.Add("io.save_s", save_s, "s");
    r.Add("io.load_ms", 1e3 * load_s, "ms");
    r.Add("io.snapshot_mib", snapshot_mib, "MiB");
    r.Add("serve.max_rate_qps", max_rate, "1/s");
    r.Add("serve.hot_swaps", static_cast<double>(runtime->hot_swaps()),
          "count");
    r.Add("serve.delete_ms", Median(writer.delete_ms()), "ms");
    r.Add("serve.ingest_visible_ms", Median(writer.ingest_ms()), "ms");
    r.Add("lsh.build_s", lsh_build_s, "s");
    r.Add("core.build_s", core_build_s, "s");
  }
}

// ------------------------------------------------------- analyst-embed

EmbeddingStore TrainEmbeddings(const KnowledgeGraph& kg) {
  // Single-threaded walks and SGNS: bit-reproducible, and the same cost on
  // every run (no on-disk cache is ever read).
  WalkOptions walks;
  walks.walks_per_entity = 10;
  walks.depth = 4;
  walks.seed = 202;
  walks.num_threads = 1;
  SkipGramOptions sg;
  sg.dim = 32;
  sg.window = 3;
  sg.negatives = 5;
  sg.epochs = 5;
  sg.seed = 203;
  sg.num_threads = 1;
  return TrainEntityEmbeddings(kg, walks, sg);
}

void RunAnalystEmbed(const Args& args, RunState* run, SpanRecorder* spans) {
  Lake lake{benchgen::MakeBenchmark(benchgen::PresetKind::kWt2015Like,
                                    kLakeScale, kLakeSeed)};
  const std::vector<Query> pool =
      DiverseQueries(lake.bench.kg, kQueryPool, kPoolSeed);
  std::mt19937_64 rng(args.seed);
  std::uniform_int_distribution<size_t> pick(0, pool.size() - 1);
  SemanticDataLake semantic_lake(&lake.corpus(), &lake.kg());
  SearchOptions options;
  options.top_k = kTopK;
  options.num_shards = kAnalystShards;
  ThreadPool pool_threads(kAnalystPoolThreads);

  // Set-up: train embeddings, build the sharded engine, answer a query.
  struct Built {
    std::unique_ptr<EmbeddingStore> embeddings;
    std::unique_ptr<EmbeddingCosineSimilarity> sim;
    std::unique_ptr<SearchEngine> engine;
  };
  std::vector<double> setup_s, train_s, build_s;
  auto set_up = [&] {
    Built b;
    const Clock::time_point t0 = Clock::now();
    train_s.push_back(Timed(spans, "embedding.train", train_s.size(), [&] {
      b.embeddings =
          std::make_unique<EmbeddingStore>(TrainEmbeddings(lake.kg()));
    }));
    b.sim = std::make_unique<EmbeddingCosineSimilarity>(b.embeddings.get());
    build_s.push_back(Timed(spans, "core.build", build_s.size(), [&] {
      b.engine = std::make_unique<SearchEngine>(&semantic_lake, b.sim.get(),
                                                options);
    }));
    b.engine->SearchParallel(pool[0], &pool_threads);
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    return b;
  };
  Built built;
  for (size_t rep = 0; rep < kAnalystSetupRepeats; ++rep) {
    built = Built();
    built = set_up();
  }
  const SearchEngine* engine = built.engine.get();

  struct Answer {
    Clock::time_point start;
    size_t query;
    double ms;
    std::vector<SearchHit> hits;
    SearchStats stats;
  };
  auto closed_loop = [&](double seconds, bool record) {
    std::vector<Answer> answers;
    const Clock::time_point end = Clock::now() + ToDuration(seconds);
    uint64_t request = 0;
    while (Clock::now() < end) {
      Answer a;
      a.start = Clock::now();
      a.query = pick(rng);
      a.ms = 1e3 * Timed(record ? spans : nullptr, "core.search",
                         ++request, [&] {
                           a.hits = engine->SearchParallel(
                               pool[a.query], &pool_threads, &a.stats);
                         });
      answers.push_back(std::move(a));
    }
    return answers;
  };
  closed_loop(kWarmupSeconds, false);
  std::vector<Answer> answers = closed_loop(args.seconds, true);
  const double peak_rss = PeakRssMib();

  for (size_t rep = 0; rep < kAnalystSetupRepeats; ++rep) set_up();

  // Every pool query once more, untimed: the rankings NDCG is computed
  // from.
  std::vector<std::vector<SearchHit>> pass(pool.size());
  for (size_t q = 0; q < pool.size(); ++q) {
    pass[q] = engine->SearchParallel(pool[q], &pool_threads);
  }

  // Reference: the serial unsharded engine over the same embeddings.
  SearchOptions serial = options;
  serial.num_shards = 1;
  SearchEngine reference_engine(&semantic_lake, built.sim.get(), serial);
  std::vector<std::vector<SearchHit>> reference(pool.size());
  ParallelOver(pool.size(), [&](size_t q) {
    reference[q] = reference_engine.Search(pool[q]);
  });
  ExactnessGate gate;
  std::map<size_t, std::vector<SearchHit>> served;
  for (size_t q = 0; q < pool.size(); ++q) {
    gate.AddReference(0, q, std::move(reference[q]));
    gate.Check(0, q, pass[q]);
    served.emplace(q, std::move(pass[q]));
  }
  std::vector<double> latencies;
  std::vector<const SearchStats*> stats;
  for (const Answer& a : answers) {
    gate.Check(0, a.query, a.hits);
    latencies.push_back(a.ms);
    stats.push_back(&a.stats);
  }
  if (gate.mismatched() != 0) {
    run->Fail(std::to_string(gate.mismatched()) + " of " +
              std::to_string(gate.checked()) +
              " sharded rankings differ from the serial engine");
  }
  run->attempted = answers.size();
  run->failed = 0;

  Report& r = run->report;
  r.Add("setup_s", Median(setup_s), "s");
  r.Add("ok_share", 1.0, "share");  // no deadline: every call answers
  r.Add("exact_share",
        Share(static_cast<double>(gate.checked() - gate.mismatched()),
              static_cast<double>(gate.checked())),
        "share");
  r.Add("ndcg_at_10", MeanNdcg(lake, pool, served), "score");
  r.Add("peak_rss_mib", peak_rss, "MiB");
  // Closed loop: throughput of each slice of consecutive requests, median
  // slice (as for the latencies).
  std::vector<double> slice_qps;
  for (size_t begin = 0; begin + kSlice < answers.size(); begin += kSlice) {
    slice_qps.push_back(
        kSlice / SecondsBetween(answers[begin].start,
                                answers[begin + kSlice].start));
  }
  ReportLatency(run, latencies, Median(slice_qps));
  if (args.trace) {
    ReportIdleLayers(&r);
    ReportStats(run, stats, false);
    r.Add("core.search_ms", Median(spans->DurationsMs("core.search")), "ms");
    r.Add("embedding.train_s", Median(train_s), "s");
    r.Add("core.build_s", Median(build_s), "s");
  }
}

}  // namespace
}  // namespace thetis::perfbench

int main(int argc, char** argv) {
  using namespace thetis::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload serve-churn|analyst-embed --seed N --seconds S --trace 0|1 "
                 "--work-dir DIR\n",
                 argv[0]);
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  SpanRecorder spans(args.trace);
  RunState run;
  if (args.workload == "serve-churn") {
    RunServeChurn(args, &run, &spans);
  } else {
    RunAnalystEmbed(args, &run, &spans);
  }
  if (args.trace) {
    // The traced run's own end-to-end latencies: against an untraced run of
    // the same seed they give the tracing overhead.
    for (const char* name : {"p50_ms", "p90_ms"}) {
      if (auto v = run.report.Get(name)) {
        run.report.Add(std::string("trace.") + name, *v, "ms");
      }
    }
    const std::string path = args.work_dir + "/spans-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    if (!spans.WriteJson(path)) run.Fail("cannot write " + path);
  }
  for (const std::string& error : run.errors) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
  }
  run.report.Print(run.correct, run.attempted, run.failed);
  return run.correct ? 0 : 1;
}
