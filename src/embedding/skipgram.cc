#include "embedding/skipgram.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

#include "embedding/negative_sampler.h"
#include "obs/query_metrics.h"
#include "obs/trace.h"
#include "simd/kernels.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

// Benign-race annotation for the Hogwild update kernels (see DESIGN.md,
// "Parallel offline build"). Hogwild training races by design: concurrent
// unsynchronized float reads/writes to the shared syn0/syn1neg matrices.
// Those races are confined to the HogwildKernels functions below, which
// are excluded from ThreadSanitizer instrumentation so the TSan CI leg can
// run the Hogwild path and still catch every *unintended* race elsewhere
// (sharding, LR schedule, scratch buffers, the pool itself).
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define THETIS_NO_SANITIZE_THREAD __attribute__((no_sanitize("thread")))
#endif
#endif
#if !defined(THETIS_NO_SANITIZE_THREAD) && defined(__SANITIZE_THREAD__)
#define THETIS_NO_SANITIZE_THREAD __attribute__((no_sanitize_thread))
#endif
#ifndef THETIS_NO_SANITIZE_THREAD
#define THETIS_NO_SANITIZE_THREAD
#endif

namespace thetis {

namespace {

// Precomputed sigmoid table, the classic word2vec trick.
class SigmoidTable {
 public:
  SigmoidTable() {
    for (size_t i = 0; i < kSize; ++i) {
      double x = (static_cast<double>(i) / kSize * 2.0 - 1.0) * kMaxExp;
      table_[i] = 1.0 / (1.0 + std::exp(-x));
    }
  }
  double operator()(double x) const {
    if (x >= kMaxExp) return 1.0;
    if (x <= -kMaxExp) return 0.0;
    size_t idx =
        static_cast<size_t>((x + kMaxExp) / (2.0 * kMaxExp) * (kSize - 1));
    return table_[idx];
  }

 private:
  static constexpr size_t kSize = 1024;
  static constexpr double kMaxExp = 6.0;
  double table_[kSize];
};

// The deterministic loop's kernels: the dispatched SIMD tier, so the
// serial trainer is bit-identical within a tier.
struct SerialKernels {
  static double Dot(const float* a, const float* b, size_t n) {
    return simd::Dot(a, b, n);
  }
  static void AxpyPair(float g, const float* x, float* y, float* acc,
                       size_t n) {
    simd::AxpyPair(g, x, y, acc, n);
  }
  static void Add(float* acc, const float* x, size_t n) {
    simd::Add(acc, x, n);
  }
};

// The Hogwild loop's kernels: plain scalar loops (auto-vectorized; dim is
// 32 in practice) rather than the simd:: dispatch kernels, because the
// no_sanitize attribute does not propagate through the kernel function
// pointers, so the racy accesses must live in these bodies for the TSan
// exclusion to cover them. Every racy load/store of shared training state
// goes through exactly these three functions.
struct HogwildKernels {
  // Eight independent partial sums, so the products vectorize instead of
  // chaining through one accumulator (Hogwild is not bit-reproducible, so
  // the summation order is free).
  THETIS_NO_SANITIZE_THREAD
  static double Dot(const float* a, const float* b, size_t n) {
    constexpr size_t kLanes = 8;
    double acc[kLanes] = {};
    size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
      for (size_t l = 0; l < kLanes; ++l) {
        acc[l] += static_cast<double>(a[i + l]) * b[i + l];
      }
    }
    for (; i < n; ++i) acc[0] += static_cast<double>(a[i]) * b[i];
    return ((acc[0] + acc[1]) + (acc[2] + acc[3])) +
           ((acc[4] + acc[5]) + (acc[6] + acc[7]));
  }
  // acc += g * y (acc is private scratch), then y += g * x with y a shared
  // syn1neg row: the pair update's read and write of the output row.
  THETIS_NO_SANITIZE_THREAD
  static void AxpyPair(float g, const float* x, float* y, float* acc,
                       size_t n) {
    for (size_t i = 0; i < n; ++i) {
      acc[i] += g * y[i];
      y[i] += g * x[i];
    }
  }
  // acc += x with acc a shared syn0 row.
  THETIS_NO_SANITIZE_THREAD
  static void Add(float* acc, const float* x, size_t n) {
    for (size_t i = 0; i < n; ++i) acc[i] += x[i];
  }
};

// SGNS over one walk, shared by both schedules. Per position: next_lr()
// gives the learning rate, a dynamic window uniform in [1, window] (as in
// word2vec) picks the contexts, and each context trains one positive
// target plus `negatives` sampled ones (a sample equal to the context is
// drawn and skipped). The v_in gradient accumulates in `grad` and lands
// after the context's last target; each target's gradient reads v_out
// before v_out is updated. Draws do not depend on the matrices, so drawing
// a context's negatives before its updates yields the same samples as
// drawing each one just before its own update.
template <typename Kernels, typename NextLr>
void TrainWalk(const std::vector<WalkToken>& walk,
               const SkipGramOptions& options, const NegativeSampler& sampler,
               const SigmoidTable& sigmoid, Rng* rng, NextLr&& next_lr,
               float* syn0, float* syn1neg, WalkToken* targets, float* grad) {
  const size_t dim = options.dim;
  for (size_t pos = 0; pos < walk.size(); ++pos) {
    const double lr = next_lr();
    size_t reduced =
        1 + rng->NextBounded(static_cast<uint32_t>(options.window));
    size_t lo = pos >= reduced ? pos - reduced : 0;
    size_t hi = std::min(walk.size() - 1, pos + reduced);
    float* v_in = syn0 + static_cast<size_t>(walk[pos]) * dim;
    for (size_t ctx = lo; ctx <= hi; ++ctx) {
      if (ctx == pos) continue;
      const WalkToken context = walk[ctx];
      size_t count = 0;
      targets[count++] = context;
      for (size_t n = 0; n < options.negatives; ++n) {
        const WalkToken target = sampler.Sample(rng);
        if (target != context) targets[count++] = target;
      }
      std::fill(grad, grad + dim, 0.0f);
      for (size_t t = 0; t < count; ++t) {
        float* v_out = syn1neg + static_cast<size_t>(targets[t]) * dim;
        const double label = t == 0 ? 1.0 : 0.0;
        double g = (label - sigmoid(Kernels::Dot(v_in, v_out, dim))) * lr;
        Kernels::AxpyPair(static_cast<float>(g), v_in, v_out, grad, dim);
      }
      Kernels::Add(v_in, grad, dim);
    }
  }
}

// Token-count-balanced contiguous shard bounds: shard s covers walks
// [bounds[s], bounds[s+1]). Contiguity preserves walk locality; balancing
// by token count (not walk count) keeps threads busy even when walk
// lengths are skewed by graph sinks.
std::vector<size_t> ShardWalks(const std::vector<std::vector<WalkToken>>& walks,
                               uint64_t total_tokens, size_t shards) {
  std::vector<size_t> bounds(shards + 1, walks.size());
  bounds[0] = 0;
  size_t walk = 0;
  uint64_t seen = 0;
  for (size_t s = 1; s < shards; ++s) {
    uint64_t target = total_tokens * s / shards;
    while (walk < walks.size() && seen < target) {
      seen += walks[walk].size();
      ++walk;
    }
    bounds[s] = walk;
  }
  return bounds;
}

}  // namespace

SkipGramTrainer::SkipGramTrainer(SkipGramOptions options)
    : options_(options) {}

EmbeddingStore SkipGramTrainer::Train(
    const std::vector<std::vector<WalkToken>>& walks,
    size_t vocab_size) const {
  THETIS_CHECK(vocab_size > 0);
  const size_t dim = options_.dim;
  Rng rng(options_.seed);
  SigmoidTable sigmoid;

  // Token counts for the negative-sampling distribution.
  std::vector<uint64_t> counts(vocab_size, 0);
  uint64_t total_tokens = 0;
  for (const auto& walk : walks) {
    for (WalkToken t : walk) {
      THETIS_CHECK(t < vocab_size) << "token " << t << " out of vocab";
      ++counts[t];
      ++total_tokens;
    }
  }
  // Avoid zero-probability tokens (isolated vocabulary entries).
  for (uint64_t& c : counts) {
    if (c == 0) c = 1;
  }
  NegativeSampler sampler(counts, options_.unigram_power);

  // Input (syn0) initialized uniformly, output (syn1neg) at zero, as in
  // word2vec.
  EmbeddingStore input(vocab_size, dim);
  std::vector<float> output(vocab_size * dim, 0.0f);
  for (size_t i = 0; i < vocab_size; ++i) {
    float* v = input.mutable_vector(static_cast<EntityId>(i));
    for (size_t d = 0; d < dim; ++d) {
      v[d] = static_cast<float>((rng.NextDouble() - 0.5) / dim);
    }
  }

  const uint64_t total_steps =
      std::max<uint64_t>(1, total_tokens * options_.epochs);
  auto lr_at = [&](uint64_t step) {
    double progress =
        static_cast<double>(step) / static_cast<double>(total_steps);
    double lr = options_.initial_learning_rate * (1.0 - progress);
    return lr < options_.min_learning_rate ? options_.min_learning_rate : lr;
  };
  // All vocab rows were just written through mutable_vector, so every row
  // is already marked stale; the raw-pointer writes below keep the store's
  // cache contract intact (nothing reads the caches until after training).
  float* syn0 = input.mutable_vector(0);

  ThreadPool pool(options_.num_threads);
  const bool hogwild = options_.parallel_mode == SgnsParallelMode::kHogwild &&
                       pool.num_threads() > 1 && total_tokens > 0;

  if (!hogwild) {
    // Deterministic reference loop: byte-for-byte the single-threaded
    // trainer (same RNG consumption, same update order), whatever
    // num_threads says.
    uint64_t step = 0;
    std::vector<float> grad(dim);
    std::vector<WalkToken> targets(options_.negatives + 1);
    for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
      obs::TraceSpan epoch_span("skipgram_epoch");
      Stopwatch epoch_watch;
      for (const auto& walk : walks) {
        TrainWalk<SerialKernels>(
            walk, options_, sampler, sigmoid, &rng,
            [&] { return lr_at(++step); }, syn0, output.data(),
            targets.data(), grad.data());
      }
      obs::RecordSkipgramEpoch(total_tokens, epoch_watch.ElapsedSeconds());
    }
    return input;
  }

  // --- Hogwild path --------------------------------------------------------
  //
  // Contiguous token-balanced walk shards train concurrently; syn0/syn1neg
  // updates are lock-free and unsynchronized (the benign races live in
  // HogwildKernels above). The learning rate follows one shared schedule:
  // threads add their processed-token counts to an atomic global step in
  // kLrBatch chunks (word2vec updates alpha every 10k words the same way)
  // and recompute lr from the snapshot, so the decay tracks total corpus
  // progress, not per-thread progress.
  const size_t shards = pool.num_threads();
  const std::vector<size_t> bounds = ShardWalks(walks, total_tokens, shards);
  std::atomic<uint64_t> global_step{0};
  constexpr uint64_t kLrBatch = 10000;

  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    obs::TraceSpan epoch_span("skipgram_epoch");
    Stopwatch epoch_watch;
    pool.ParallelFor(shards, [&](size_t shard) {
      // Per-thread RNG stream: independent of other shards, reseeded per
      // epoch so epochs do not replay identical sample sequences.
      Rng shard_rng(MixHash64(options_.seed +
                              0x9E3779B97F4A7C15ULL * (epoch + 1)) ^
                    MixHash64(shard + 1));
      std::vector<WalkToken> targets(options_.negatives + 1);
      std::vector<float> grad(dim);  // per-thread scratch
      uint64_t pending = 0;          // tokens not yet published to the LR clock
      uint64_t lr_base = global_step.load(std::memory_order_relaxed);
      auto next_lr = [&] {
        if (++pending >= kLrBatch) {
          lr_base =
              global_step.fetch_add(pending, std::memory_order_relaxed) +
              pending;
          pending = 0;
        }
        return lr_at(lr_base + pending);
      };
      for (size_t wi = bounds[shard]; wi < bounds[shard + 1]; ++wi) {
        TrainWalk<HogwildKernels>(walks[wi], options_, sampler, sigmoid,
                                  &shard_rng, next_lr, syn0, output.data(),
                                  targets.data(), grad.data());
      }
      global_step.fetch_add(pending, std::memory_order_relaxed);
    });
    obs::RecordSkipgramEpoch(total_tokens, epoch_watch.ElapsedSeconds());
  }
  return input;
}

EmbeddingStore TrainEntityEmbeddings(const KnowledgeGraph& kg,
                                     const WalkOptions& walk_options,
                                     const SkipGramOptions& sg_options) {
  auto walks = GenerateWalks(kg, walk_options);
  size_t vocab = WalkVocabularySize(kg, walk_options);
  SkipGramTrainer trainer(sg_options);
  EmbeddingStore full = trainer.Train(walks, vocab);
  // Keep only entity rows (predicates, if any, occupy the tail of the
  // vocab). Entity ids are the leading rows of the vocab arena, so the
  // whole copy is one contiguous memcpy. Marking every destination row
  // mutable first keeps the store's norm caches coherent (NormalizeAll
  // below would re-stamp them anyway; this does not rely on that).
  EmbeddingStore entities(kg.num_entities(), full.dim());
  for (EntityId e = 0; e < kg.num_entities(); ++e) entities.mutable_vector(e);
  if (kg.num_entities() > 0) {
    std::memcpy(entities.mutable_vector(0), full.vector(0),
                static_cast<size_t>(kg.num_entities()) * full.dim() *
                    sizeof(float));
  }
  entities.NormalizeAll();
  return entities;
}

}  // namespace thetis
