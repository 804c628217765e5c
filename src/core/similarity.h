#ifndef THETIS_CORE_SIMILARITY_H_
#define THETIS_CORE_SIMILARITY_H_

#include <span>
#include <string>
#include <vector>

#include "embedding/embedding_store.h"
#include "embedding/quantized_store.h"
#include "kg/knowledge_graph.h"
#include "util/flat_array.h"

namespace thetis {

// The entity semantic similarity σ : N x N -> [0, 1] of Section 4.1, with
// σ(e, e) = 1. The search framework is deliberately agnostic to the
// concrete instantiation (Section 3.3); this repo ships the two the paper
// evaluates: Jaccard* of type sets and cosine of entity embeddings.
class EntitySimilarity {
 public:
  virtual ~EntitySimilarity() = default;

  // Similarity in [0, 1]; must return 1 for identical entities.
  virtual double Score(EntityId a, EntityId b) const = 0;

  // Batched σ: out[k] = Score(q, targets[k]). Implementations must produce
  // bit-identical values to the one-shot Score (the engine relies on this
  // for cached-vs-uncached and batched-vs-serial ranking parity). The
  // default is a plain loop; concrete similarities override it with flat
  // kernel calls.
  virtual void ScoreBatch(EntityId q, const EntityId* targets, size_t count,
                          double* out) const {
    for (size_t k = 0; k < count; ++k) out[k] = Score(q, targets[k]);
  }

  // Multi-query batched σ for the batch-fused bound pass: out[j*count + k]
  // = Score(qs[j], targets[k]). Each (query, target) pair must be
  // bit-identical to the one-query ScoreBatch — the fused arena pass
  // reuses one gathered target slice across the whole query batch and
  // still promises rankings identical to per-query execution. The default
  // loops ScoreBatch per query (trivially identical); similarities with a
  // dual-gather kernel override it.
  virtual void ScoreBatchMulti(const EntityId* qs, size_t nq,
                               const EntityId* targets, size_t count,
                               double* out) const {
    for (size_t j = 0; j < nq; ++j) {
      ScoreBatch(qs[j], targets, count, out + j * count);
    }
  }

  // Batched admissible upper bound: out[k] >= Score(q, targets[k]) for
  // every k, out[k] == 1 for identity pairs, and out[k] == 0 only when the
  // exact score is provably 0 (the bound pass early-outs on zero bounds).
  // Values need not be tight — the engine reranks survivors with the exact
  // score — but must be deterministic. The default forwards to ScoreBatch
  // (the exact score is trivially its own admissible bound); similarities
  // with a compressed backend override it with the cheap bound.
  virtual void UpperBoundBatch(EntityId q, const EntityId* targets,
                               size_t count, double* out) const {
    ScoreBatch(q, targets, count, out);
  }

  // Multi-query variant of UpperBoundBatch with the same layout contract
  // as ScoreBatchMulti: out[j*count + k] bit-identical to the one-query
  // bound of (qs[j], targets[k]).
  virtual void UpperBoundBatchMulti(const EntityId* qs, size_t nq,
                                    const EntityId* targets, size_t count,
                                    double* out) const {
    for (size_t j = 0; j < nq; ++j) {
      UpperBoundBatch(qs[j], targets, count, out + j * count);
    }
  }

  // Name of the compressed backend UpperBoundBatch dispatches to ("int8",
  // "bitset"), or "" when UpperBoundBatch is just the exact score. The
  // engine's bound-backend resolution ("auto" picks the compressed bound
  // when one exists) and SearchStats reporting key off this.
  virtual const char* CompressedBoundBackend() const { return ""; }

  // σ-equivalence classes: a vector `cls` of class ids, one per entity, such
  // that cls[a] == cls[b] guarantees Score(a, x) is bit-identical to
  // Score(b, x) for every x outside {a, b} — i.e. a and b are
  // interchangeable as *third parties* (the identity pairs σ(a, a) = 1
  // are exempt and must be handled by the caller). The mapping cache uses
  // classes to recognize tables whose column contents are σ-equivalent
  // even when the entities differ. An empty vector (the default) means "no
  // information": every entity is its own class.
  virtual std::vector<uint32_t> SigmaEquivalenceClasses() const { return {}; }

  // Short name used in benchmark output ("types", "embeddings").
  virtual std::string name() const = 0;
};

// The adjusted Jaccard similarity of Eq. (4): 1 for identical entities,
// otherwise the Jaccard similarity of the two (ancestor-expanded) type sets
// capped at 0.95 so that no two distinct entities tie with an exact match.
//
// The per-entity type sets are stored as one CSR arena (offsets + pool):
// every set is a contiguous, strictly increasing span, so Jaccard* is one
// sorted-set intersection kernel call over two flat spans instead of a
// pointer chase through a ragged vector-of-vectors.
class TypeJaccardSimilarity : public EntitySimilarity {
 public:
  // Precomputes every entity's expanded type set. The graph must outlive
  // this object.
  explicit TypeJaccardSimilarity(const KnowledgeGraph* kg,
                                 bool include_ancestors = true,
                                 double cap = 0.95);

  // Reassembles a similarity over an externally owned CSR arena (an
  // mmap'd engine snapshot; see src/io) instead of re-expanding type sets
  // from the graph. The backing memory must outlive the similarity. The
  // graph is not needed: scoring reads only the CSR, which the snapshot
  // captured post-expansion.
  static TypeJaccardSimilarity FromSnapshotView(std::span<const uint32_t> offsets,
                                                std::span<const TypeId> pool,
                                                double cap);

  double Score(EntityId a, EntityId b) const override;
  void ScoreBatch(EntityId q, const EntityId* targets, size_t count,
                  double* out) const override;
  // With a bitset index attached the "bound" is the exact σ computed via
  // popcount over packed type bitsets — same integer intersection, same
  // division, bit-identical double — so it is trivially admissible and
  // the bound pass prunes exactly as hard as with fp32 Jaccard.
  void UpperBoundBatch(EntityId q, const EntityId* targets, size_t count,
                       double* out) const override;
  // Fused batch bound: one multi-query popcount kernel per gathered target
  // slice; per-pair arithmetic identical to UpperBoundBatch.
  void UpperBoundBatchMulti(const EntityId* qs, size_t nq,
                            const EntityId* targets, size_t count,
                            double* out) const override;
  const char* CompressedBoundBackend() const override {
    return has_bitset() ? "bitset" : "";
  }
  // Number of entities the CSR covers (ids [0, NumEntities())).
  size_t NumEntities() const { return offsets_.size() - 1; }
  // Jaccard* of distinct entities depends only on the two expanded type
  // sets, so entities with identical set content are interchangeable:
  // classes intern the CSR spans. On realistic lakes many entities share a
  // type set, which is what makes the mapping cache hit (entity-level
  // column signatures essentially never repeat).
  std::vector<uint32_t> SigmaEquivalenceClasses() const override;
  std::string name() const override { return "types"; }

  // Exposed for tests: the expanded, sorted type set of `e` (a view into
  // the CSR pool).
  std::span<const TypeId> TypeSetOf(EntityId e) const {
    return {pool_.data() + offsets_[e], offsets_[e + 1] - offsets_[e]};
  }

  // CSR arena + cap, exposed for the snapshot writer.
  std::span<const uint32_t> csr_offsets() const { return offsets_.span(); }
  std::span<const TypeId> csr_pool() const { return pool_.span(); }
  double cap() const { return cap_; }

  // --- Bitset bound backend (vocabularies of <= 256 distinct types) -------
  //
  // Dense remap of the distinct TypeIds (ascending id -> ascending bit
  // position) into fixed-width bitsets of `bitset_words()` u64 words per
  // entity, plus a per-entity set-size array. popcount(AND) reproduces the
  // sorted-set intersection exactly, making the bitset σ bit-identical to
  // Score. Built automatically by the graph constructor when the expanded
  // vocabulary fits; absent otherwise.
  bool has_bitset() const { return bitset_words_ != 0; }
  size_t bitset_words() const { return bitset_words_; }
  std::span<const uint64_t> bitset_bits() const { return bitset_bits_.span(); }
  std::span<const uint32_t> bitset_sizes() const {
    return bitset_sizes_.span();
  }
  size_t bitset_arena_bytes() const {
    return bitset_bits_.size() * sizeof(uint64_t) +
           bitset_sizes_.size() * sizeof(uint32_t);
  }
  // Packs the CSR pool into bitsets now (no-op when already present or the
  // vocabulary exceeds 256 distinct types). Snapshot load calls this when
  // the file predates the bitset sections.
  void BuildBitsetIndex();
  // Attaches snapshot-section views instead of packing; spans must outlive
  // the similarity. `words` is in [1, 4], bits is NumEntities()*words,
  // sizes is NumEntities().
  void AttachBitsetView(std::span<const uint64_t> bits,
                        std::span<const uint32_t> sizes, size_t words);

 private:
  TypeJaccardSimilarity() = default;

  // Null when restored from a snapshot (only the constructor reads it).
  const KnowledgeGraph* kg_ = nullptr;
  double cap_ = 0.95;
  // CSR arena: entity e's types live in pool_[offsets_[e], offsets_[e+1]).
  // Owned when built from the graph, views when restored from a snapshot.
  FlatArray<uint32_t> offsets_;
  FlatArray<TypeId> pool_;
  // Bitset backend (see has_bitset above); 0 words == absent.
  size_t bitset_words_ = 0;
  FlatArray<uint64_t> bitset_bits_;
  FlatArray<uint32_t> bitset_sizes_;
};

// Cosine similarity of entity embedding vectors, clamped to [0, 1]
// (negative cosine means "unrelated", not "anti-relevant"). σ(e, e) = 1
// even for zero vectors.
class EmbeddingCosineSimilarity : public EntitySimilarity {
 public:
  // The store must outlive this object, cover all scored entities, and have
  // no pending stale cache rows when scored from multiple threads (see the
  // EmbeddingStore cache contract).
  explicit EmbeddingCosineSimilarity(const EmbeddingStore* store);

  double Score(EntityId a, EntityId b) const override;
  void ScoreBatch(EntityId q, const EntityId* targets, size_t count,
                  double* out) const override;
  // Fused batch σ: one dual-gather kernel call per gathered target slice
  // streams each target row against every query row; per-pair clamping
  // identical to ScoreBatch.
  void ScoreBatchMulti(const EntityId* qs, size_t nq, const EntityId* targets,
                       size_t count, double* out) const override;
  // Int8 bound: quantized dot plus the analytic quantization-error slack
  // (see QuantizedEmbeddingStore) upper-bounds the exact clamped cosine,
  // so the bound pass prunes exactly and only survivors pay fp32 rerank.
  void UpperBoundBatch(EntityId q, const EntityId* targets, size_t count,
                       double* out) const override;
  void UpperBoundBatchMulti(const EntityId* qs, size_t nq,
                            const EntityId* targets, size_t count,
                            double* out) const override;
  const char* CompressedBoundBackend() const override { return "int8"; }
  std::string name() const override { return "embeddings"; }

  // The borrowed store, exposed for the snapshot writer.
  const EmbeddingStore* store() const { return store_; }

  // The int8 bound backend: built from the store at construction, or
  // replaced with a snapshot-section view by AttachQuantizedStore. The
  // quantized arena mirrors the store at the time it was (re)built —
  // mutate the store only before constructing the similarity.
  const QuantizedEmbeddingStore& quantized() const { return quant_; }
  void AttachQuantizedStore(QuantizedEmbeddingStore quant);

 private:
  const EmbeddingStore* store_;
  QuantizedEmbeddingStore quant_;
};

// Jaccard similarity of two sorted id vectors (shared helper; 0 when both
// are empty). Inputs are sets: strictly increasing sequences.
double JaccardOfSorted(const std::vector<uint32_t>& a,
                       const std::vector<uint32_t>& b);

}  // namespace thetis

#endif  // THETIS_CORE_SIMILARITY_H_
