#ifndef THETIS_EMBEDDING_NEGATIVE_SAMPLER_H_
#define THETIS_EMBEDDING_NEGATIVE_SAMPLER_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "embedding/random_walks.h"
#include "util/rng.h"

namespace thetis {

// SGNS negative sampler over the unigram^power distribution. Internal to
// the trainer; exposed in a header so tests can pin its draws.
//
// A draw maps r = NextDouble() * total() to the first token whose
// cumulative weight exceeds r, clamped to the last token — the inverse CDF
// by binary search. Find returns that same token in expected O(1) with a
// guide table (Chen & Asau's indexed search, 1974): V buckets split
// [0, total) evenly, and each bucket stores the first token whose
// cumulative weight passes the bucket's lower edge. A draw starts at its
// bucket's guide index, steps down while the previous cumulative weight
// still exceeds r, then up while the current one does not. Both walks
// test the binary search's own predicate against a nondecreasing array,
// so the result is the binary search's for every r, whatever the
// rounding of the bucket index.
class NegativeSampler {
 public:
  // `counts` must be non-empty with every count positive.
  NegativeSampler(const std::vector<uint64_t>& counts, double power) {
    cumulative_.reserve(counts.size());
    double acc = 0.0;
    for (uint64_t c : counts) {
      acc += std::pow(static_cast<double>(c), power);
      cumulative_.push_back(acc);
    }
    total_ = acc;
    const size_t v = cumulative_.size();
    scale_ = static_cast<double>(v) / total_;
    guide_.resize(v);
    size_t token = 0;
    for (size_t b = 0; b < v; ++b) {
      const double edge = static_cast<double>(b) / scale_;
      while (token + 1 < v && cumulative_[token] <= edge) ++token;
      guide_[b] = static_cast<uint32_t>(token);
    }
  }

  WalkToken Sample(Rng* rng) const { return Find(rng->NextDouble() * total_); }

  // The first token whose cumulative weight exceeds r, clamped to the last
  // token; r in [0, total()].
  WalkToken Find(double r) const {
    const size_t v = cumulative_.size();
    size_t lo = guide_[std::min(static_cast<size_t>(r * scale_), v - 1)];
    while (lo > 0 && cumulative_[lo - 1] > r) --lo;
    while (lo < v && cumulative_[lo] <= r) ++lo;
    return static_cast<WalkToken>(lo < v ? lo : v - 1);
  }

  double total() const { return total_; }
  const std::vector<double>& cumulative() const { return cumulative_; }

 private:
  std::vector<double> cumulative_;
  // guide_[b]: the first token whose cumulative weight exceeds bucket b's
  // lower edge b / scale_ (or the last token).
  std::vector<uint32_t> guide_;
  double total_ = 0.0;
  // Buckets per unit of weight, V / total().
  double scale_ = 0.0;
};

}  // namespace thetis

#endif  // THETIS_EMBEDDING_NEGATIVE_SAMPLER_H_
