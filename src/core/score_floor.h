#ifndef THETIS_CORE_SCORE_FLOOR_H_
#define THETIS_CORE_SCORE_FLOOR_H_

#include <atomic>
#include <cstdint>

namespace thetis {

// The score floor shared by the partitions of one query (its shards or
// pool slices): a monotonically non-decreasing lower bound on the final
// top-k threshold, published with relaxed CAS-max semantics and read
// lock-free by every partition.
//
// Exactness contract (the floor-sharing proof in DESIGN.md): every value v
// ever stored here is the MinScore() of some full k-item heap over exactly
// scored tables, so at least k tables score >= v under the engine's
// (score desc, id asc) total order. The final k-th score is therefore >= v,
// and a candidate whose admissible upper bound is STRICTLY below v can
// never displace a top-k member — pruning on `bound < Load()` is exact. The
// comparison must stay strict: the floor carries no table id, so the
// id-based tie rule that lets ProvablyOutside() skip bound == threshold
// candidates does not apply here.
//
// Relaxed ordering is sufficient because the floor is self-certifying: a
// stale read only under-prunes (correct, just slower), and a published
// value is valid the moment the publishing thread computed it — no other
// memory needs to be observed alongside it.
class SharedScoreFloor {
 public:
  // Observer of successful raises (a test hook wired through
  // SearchOptions::floor_observer; null in production). Called after the
  // CAS succeeds, with the newly published value — possibly concurrently
  // from several threads, so observers must be thread-safe.
  using Observer = void (*)(double value, void* ctx);

  SharedScoreFloor() = default;
  SharedScoreFloor(Observer observer, void* ctx)
      : observer_(observer), observer_ctx_(ctx) {}

  double Load() const { return floor_.load(std::memory_order_relaxed); }

  // CAS-max: raises the floor to `value` if it is higher; never lowers it.
  // Returns whether this call raised it.
  bool Update(double value) {
    double current = floor_.load(std::memory_order_relaxed);
    while (value > current) {
      if (floor_.compare_exchange_weak(current, value,
                                       std::memory_order_relaxed)) {
        publishes_.fetch_add(1, std::memory_order_relaxed);
        if (observer_ != nullptr) observer_(value, observer_ctx_);
        return true;
      }
      // compare_exchange_weak reloaded `current`; loop re-checks the max.
    }
    return false;
  }

  // Successful raises so far (SearchStats::floor_publishes).
  uint64_t publishes() const {
    return publishes_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> floor_{0.0};
  std::atomic<uint64_t> publishes_{0};
  Observer observer_ = nullptr;
  void* observer_ctx_ = nullptr;
};

}  // namespace thetis

#endif  // THETIS_CORE_SCORE_FLOOR_H_
