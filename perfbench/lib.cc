#include "lib.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <unordered_set>

namespace thetis::perfbench {

std::optional<double> Percentile(std::vector<double> values, double p) {
  const size_t n = values.size();
  if (n == 0 || p <= 0.0 || p >= 1.0) return std::nullopt;
  // Nearest rank: the smallest value with at least p*n samples at or
  // below it.
  size_t rank = static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (n - rank < 10) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

std::optional<double> SlicedPercentile(const std::vector<double>& ordered,
                                       double p, size_t slice) {
  if (slice == 0) return std::nullopt;
  std::vector<double> per_slice;
  for (size_t begin = 0; begin + slice <= ordered.size(); begin += slice) {
    std::optional<double> q = Percentile(
        std::vector<double>(ordered.begin() + begin,
                            ordered.begin() + begin + slice),
        p);
    if (!q) return std::nullopt;
    per_slice.push_back(*q);
  }
  if (per_slice.empty()) return std::nullopt;
  return Median(std::move(per_slice));
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

bool RungPasses(const RungResult& rung, double slo_ms) {
  return rung.p90_ms <= slo_ms && rung.ok_share >= 1.0 && !rung.backlog_grows;
}

bool BacklogGrows(const std::vector<size_t>& outstanding, double slack) {
  const size_t quarter = outstanding.size() / 4;
  if (quarter == 0) return false;
  auto mean = [&](size_t begin) {
    double total = 0.0;
    for (size_t i = begin; i < begin + quarter; ++i) total += outstanding[i];
    return total / static_cast<double>(quarter);
  };
  return mean(outstanding.size() - quarter) > mean(0) + slack;
}

double MaxPassingRate(const std::vector<double>& ladder, double slo_ms,
                      const std::function<RungResult(double)>& probe,
                      size_t* probes) {
  size_t made = 0;
  // Invariant: every rung below `lo` passed, every rung at or above `hi`
  // failed (or is unprobed past the end).
  size_t lo = 0;
  size_t hi = ladder.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    ++made;
    if (RungPasses(probe(ladder[mid]), slo_ms)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (probes != nullptr) *probes = made;
  return lo == 0 ? 0.0 : ladder[lo - 1];
}

EpochContent::EpochContent(const Corpus& initial) : corpus_(initial.Clone()) {}

bool EpochContent::Apply(const WriteOp& op) {
  if (op.kind == WriteOp::Kind::kDelete) {
    Result<TableId> found = corpus_.FindByName(op.name);
    if (!found.ok()) return false;
    tombstones_.Add(found.value());
    corpus_changed_ = false;
  } else {
    std::unordered_set<std::string> names;
    for (const Table& table : op.tables) {
      if (corpus_.FindByName(table.name()).ok() ||
          !names.insert(table.name()).second) {
        return false;
      }
    }
    for (TableId id = 0; id < corpus_.size(); ++id) {
      if (tombstones_.Contains(id)) {
        Table* table = corpus_.mutable_table(id);
        *table = Table(table->name(), {});
      }
    }
    tombstones_ = TableTombstones();
    for (const Table& table : op.tables) {
      if (!corpus_.AddTable(table).ok()) return false;
    }
    corpus_changed_ = true;
  }
  epoch_id_ = op.epoch_id;
  return true;
}

bool SameRanking(const std::vector<SearchHit>& a,
                 const std::vector<SearchHit>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].table != b[i].table ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

void ExactnessGate::AddReference(uint64_t epoch, size_t query,
                                 std::vector<SearchHit> hits) {
  reference_[{epoch, query}] = std::move(hits);
}

bool ExactnessGate::Check(uint64_t epoch, size_t query,
                          const std::vector<SearchHit>& hits) {
  ++checked_;
  auto it = reference_.find({epoch, query});
  const bool same = it != reference_.end() && SameRanking(it->second, hits);
  if (!same) ++mismatched_;
  return same;
}

void SpanRecorder::Record(const char* name, uint64_t request,
                              std::chrono::steady_clock::time_point start,
                              std::chrono::steady_clock::time_point end) {
  if (!enabled_) return;
  auto ns = [](std::chrono::steady_clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
  };
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = name;
  span.id = next_id_++;
  span.request = request;
  span.start_ns = ns(start);
  span.end_ns = ns(end);
  spans_.push_back(span);
}

std::vector<double> SpanRecorder::DurationsMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) out.push_back(1e-6 * (span.end_ns - span.start_ns));
  }
  return out;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return false;
  out << "[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"id\":" << s.id
        << ",\"request\":" << s.request << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}";
  }
  out << "\n]\n";
  out.flush();
  return static_cast<bool>(out);
}

double PeakRssMib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::atof(line + 6);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

}  // namespace thetis::perfbench
