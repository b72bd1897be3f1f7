// Engine-wide metrics registry: named counters, gauges, and log-linear
// (HDR-style) histograms for service-level telemetry (DESIGN.md §9.4).
//
// The paper's headline claims are fleet-level — fusion pays off as
// aggregate bytes-scanned and latency reductions observed through service
// telemetry, not through one query's EXPLAIN ANALYZE. This registry is the
// engine's always-on service counterpart to the per-query profile: the
// server, executor, and optimizer record into it continuously, and a
// snapshot can be exported as JSON or Prometheus text at any time.
//
// Threading model: the same shard discipline as ExecMetrics
// (exec_context.h), generalized to long-lived multi-query recording. Every
// thread records into a private per-thread shard, so the hot path is a
// relaxed load+store on a cell only its owner writes — no locks, no
// contended atomics, TSan-clean, and totals are thread-count-invariant.
// Snapshot() sums relaxed loads across shards; because each cell has a
// single writer, the sum observes each shard at-or-before its current
// value (a consistent "recent past" total, the standard sharded-counter
// contract). Shard storage grows by installing fixed-size chunks through
// an acquire/release atomic pointer, so lazy metric registration never
// races a concurrent snapshot. Gauges (set-to-value semantics, possibly
// multi-writer) live at registry level as plain atomics.
//
// This header is intentionally link-free (header-only) so fusiondb_exec
// and fusiondb_plan can record without depending on the fusiondb_obs
// rendering library; JSON / Prometheus exposition lives in metrics.cc.
#ifndef FUSIONDB_OBS_METRICS_H_
#define FUSIONDB_OBS_METRICS_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/status.h"

namespace fusiondb {

/// Version stamped into every exported telemetry document — query profiles
/// (`WriteProfileJson`), query-log JSONL lines, and metrics snapshots — so
/// downstream tooling can evolve. Bump on any incompatible field change and
/// document the bump in DESIGN.md §9.
inline constexpr int64_t kTelemetrySchemaVersion = 4;

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Pre-resolved handle for one registered metric. Call sites resolve names
/// once (registration takes a mutex) and record through the id (lock-free).
struct MetricId {
  int32_t index = -1;
  bool valid() const { return index >= 0; }
};

// --- log-linear bucket scheme ----------------------------------------------
//
// Histograms bucket nonnegative int64 values HDR-style: exact buckets for
// 0..15, then 16 logarithmic sub-buckets per power of two. Relative error
// is bounded at ~6.25% (1/16) across the full int64 range with a fixed 960
// buckets, so one scheme serves microsecond latencies and terabyte byte
// counts alike.

inline constexpr int32_t kMetricSubBits = 4;            // 16 sub-buckets
inline constexpr int32_t kMetricSub = 1 << kMetricSubBits;
inline constexpr int32_t kMetricNumBuckets = 960;       // max index 959

/// Bucket index for a recorded value. Negative values clamp to bucket 0.
inline int32_t MetricBucketIndex(int64_t v) {
  if (v < kMetricSub) return v < 0 ? 0 : static_cast<int32_t>(v);
  int32_t msb = 63 - __builtin_clzll(static_cast<uint64_t>(v));
  int32_t sub = static_cast<int32_t>(
      (static_cast<uint64_t>(v) >> (msb - kMetricSubBits)) & (kMetricSub - 1));
  return (msb - kMetricSubBits + 1) * kMetricSub + sub;
}

/// Smallest value mapping to bucket `idx` (the inclusive lower bound).
inline int64_t MetricBucketLowerBound(int32_t idx) {
  if (idx < kMetricSub) return idx;
  int32_t octave = idx / kMetricSub;
  int32_t sub = idx % kMetricSub;
  return static_cast<int64_t>(kMetricSub + sub) << (octave - 1);
}

/// Largest value mapping to bucket `idx` (the inclusive upper bound).
inline int64_t MetricBucketUpperBound(int32_t idx) {
  if (idx >= kMetricNumBuckets - 1) return std::numeric_limits<int64_t>::max();
  return MetricBucketLowerBound(idx + 1) - 1;
}

// --- snapshot ---------------------------------------------------------------

/// Merged view of one histogram at snapshot time. `buckets` is dense from
/// index 0, trimmed after the last nonzero bucket. min/max are exact (kept
/// alongside the buckets), so quantile estimates clamp to observed values.
struct HistogramSnapshot {
  int64_t count = 0;
  int64_t sum = 0;
  int64_t min = 0;
  int64_t max = 0;
  std::vector<int64_t> buckets;

  /// Value at quantile q in [0, 1], estimated from the bucket lower bounds
  /// and clamped to [min, max]. 0 when the histogram is empty.
  int64_t ValueAtQuantile(double q) const {
    if (count <= 0) return 0;
    int64_t target = static_cast<int64_t>(std::ceil(q * static_cast<double>(count)));
    target = std::max<int64_t>(1, std::min(target, count));
    int64_t cum = 0;
    for (size_t i = 0; i < buckets.size(); ++i) {
      cum += buckets[i];
      if (cum >= target) {
        int64_t v = MetricBucketLowerBound(static_cast<int32_t>(i));
        return std::max(min, std::min(v, max));
      }
    }
    return max;
  }
};

/// Point-in-time copy of every registered metric, ordered by registration.
/// Cheap value type: diffable, exportable (metrics.cc), and safe to hand
/// across threads.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;

  /// Counter value by exact name; 0 when never registered.
  int64_t Counter(const std::string& name) const {
    for (const auto& c : counters) {
      if (c.first == name) return c.second;
    }
    return 0;
  }

  int64_t Gauge(const std::string& name) const {
    for (const auto& g : gauges) {
      if (g.first == name) return g.second;
    }
    return 0;
  }

  /// Histogram by exact name; nullptr when never registered.
  const HistogramSnapshot* Histogram(const std::string& name) const {
    for (const auto& h : histograms) {
      if (h.first == name) return &h.second;
    }
    return nullptr;
  }

  /// The change since `base`: counters and histogram counts/sums/buckets
  /// subtract (a metric absent from `base` diffs against zero); gauges keep
  /// this snapshot's value (a gauge is a level, not a rate). Histogram
  /// min/max keep this snapshot's epoch values — per-window extrema are not
  /// recoverable from two cumulative snapshots.
  MetricsSnapshot Diff(const MetricsSnapshot& base) const {
    MetricsSnapshot out;
    out.counters.reserve(counters.size());
    for (const auto& c : counters) {
      out.counters.emplace_back(c.first, c.second - base.Counter(c.first));
    }
    out.gauges = gauges;
    out.histograms.reserve(histograms.size());
    for (const auto& h : histograms) {
      HistogramSnapshot d = h.second;
      if (const HistogramSnapshot* b = base.Histogram(h.first)) {
        d.count -= b->count;
        d.sum -= b->sum;
        if (d.buckets.size() < b->buckets.size()) {
          d.buckets.resize(b->buckets.size(), 0);
        }
        for (size_t i = 0; i < b->buckets.size(); ++i) {
          d.buckets[i] -= b->buckets[i];
        }
      }
      out.histograms.emplace_back(h.first, std::move(d));
    }
    return out;
  }
};

// --- registry ---------------------------------------------------------------

class MetricsRegistry {
 public:
  MetricsRegistry() : serial_(next_serial_.fetch_add(1, std::memory_order_relaxed)) {}
  ~MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Registers (or re-resolves) a monotonically increasing counter.
  /// Registration is idempotent: the same name always yields the same id;
  /// re-registering under a different kind is a bug and aborts. Labels are
  /// embedded in the name Prometheus-style, e.g.
  /// `fusiondb_exec_table_bytes_scanned_total{table="store_sales"}`.
  MetricId Counter(const std::string& name) {
    return Register(name, MetricKind::kCounter);
  }

  /// Registers a gauge: a level that can move both ways (queue depth,
  /// in-flight sessions). Multi-writer safe.
  MetricId Gauge(const std::string& name) {
    return Register(name, MetricKind::kGauge);
  }

  /// Registers a log-linear histogram of nonnegative int64 observations
  /// (latencies in microseconds, byte counts, batch sizes).
  MetricId Histogram(const std::string& name) {
    return Register(name, MetricKind::kHistogram);
  }

  /// Adds `delta` to a counter. Lock-free: single relaxed load+store on a
  /// cell owned by the calling thread. Invalid ids are ignored so call
  /// sites can record unconditionally behind an optional registry.
  void Add(MetricId id, int64_t delta) {
    if (!id.valid()) return;
    Cell* c = LocalShard()->GetCell(id.index);
    c->count.store(c->count.load(std::memory_order_relaxed) + delta,
                   std::memory_order_relaxed);
  }

  /// Sets a gauge to an absolute value.
  void GaugeSet(MetricId id, int64_t value) {
    if (!id.valid()) return;
    GaugeSlot(id)->store(value, std::memory_order_relaxed);
  }

  /// Moves a gauge by `delta` (fetch_add: safe from any number of threads).
  void GaugeAdd(MetricId id, int64_t delta) {
    if (!id.valid()) return;
    GaugeSlot(id)->fetch_add(delta, std::memory_order_relaxed);
  }

  /// Records one observation into a histogram. Lock-free single-writer
  /// updates on the calling thread's shard; the bucket array is allocated
  /// lazily on first observation.
  void Record(MetricId id, int64_t value) {
    if (!id.valid()) return;
    Cell* c = LocalShard()->GetCell(id.index);
    c->count.store(c->count.load(std::memory_order_relaxed) + 1,
                   std::memory_order_relaxed);
    c->sum.store(c->sum.load(std::memory_order_relaxed) + value,
                 std::memory_order_relaxed);
    if (value < c->min.load(std::memory_order_relaxed)) {
      c->min.store(value, std::memory_order_relaxed);
    }
    if (value > c->max.load(std::memory_order_relaxed)) {
      c->max.store(value, std::memory_order_relaxed);
    }
    BucketArray* b = c->buckets.load(std::memory_order_relaxed);
    if (b == nullptr) {
      b = new BucketArray();
      // Release: a snapshot thread acquiring this pointer must see the
      // zero-initialized bucket array.
      c->buckets.store(b, std::memory_order_release);
    }
    std::atomic<int64_t>& slot = b->b[static_cast<size_t>(MetricBucketIndex(value))];
    slot.store(slot.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  }

  /// Merges every shard into a point-in-time snapshot. Safe to call
  /// concurrently with recording (recording never blocks); takes the
  /// registry mutex only against registration and shard creation.
  MetricsSnapshot Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    MetricsSnapshot out;
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const MetricInfo& info = metrics_[i];
      switch (info.kind) {
        case MetricKind::kCounter: {
          int64_t total = 0;
          for (const auto& shard : shards_) {
            if (const Cell* c = shard->PeekCell(static_cast<int32_t>(i))) {
              total += c->count.load(std::memory_order_relaxed);
            }
          }
          out.counters.emplace_back(info.name, total);
          break;
        }
        case MetricKind::kGauge: {
          out.gauges.emplace_back(
              info.name,
              gauges_[static_cast<size_t>(info.dense)].load(
                  std::memory_order_relaxed));
          break;
        }
        case MetricKind::kHistogram: {
          HistogramSnapshot h;
          h.min = std::numeric_limits<int64_t>::max();
          h.max = std::numeric_limits<int64_t>::min();
          for (const auto& shard : shards_) {
            const Cell* c = shard->PeekCell(static_cast<int32_t>(i));
            if (c == nullptr) continue;
            int64_t n = c->count.load(std::memory_order_relaxed);
            if (n == 0) continue;
            h.count += n;
            h.sum += c->sum.load(std::memory_order_relaxed);
            h.min = std::min(h.min, c->min.load(std::memory_order_relaxed));
            h.max = std::max(h.max, c->max.load(std::memory_order_relaxed));
            const BucketArray* b = c->buckets.load(std::memory_order_acquire);
            if (b == nullptr) continue;
            for (int32_t j = 0; j < kMetricNumBuckets; ++j) {
              int64_t bc = b->b[static_cast<size_t>(j)].load(
                  std::memory_order_relaxed);
              if (bc == 0) continue;
              if (h.buckets.size() <= static_cast<size_t>(j)) {
                h.buckets.resize(static_cast<size_t>(j) + 1, 0);
              }
              h.buckets[static_cast<size_t>(j)] += bc;
            }
          }
          if (h.count == 0) {
            h.min = 0;
            h.max = 0;
          }
          out.histograms.emplace_back(info.name, std::move(h));
          break;
        }
      }
    }
    return out;
  }

  /// Number of registered metrics (all kinds).
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return metrics_.size();
  }

 private:
  // Shard storage: fixed-size chunks of cells installed through atomic
  // pointers, so the owner thread can extend its shard (lazy registration)
  // while a snapshot walks it. 64 chunks × 64 cells bounds a registry at
  // 4096 metrics — far above any realistic catalog, checked at Register.
  static constexpr int32_t kCellsPerChunk = 64;
  static constexpr int32_t kMaxChunks = 64;

  struct BucketArray {
    std::array<std::atomic<int64_t>, kMetricNumBuckets> b{};
  };

  // One metric's per-shard state. Counters use `count` only; histograms use
  // all fields. Single writer (the owning thread); snapshot readers load
  // relaxed (acquire for the bucket pointer).
  struct Cell {
    std::atomic<int64_t> count{0};
    std::atomic<int64_t> sum{0};
    std::atomic<int64_t> min{std::numeric_limits<int64_t>::max()};
    std::atomic<int64_t> max{std::numeric_limits<int64_t>::min()};
    std::atomic<BucketArray*> buckets{nullptr};
  };

  struct Chunk {
    std::array<Cell, kCellsPerChunk> cells{};
  };

  struct Shard {
    std::array<std::atomic<Chunk*>, kMaxChunks> chunks{};

    ~Shard() {
      for (auto& slot : chunks) {
        Chunk* c = slot.load(std::memory_order_relaxed);
        if (c == nullptr) continue;
        for (Cell& cell : c->cells) {
          delete cell.buckets.load(std::memory_order_relaxed);
        }
        delete c;
      }
    }

    /// Owner-thread cell lookup, installing the chunk on first touch.
    /// Release store pairs with PeekCell's acquire load so a snapshot that
    /// sees the pointer sees zero-initialized cells.
    Cell* GetCell(int32_t index) {
      size_t ci = static_cast<size_t>(index) / kCellsPerChunk;
      Chunk* c = chunks[ci].load(std::memory_order_relaxed);
      if (c == nullptr) {
        c = new Chunk();
        chunks[ci].store(c, std::memory_order_release);
      }
      return &c->cells[static_cast<size_t>(index) % kCellsPerChunk];
    }

    /// Snapshot-thread cell lookup; nullptr when this shard never touched
    /// the chunk.
    const Cell* PeekCell(int32_t index) const {
      size_t ci = static_cast<size_t>(index) / kCellsPerChunk;
      const Chunk* c = chunks[ci].load(std::memory_order_acquire);
      if (c == nullptr) return nullptr;
      return &c->cells[static_cast<size_t>(index) % kCellsPerChunk];
    }
  };

  struct MetricInfo {
    std::string name;
    MetricKind kind;
    int32_t dense = -1;  // gauges: index into gauges_
  };

  MetricId Register(const std::string& name, MetricKind kind) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(name);
    if (it != index_.end()) {
      FUSIONDB_CHECK(metrics_[static_cast<size_t>(it->second)].kind == kind,
                     "metric re-registered under a different kind");
      return MetricId{it->second};
    }
    FUSIONDB_CHECK(
        metrics_.size() < static_cast<size_t>(kCellsPerChunk) * kMaxChunks,
        "metric registry full");
    int32_t id = static_cast<int32_t>(metrics_.size());
    MetricInfo info;
    info.name = name;
    info.kind = kind;
    if (kind == MetricKind::kGauge) {
      info.dense = static_cast<int32_t>(gauges_.size());
      gauges_.emplace_back(0);
    }
    metrics_.push_back(std::move(info));
    index_.emplace(name, id);
    return MetricId{id};
  }

  std::atomic<int64_t>* GaugeSlot(MetricId id) {
    std::lock_guard<std::mutex> lock(mu_);
    const MetricInfo& info = metrics_[static_cast<size_t>(id.index)];
    FUSIONDB_CHECK(info.kind == MetricKind::kGauge,
                   "gauge op on a non-gauge metric");
    // Deque storage: the pointer stays valid after the lock drops even if
    // another thread registers more gauges.
    return &gauges_[static_cast<size_t>(info.dense)];
  }

  /// The calling thread's shard, created on first use. Cached per thread
  /// keyed by the registry's globally unique serial, so a stale cache entry
  /// from a destroyed registry can never match a live one.
  Shard* LocalShard() {
    thread_local std::vector<std::pair<uint64_t, Shard*>> cache;
    for (const auto& e : cache) {
      if (e.first == serial_) return e.second;
    }
    Shard* s;
    {
      std::lock_guard<std::mutex> lock(mu_);
      shards_.push_back(std::make_unique<Shard>());
      s = shards_.back().get();
    }
    cache.emplace_back(serial_, s);
    return s;
  }

  static inline std::atomic<uint64_t> next_serial_{1};

  const uint64_t serial_;
  mutable std::mutex mu_;  // guards metrics_/index_/shards_/gauges_ growth
  std::vector<MetricInfo> metrics_;
  std::unordered_map<std::string, int32_t> index_;
  std::deque<std::unique_ptr<Shard>> shards_;
  std::deque<std::atomic<int64_t>> gauges_;
};

// --- exposition (implemented in metrics.cc, links fusiondb_obs) -------------

/// Renders a snapshot as a JSON document: schema_version, counters, gauges,
/// and histograms (count/sum/min/max, p50/p90/p99, nonzero buckets).
std::string MetricsToJson(const MetricsSnapshot& snapshot);

/// Renders a snapshot in Prometheus text exposition format: one `# TYPE`
/// line per family, `_bucket{le=...}` cumulative series plus `_sum` and
/// `_count` for histograms. Labels embedded in registered names merge with
/// the `le` label.
std::string MetricsToPrometheus(const MetricsSnapshot& snapshot);

/// Writes MetricsToJson(snapshot) to `path`; ExecutionError on any open or
/// write failure (callers must propagate this to a nonzero exit).
Status WriteMetricsJson(const MetricsSnapshot& snapshot,
                        const std::string& path);

}  // namespace fusiondb

#endif  // FUSIONDB_OBS_METRICS_H_
