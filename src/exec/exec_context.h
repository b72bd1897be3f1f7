// Per-query execution context: configuration and metrics.
//
// The metrics mirror what the paper measures: `bytes_scanned` models the
// S3 "data read" that Athena bills (Figure 2), and `peak_hash_bytes` models
// the working memory held in join/aggregation hash tables (the Section V.C
// observation that fusing Q23 halves intermediate state).
//
// Threading model (morsel-driven parallelism): one ExecContext serves one
// query. The driver thread — the one pulling Next() through the operator
// tree — reads and writes `metrics()` directly, exactly as in serial
// execution. Parallel regions (scan morsels, partial aggregation, join
// build) never touch `metrics()` from workers; each worker accumulates into
// a private ExecMetrics shard and the region calls MergeMetrics() once per
// shard after it completes, so every counter stays a plain int64 with no
// hot-path atomics and sums are thread-count-invariant. The one genuinely
// concurrent quantity, live hash-table memory, uses relaxed atomics with a
// compare-exchange max loop for the peak; FinalMetrics() folds the peak
// back into the snapshot handed to QueryResult.
#ifndef FUSIONDB_EXEC_EXEC_CONTEXT_H_
#define FUSIONDB_EXEC_EXEC_CONTEXT_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "catalog/encoding.h"
#include "common/check.h"
#include "exec/exec_options.h"
#include "exec/thread_pool.h"
#include "obs/operator_stats.h"
#include "types/chunk.h"

namespace fusiondb {

class LogicalOp;
namespace internal {
class MorselSource;
}  // namespace internal

struct ExecMetrics {
  int64_t bytes_scanned = 0;
  int64_t rows_scanned = 0;
  int64_t partitions_scanned = 0;
  // Partitions skipped by any spec, static or runtime.
  int64_t partitions_pruned = 0;
  // The partitions (and their bytes) that only a runtime join filter
  // skipped (DESIGN.md §6.5): bytes_scanned + runtime_pruned_bytes is the
  // bytes the plan's static pruning alone reads, StaticBytes() below.
  int64_t runtime_pruned_partitions = 0;
  int64_t runtime_pruned_bytes = 0;
  int64_t rows_produced = 0;
  // Peak live hash/buffer memory across the whole query. NOT additive: two
  // shards' peaks cannot be summed (their maxima may not coincide in time),
  // so MergeMetrics ignores this field — all peak tracking goes through
  // ExecContext::AddHashBytes, never through worker shards.
  int64_t peak_hash_bytes = 0;
  // Spooling costs (the materialization alternative to fusion): bytes
  // written once into spool buffers and bytes read back by consumers.
  int64_t spool_bytes_written = 0;
  int64_t spool_bytes_read = 0;

  /// The bytes the scans' static pruning admits: what a run without runtime
  /// join filters decodes. It depends only on the plan and the catalog.
  int64_t StaticBytes() const { return bytes_scanned + runtime_pruned_bytes; }
};

/// One compiled pipeline, recorded by the executor build for every chain
/// (exec/pipeline.h). Surfaced through QueryResult into EXPLAIN ANALYZE,
/// the profile JSON, and fusiondb_exec_pipelines_compiled_total.
struct PipelineRecord {
  int32_t root_op_id = -1;  // chain root's stats slot; -1 when unprofiled
  std::string root_kind;    // OpKindName of the chain root
  int ops_fused = 0;  // operators covered by the chain, a scan source included
  /// Every chain compiles; kept for report readers that count compiled
  /// pipelines.
  bool compiled() const { return true; }
};

/// A table scan's source as the executor built it: the plan node and the
/// source that reads it (exec/morsel_source.h).
struct ScanSource {
  const LogicalOp* scan = nullptr;
  internal::MorselSource* source = nullptr;
};

/// Shared materialization buffer behind a SpoolOp id. The first consumer
/// fills it; every consumer reads it. Chunks are stored as *encoded* pages:
/// like Athena's exchange materialization, spooled intermediates pay a
/// serialize-on-write and deserialize-per-read cost (this is exactly the
/// overhead the paper's fusion rewrites avoid).
struct SpoolBuffer {
  bool built = false;
  std::vector<std::vector<EncodedColumn>> pages;  // one vector per chunk
  int64_t bytes = 0;
};

class ExecContext {
 public:
  /// Installs the run's options — the single entry point through which
  /// every execution (ExecuteFanOut, which ExecutePlan calls, and tests)
  /// configures the context, so operators never re-read individual knobs
  /// from ad-hoc setters. Resolves parallelism 0 to the hardware
  /// concurrency and builds the worker pool. Must be called before
  /// BuildExecutor.
  void Init(const ExecOptions& options) {
    options_ = options;
    if (options_.parallelism == 0) {
      unsigned hw = std::thread::hardware_concurrency();
      options_.parallelism = hw == 0 ? 1 : hw;
    }
    if (options_.parallelism < 1) options_.parallelism = 1;
    pool_ = options_.parallelism > 1
                ? std::make_unique<ThreadPool>(options_.parallelism - 1)
                : nullptr;
  }

  /// The resolved options (parallelism never 0 after Init).
  const ExecOptions& options() const { return options_; }

  /// Rows per streamed chunk.
  size_t chunk_size() const { return options_.chunk_size; }

  /// Intra-query parallelism. 1 (the default) keeps every operator on its
  /// historical single-threaded code path; > 1 spawns a pool of n-1 worker
  /// threads (the driver thread is the n-th worker inside ParallelFor).
  size_t parallelism() const { return options_.parallelism; }

  /// The query's worker pool, or nullptr when parallelism() == 1. Operators
  /// treat a null pool as "run the serial path".
  ThreadPool* pool() const { return pool_.get(); }

  /// Driver-thread metrics. Workers inside parallel regions must use a
  /// private shard + MergeMetrics instead.
  ExecMetrics& metrics() { return metrics_; }
  const ExecMetrics& metrics() const { return metrics_; }

  /// Folds one worker's metric shard into the query totals. Called once per
  /// worker per parallel region, or once per partition by a serial scan
  /// (never per row/chunk). `peak_hash_bytes` is
  /// not additive and must never travel in a shard — any region that also
  /// touches hash memory routes it through AddHashBytes instead; a shard
  /// arriving with a nonzero peak is a shard-discipline bug.
  void MergeMetrics(const ExecMetrics& shard) {
    FUSIONDB_CHECK(shard.peak_hash_bytes == 0,
                   "peak_hash_bytes is not additive; shards must account "
                   "hash memory via AddHashBytes");
    std::lock_guard<std::mutex> lock(merge_mu_);
    metrics_.bytes_scanned += shard.bytes_scanned;
    metrics_.rows_scanned += shard.rows_scanned;
    metrics_.partitions_scanned += shard.partitions_scanned;
    metrics_.partitions_pruned += shard.partitions_pruned;
    metrics_.runtime_pruned_partitions += shard.runtime_pruned_partitions;
    metrics_.runtime_pruned_bytes += shard.runtime_pruned_bytes;
    metrics_.rows_produced += shard.rows_produced;
    metrics_.spool_bytes_written += shard.spool_bytes_written;
    metrics_.spool_bytes_read += shard.spool_bytes_read;
  }

  /// Tracks live hash-table memory; the peak is kept in a relaxed atomic
  /// max loop so blocking operators can account from worker threads. When
  /// `op_id` names a registered operator slot, the delta is also attributed
  /// to that operator's live/peak counters — operators account once per
  /// build (on the driver thread, after any parallel region has merged), so
  /// the per-operator side needs no atomics.
  void AddHashBytes(int64_t delta, int32_t op_id = -1) {
    int64_t live =
        live_hash_bytes_.fetch_add(delta, std::memory_order_relaxed) + delta;
    int64_t peak = peak_hash_bytes_.load(std::memory_order_relaxed);
    while (live > peak && !peak_hash_bytes_.compare_exchange_weak(
                              peak, live, std::memory_order_relaxed)) {
    }
    if (op_id >= 0 && static_cast<size_t>(op_id) < op_slots_.size()) {
      int64_t& op_live = op_live_bytes_[static_cast<size_t>(op_id)];
      op_live += delta;
      OperatorStats& s = op_slots_[static_cast<size_t>(op_id)];
      if (op_live > s.peak_memory_bytes) s.peak_memory_bytes = op_live;
    }
  }

  /// Metrics snapshot with the tracked memory peak folded in; what
  /// ExecuteFanOut hands to QueryResult after the operator tree is torn down.
  /// Taking it while a parallel region is still open would observe a torn
  /// total — regions bracket themselves so this can assert.
  ExecMetrics FinalMetrics() const {
    FUSIONDB_CHECK(open_regions_.load(std::memory_order_relaxed) == 0,
                   "FinalMetrics() taken before all parallel regions merged");
    ExecMetrics out = metrics_;
    out.peak_hash_bytes = peak_hash_bytes_.load(std::memory_order_relaxed);
    return out;
  }

  /// Parallel regions bracket themselves (see ParallelRegion below) so the
  /// FinalMetrics assertion can detect a region that never merged.
  void BeginParallelRegion() {
    open_regions_.fetch_add(1, std::memory_order_relaxed);
  }
  void EndParallelRegion() {
    open_regions_.fetch_sub(1, std::memory_order_relaxed);
  }

  // --- per-operator profiling ----------------------------------------------

  /// Whether per-operator stats are collected (default on; benches flip it
  /// off via ExecOptions to measure the instrumentation overhead). Fixed by
  /// Init, before BuildExecutor: with profiling off no slots are registered
  /// and the operator tree is built without stats wrappers.
  bool profile_enabled() const { return options_.profile; }

  /// Registers one operator slot during BuildExecutor's preorder walk and
  /// returns its id (== the node's preorder index). Driver thread only.
  int32_t RegisterOperator(std::string kind, std::string detail,
                           int32_t parent) {
    int32_t id = static_cast<int32_t>(op_slots_.size());
    op_slots_.emplace_back();
    OperatorStats& s = op_slots_.back();
    s.id = id;
    s.parent = parent;
    s.kind = std::move(kind);
    s.detail = std::move(detail);
    op_live_bytes_.push_back(0);
    return id;
  }

  /// The slot for `id`. Pointers stay valid for the context's lifetime
  /// (deque storage). Driver thread only.
  OperatorStats* op_stats(int32_t id) {
    return &op_slots_[static_cast<size_t>(id)];
  }

  /// The operator id whose physical operator is currently being constructed;
  /// blocking operators capture it so their memory accounting can name
  /// their own slot. -1 when profiling is off.
  int32_t building_op() const { return building_op_; }
  void set_building_op(int32_t id) { building_op_ = id; }

  /// Records one consumer served from an already-built spool buffer.
  void AddSpoolHit(int32_t op_id) {
    if (op_id >= 0 && static_cast<size_t>(op_id) < op_slots_.size()) {
      ++op_slots_[static_cast<size_t>(op_id)].spool_hits;
    }
  }

  /// Records one spool materialization (the miss that pays the build).
  void AddSpoolBuild(int32_t op_id) {
    if (op_id >= 0 && static_cast<size_t>(op_id) < op_slots_.size()) {
      ++op_slots_[static_cast<size_t>(op_id)].spool_builds;
    }
  }

  /// Charges scan metrics (a partition's, or a parallel region's worker
  /// shard) to the query totals, and its decoded bytes and pruned
  /// partitions to the scan's stats slot. Driver thread only: serial scans
  /// call it per partition, parallel scans once per shard after their
  /// region ran.
  void AddScanMetrics(int32_t op_id, const ExecMetrics& scan) {
    MergeMetrics(scan);
    if (op_id >= 0 && static_cast<size_t>(op_id) < op_slots_.size()) {
      OperatorStats& s = op_slots_[static_cast<size_t>(op_id)];
      s.bytes_scanned += scan.bytes_scanned;
      s.partitions_pruned += scan.partitions_pruned;
      s.runtime_pruned_partitions += scan.runtime_pruned_partitions;
      s.runtime_pruned_bytes += scan.runtime_pruned_bytes;
    }
  }

  /// Registers a table-scan source as the executor builds it, in build
  /// order (BuildExecutor, driver thread only). A hash join looks up the
  /// sources its probe subtree built to publish its runtime filter
  /// (DESIGN.md §6.5).
  void AddScanSource(const LogicalOp* scan, internal::MorselSource* source) {
    scan_sources_.push_back({scan, source});
  }

  /// Every scan source built so far, in build order. Entries of a torn
  /// down subtree dangle, so only a join whose probe subtree is alive reads
  /// them, and only the range its own probe subtree added.
  const std::vector<ScanSource>& scan_sources() const { return scan_sources_; }

  /// Snapshot of all operator slots with derived fields (rows_in, self
  /// time) filled in; taken after the operator tree is torn down so close
  /// times are complete. Empty when profiling is off.
  std::vector<OperatorStats> FinalOperatorStats() const {
    std::vector<OperatorStats> out(op_slots_.begin(), op_slots_.end());
    FinalizeOperatorStats(&out);
    return out;
  }

  /// Records one compiled pipeline (BuildExecutor, driver thread only).
  void AddPipeline(PipelineRecord record) {
    pipelines_.push_back(std::move(record));
  }

  /// All pipeline outcomes, in plan preorder of their chain roots.
  const std::vector<PipelineRecord>& pipelines() const { return pipelines_; }

  /// The spool buffer for `spool_id`, created on first use. Spool
  /// *materialization* runs on the driver thread only (SpoolExec fills the
  /// buffer serially), but lookups can race: an operator inside a parallel
  /// region may reach its spool while the driver concurrently creates
  /// another spool's slot, and unordered_map mutation is not safe against
  /// concurrent reads — so lookup-or-create holds a lock.
  std::shared_ptr<SpoolBuffer> GetSpool(int32_t spool_id) {
    std::lock_guard<std::mutex> lock(spool_mu_);
    std::shared_ptr<SpoolBuffer>& slot = spools_[spool_id];
    if (slot == nullptr) slot = std::make_shared<SpoolBuffer>();
    return slot;
  }

 private:
  ExecOptions options_;
  std::unique_ptr<ThreadPool> pool_;
  ExecMetrics metrics_;
  std::mutex merge_mu_;
  std::atomic<int64_t> live_hash_bytes_{0};
  std::atomic<int64_t> peak_hash_bytes_{0};
  std::atomic<int32_t> open_regions_{0};
  std::mutex spool_mu_;  // guards spools_ (see GetSpool)
  std::unordered_map<int32_t, std::shared_ptr<SpoolBuffer>> spools_;
  int32_t building_op_ = -1;
  // Deque: RegisterOperator must not invalidate pointers handed out by
  // op_stats while the tree is still being built.
  std::deque<OperatorStats> op_slots_;
  std::deque<int64_t> op_live_bytes_;  // live bytes behind each slot's peak
  std::vector<PipelineRecord> pipelines_;
  std::vector<ScanSource> scan_sources_;
};

/// RAII bracket for a parallel region (scan morsels, aggregation partials,
/// join build): Begin on entry, End after every shard has merged. Scoped so
/// early error returns cannot leave a region open.
class ParallelRegion {
 public:
  explicit ParallelRegion(ExecContext* ctx) : ctx_(ctx) {
    ctx_->BeginParallelRegion();
  }
  ~ParallelRegion() { ctx_->EndParallelRegion(); }
  ParallelRegion(const ParallelRegion&) = delete;
  ParallelRegion& operator=(const ParallelRegion&) = delete;

 private:
  ExecContext* ctx_;
};

}  // namespace fusiondb

#endif  // FUSIONDB_EXEC_EXEC_CONTEXT_H_
