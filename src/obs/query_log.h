// Structured JSONL query log: one event per completed server session
// (DESIGN.md §9.5). This is the service-side record the paper's fleet-level
// analysis needs — fingerprints, sharing outcomes, and latency breakdowns
// accumulate across a query stream, where per-query profiles die with the
// process. A configurable slow-query threshold marks offending sessions so
// the server can auto-capture their full QueryProfile JSON next to the log.
#ifndef FUSIONDB_OBS_QUERY_LOG_H_
#define FUSIONDB_OBS_QUERY_LOG_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>

#include "common/status.h"

namespace fusiondb {

/// One completed session, flattened to scalars so every line is a small,
/// self-contained JSON object (schema_version stamped per line).
struct QueryLogEvent {
  int64_t session_id = 0;
  std::string query;              // caller-supplied label, may be empty
  std::string mode;               // optimizer mode label ("fused", ...)
  std::string fingerprint;        // hex fingerprint of the session's plan
  std::string group_fingerprint;  // hex group fingerprint when shared
  bool shared = false;            // served from a shared group execution
  int32_t consumers = 0;          // sessions in the group (1 when solo)
  int64_t queue_wait_us = 0;      // submit -> execution start
  int64_t plan_us = 0;            // ... of which batch planning
  int64_t execute_us = 0;         // execution wall time
  int64_t bytes_scanned = 0;      // attributed billed bytes (its share)
  int64_t shared_bytes_scanned = 0;   // the execution's billed bytes
  int64_t isolated_static_bytes = 0;  // own plan's static scan bytes
  int64_t rows_produced = 0;
  int32_t cost_decisions = 0;  // share-vs-solo verdicts taken for this batch
  int32_t cost_shared = 0;     // ... of which chose to share
  bool slow = false;           // crossed the slow-query threshold
  std::string slow_profile_path;  // where the auto-captured profile went
};

/// Append-only JSONL writer with a slow-query threshold. Append is
/// thread-safe (one mutex around the buffered write); events are flushed
/// per line so a crash loses at most the line being written.
class QueryLog {
 public:
  /// Opens `path` for appending. `slow_ms <= 0` disables slow-query
  /// capture. Fails with ExecutionError when the file cannot be opened.
  static Result<std::unique_ptr<QueryLog>> Open(const std::string& path,
                                                int64_t slow_ms = 0);

  ~QueryLog();
  QueryLog(const QueryLog&) = delete;
  QueryLog& operator=(const QueryLog&) = delete;

  /// Serializes `event` as one JSON line and appends it. Thread-safe.
  Status Append(const QueryLogEvent& event);

  /// Whether a session with this total latency crosses the slow threshold.
  bool IsSlow(int64_t total_us) const {
    return slow_ms_ > 0 && total_us >= slow_ms_ * 1000;
  }

  /// Where a slow session's auto-captured profile is written:
  /// `<path>.slow-<session_id>.json`.
  std::string SlowProfilePath(int64_t session_id) const;

  const std::string& path() const { return path_; }
  int64_t slow_ms() const { return slow_ms_; }

  /// Events appended so far (diagnostics / tests).
  int64_t events() const;

 private:
  QueryLog(std::string path, int64_t slow_ms, std::FILE* file);

  const std::string path_;
  const int64_t slow_ms_;
  mutable std::mutex mu_;  // guards file_ and events_
  std::FILE* file_;
  int64_t events_ = 0;
};

}  // namespace fusiondb

#endif  // FUSIONDB_OBS_QUERY_LOG_H_
