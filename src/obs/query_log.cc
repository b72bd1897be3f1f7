#include "obs/query_log.h"

#include <utility>

#include "obs/json_writer.h"
#include "obs/metrics.h"

namespace fusiondb {

Result<std::unique_ptr<QueryLog>> QueryLog::Open(const std::string& path,
                                                 int64_t slow_ms) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    return Status::ExecutionError("cannot open query log file: " + path);
  }
  return std::unique_ptr<QueryLog>(new QueryLog(path, slow_ms, f));
}

QueryLog::QueryLog(std::string path, int64_t slow_ms, std::FILE* file)
    : path_(std::move(path)), slow_ms_(slow_ms), file_(file) {}

QueryLog::~QueryLog() {
  std::lock_guard<std::mutex> lock(mu_);
  if (file_ != nullptr) std::fclose(file_);
}

Status QueryLog::Append(const QueryLogEvent& event) {
  JsonWriter w;
  w.BeginObject();
  w.Field("schema_version", kTelemetrySchemaVersion);
  w.Field("session_id", event.session_id);
  if (!event.query.empty()) w.Field("query", event.query);
  if (!event.mode.empty()) w.Field("mode", event.mode);
  w.Field("fingerprint", event.fingerprint);
  if (!event.group_fingerprint.empty()) {
    w.Field("group_fingerprint", event.group_fingerprint);
  }
  w.Field("shared", event.shared);
  w.Field("consumers", static_cast<int64_t>(event.consumers));
  w.Field("queue_wait_us", event.queue_wait_us);
  w.Field("plan_us", event.plan_us);
  w.Field("execute_us", event.execute_us);
  w.Field("bytes_scanned", event.bytes_scanned);
  w.Field("shared_bytes_scanned", event.shared_bytes_scanned);
  w.Field("isolated_static_bytes", event.isolated_static_bytes);
  w.Field("rows_produced", event.rows_produced);
  w.Field("cost_decisions", static_cast<int64_t>(event.cost_decisions));
  w.Field("cost_shared", static_cast<int64_t>(event.cost_shared));
  w.Field("slow", event.slow);
  if (!event.slow_profile_path.empty()) {
    w.Field("slow_profile_path", event.slow_profile_path);
  }
  w.EndObject();
  std::string line = w.TakeString();
  line.push_back('\n');

  std::lock_guard<std::mutex> lock(mu_);
  if (file_ == nullptr) {
    return Status::ExecutionError("query log already closed: " + path_);
  }
  size_t written = std::fwrite(line.data(), 1, line.size(), file_);
  if (written != line.size() || std::fflush(file_) != 0) {
    return Status::ExecutionError("failed writing query log to " + path_);
  }
  ++events_;
  return Status::OK();
}

std::string QueryLog::SlowProfilePath(int64_t session_id) const {
  return path_ + ".slow-" + std::to_string(session_id) + ".json";
}

int64_t QueryLog::events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

}  // namespace fusiondb
