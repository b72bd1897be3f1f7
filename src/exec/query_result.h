// QueryResult: fully drained output of a plan plus execution metrics.
#ifndef FUSIONDB_EXEC_QUERY_RESULT_H_
#define FUSIONDB_EXEC_QUERY_RESULT_H_

#include <string>
#include <vector>

#include "exec/exec_context.h"
#include "types/chunk.h"
#include "types/schema.h"

namespace fusiondb {

class QueryResult {
 public:
  QueryResult() = default;
  QueryResult(Schema schema, std::vector<Chunk> chunks, ExecMetrics metrics,
              double wall_ms, std::vector<OperatorStats> operator_stats = {},
              std::vector<PipelineRecord> pipelines = {});

  const Schema& schema() const { return schema_; }
  const std::vector<Chunk>& chunks() const { return chunks_; }
  const ExecMetrics& metrics() const { return metrics_; }
  double wall_ms() const { return wall_ms_; }

  /// Per-operator runtime stats in preorder over the executed plan (index
  /// == stable operator id). Empty when profiling was disabled.
  const std::vector<OperatorStats>& operator_stats() const {
    return operator_stats_;
  }

  /// The compiled pipelines, in plan preorder of their chain roots.
  const std::vector<PipelineRecord>& pipelines() const { return pipelines_; }

  int64_t num_rows() const { return num_rows_; }

  /// Value at global row `row`, column position `col`.
  Value At(int64_t row, int col) const;

  /// One rendered line per row, values joined by '|', doubles rounded to 9
  /// significant digits so results computed via different plans compare
  /// stably. Sorted when `sorted` is true (order-insensitive comparisons).
  std::vector<std::string> RenderRows(bool sorted) const;

  /// Pretty table (header + up to `max_rows` rows) for examples/demos.
  std::string ToString(int64_t max_rows = 20) const;

 private:
  Schema schema_;
  std::vector<Chunk> chunks_;
  ExecMetrics metrics_;
  double wall_ms_ = 0.0;
  int64_t num_rows_ = 0;
  std::vector<OperatorStats> operator_stats_;
  std::vector<PipelineRecord> pipelines_;
};

/// Order-insensitive result equivalence (multiset of rendered rows). Used
/// pervasively by tests to check baseline and fused plans agree.
bool ResultsEquivalent(const QueryResult& a, const QueryResult& b);

/// Order-sensitive variant for plans whose root enforces an ordering.
bool ResultsEqualOrdered(const QueryResult& a, const QueryResult& b);

}  // namespace fusiondb

#endif  // FUSIONDB_EXEC_QUERY_RESULT_H_
