// ExecOperator: the chunk-at-a-time interface between the executor's
// operators. Compiled pipelines (exec/pipeline.h) push morsels through
// their fused chains and hand their output up through Next(), as do the
// blocking operators between them. Operators never materialize to storage;
// blocking
// operators (hash join build sides, aggregation, sort, window) buffer in
// memory and account for it — exactly the engine architecture whose lack of
// materialization points motivates the paper's fusion rewrites.
#ifndef FUSIONDB_EXEC_OPERATOR_H_
#define FUSIONDB_EXEC_OPERATOR_H_

#include <memory>
#include <optional>

#include "common/status.h"
#include "exec/exec_context.h"
#include "types/chunk.h"
#include "types/schema.h"

namespace fusiondb {

class ExecOperator {
 public:
  explicit ExecOperator(Schema schema) : schema_(std::move(schema)) {}
  virtual ~ExecOperator() = default;

  ExecOperator(const ExecOperator&) = delete;
  ExecOperator& operator=(const ExecOperator&) = delete;

  /// Pulls the next chunk; std::nullopt signals end of stream. After end of
  /// stream the operator must keep returning std::nullopt.
  virtual Result<std::optional<Chunk>> Next() = 0;

  const Schema& schema() const { return schema_; }

 protected:
  /// Column types of this operator's output, for building result chunks.
  std::vector<DataType> OutputTypes() const {
    std::vector<DataType> types;
    types.reserve(schema_.num_columns());
    for (const ColumnInfo& c : schema_.columns()) types.push_back(c.type);
    return types;
  }

 private:
  Schema schema_;
};

using ExecOperatorPtr = std::unique_ptr<ExecOperator>;

}  // namespace fusiondb

#endif  // FUSIONDB_EXEC_OPERATOR_H_
