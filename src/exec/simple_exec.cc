// Streaming operators with no buffered state: UnionAll, Values, Limit,
// EnforceSingleRow.
#include <optional>

#include "exec/operators_internal.h"

namespace fusiondb::internal {

namespace {

class UnionAllExec final : public ExecOperator {
 public:
  UnionAllExec(const UnionAllOp& op, std::vector<ExecOperatorPtr> children,
               std::vector<std::vector<int>> input_positions)
      : ExecOperator(op.schema()),
        children_(std::move(children)),
        input_positions_(std::move(input_positions)) {}

  Result<std::optional<Chunk>> Next() override {
    while (current_ < children_.size()) {
      FUSIONDB_ASSIGN_OR_RETURN(std::optional<Chunk> in,
                                children_[current_]->Next());
      if (!in.has_value()) {
        ++current_;
        continue;
      }
      const std::vector<int>& positions = input_positions_[current_];
      Chunk out = Chunk::Empty(OutputTypes());
      for (size_t o = 0; o < positions.size(); ++o) {
        out.columns[o].AppendColumn(in->columns[positions[o]]);
      }
      return std::optional<Chunk>(std::move(out));
    }
    return std::optional<Chunk>();
  }

 private:
  std::vector<ExecOperatorPtr> children_;
  // For each child: child column position feeding each output position.
  std::vector<std::vector<int>> input_positions_;
  size_t current_ = 0;
};

class ValuesExec final : public ExecOperator {
 public:
  ValuesExec(const ValuesOp& op) : ExecOperator(op.schema()), op_(op) {}

  Result<std::optional<Chunk>> Next() override {
    if (done_) return std::optional<Chunk>();
    done_ = true;
    Chunk out = Chunk::Empty(OutputTypes());
    for (const std::vector<Value>& row : op_.rows()) {
      if (row.size() != out.num_columns()) {
        return Status::PlanError("VALUES row arity mismatch");
      }
      for (size_t c = 0; c < row.size(); ++c) {
        out.columns[c].AppendValue(row[c]);
      }
    }
    return std::optional<Chunk>(std::move(out));
  }

 private:
  const ValuesOp& op_;  // owned by the plan, which outlives execution
  bool done_ = false;
};

class LimitExec final : public ExecOperator {
 public:
  LimitExec(const LimitOp& op, ExecOperatorPtr child)
      : ExecOperator(op.schema()),
        child_(std::move(child)),
        remaining_(op.limit()) {}

  Result<std::optional<Chunk>> Next() override {
    if (remaining_ <= 0) return std::optional<Chunk>();
    FUSIONDB_ASSIGN_OR_RETURN(std::optional<Chunk> in, child_->Next());
    if (!in.has_value()) return std::optional<Chunk>();
    int64_t rows = static_cast<int64_t>(in->num_rows());
    if (rows <= remaining_) {
      remaining_ -= rows;
      return in;
    }
    Chunk out = Chunk::Empty(OutputTypes());
    out.AppendRange(*in, 0, static_cast<size_t>(remaining_));
    remaining_ = 0;
    return std::optional<Chunk>(std::move(out));
  }

 private:
  ExecOperatorPtr child_;
  int64_t remaining_;
};

class SingleRowExec final : public ExecOperator {
 public:
  SingleRowExec(const EnforceSingleRowOp& op, ExecOperatorPtr child)
      : ExecOperator(op.schema()), child_(std::move(child)) {}

  Result<std::optional<Chunk>> Next() override {
    if (done_) return std::optional<Chunk>();
    done_ = true;
    Chunk out = Chunk::Empty(OutputTypes());
    int64_t total = 0;
    while (true) {
      FUSIONDB_ASSIGN_OR_RETURN(std::optional<Chunk> in, child_->Next());
      if (!in.has_value()) break;
      total += static_cast<int64_t>(in->num_rows());
      if (total > 1) {
        return Status::ExecutionError(
            "scalar subquery returned more than one row");
      }
      out.AppendChunk(*in);
    }
    if (total != 1) {
      return Status::ExecutionError("scalar subquery returned no rows");
    }
    return std::optional<Chunk>(std::move(out));
  }

 private:
  ExecOperatorPtr child_;
  bool done_ = false;
};

}  // namespace

Result<ExecOperatorPtr> MakeUnionAllExec(const UnionAllOp& op,
                                         std::vector<ExecOperatorPtr> children) {
  std::vector<std::vector<int>> positions;
  positions.reserve(children.size());
  for (size_t c = 0; c < children.size(); ++c) {
    const std::vector<ColumnId>& ids = op.input_columns()[c];
    if (ids.size() != op.schema().num_columns()) {
      return Status::PlanError("union input mapping width mismatch");
    }
    std::vector<int> pos;
    pos.reserve(ids.size());
    for (ColumnId id : ids) {
      int idx = children[c]->schema().IndexOf(id);
      if (idx < 0) {
        return Status::PlanError("union input column #" + std::to_string(id) +
                                 " not found in child schema");
      }
      pos.push_back(idx);
    }
    positions.push_back(std::move(pos));
  }
  return ExecOperatorPtr(
      new UnionAllExec(op, std::move(children), std::move(positions)));
}

Result<ExecOperatorPtr> MakeValuesExec(const ValuesOp& op) {
  return ExecOperatorPtr(new ValuesExec(op));
}

Result<ExecOperatorPtr> MakeLimitExec(const LimitOp& op, ExecOperatorPtr child) {
  if (op.limit() < 0) return Status::PlanError("negative limit");
  return ExecOperatorPtr(new LimitExec(op, std::move(child)));
}

Result<ExecOperatorPtr> MakeSingleRowExec(const EnforceSingleRowOp& op,
                                          ExecOperatorPtr child) {
  return ExecOperatorPtr(new SingleRowExec(op, std::move(child)));
}

}  // namespace fusiondb::internal
