#include "optimizer/rewrite_utils.h"

#include <algorithm>

namespace fusiondb {

namespace {

bool IsInnerOrCross(const PlanPtr& plan) {
  if (plan->kind() != OpKind::kJoin) return false;
  JoinType t = Cast<JoinOp>(*plan).join_type();
  return t == JoinType::kInner || t == JoinType::kCross;
}

void FlattenInto(const PlanPtr& plan, NaryJoin* out) {
  if (IsInnerOrCross(plan)) {
    const auto& join = Cast<JoinOp>(*plan);
    FlattenInto(join.left(), out);
    FlattenInto(join.right(), out);
    SplitConjuncts(join.condition(), &out->conjuncts);
    return;
  }
  out->inputs.push_back(plan);
}

/// True when every column referenced by `e` is in `schema`.
bool CoveredBy(const ExprPtr& e, const Schema& schema) {
  std::vector<ColumnId> cols;
  CollectColumns(e, &cols);
  for (ColumnId c : cols) {
    if (!schema.Contains(c)) return false;
  }
  return true;
}

/// x = x (structurally equivalent operands on both sides of an equality).
bool IsTrivialSelfEquality(const ExprPtr& e) {
  return e->kind() == ExprKind::kCompare &&
         e->compare_op() == CompareOp::kEq &&
         ExprEquivalent(e->child(0), e->child(1));
}

}  // namespace

bool FlattenJoin(const PlanPtr& plan, NaryJoin* out) {
  if (!IsInnerOrCross(plan)) return false;
  FlattenInto(plan, out);
  return true;
}

EqualityClasses::EqualityClasses(const std::vector<ExprPtr>& conjuncts) {
  for (const ExprPtr& c : conjuncts) {
    if (c->kind() != ExprKind::kCompare ||
        c->compare_op() != CompareOp::kEq ||
        c->child(0)->kind() != ExprKind::kColumnRef ||
        c->child(1)->kind() != ExprKind::kColumnRef) {
      continue;
    }
    ColumnId a = Find(c->child(0)->column_id());
    ColumnId b = Find(c->child(1)->column_id());
    if (a != b) parent_[a] = b;
  }
}

ColumnId EqualityClasses::Find(ColumnId x) const {
  auto it = parent_.find(x);
  if (it == parent_.end()) return x;
  ColumnId root = Find(it->second);
  parent_[x] = root;
  return root;
}

bool EqualityClasses::Same(ColumnId a, ColumnId b) const {
  return Find(a) == Find(b);
}

std::vector<ExprPtr> RemapConjuncts(const std::vector<ExprPtr>& conjuncts,
                                    const ColumnMap& map) {
  std::vector<ExprPtr> out;
  out.reserve(conjuncts.size());
  for (const ExprPtr& c : conjuncts) {
    ExprPtr mapped = ApplyMap(map, c);
    if (IsTrivialSelfEquality(mapped)) continue;
    out.push_back(std::move(mapped));
  }
  return out;
}

Result<PlanPtr> RebuildJoin(const NaryJoin& nary) {
  if (nary.inputs.empty()) {
    return Status::Internal("n-ary join rebuild with no inputs");
  }
  std::vector<ExprPtr> pending = nary.conjuncts;

  // Attach single-input conjuncts as filters directly on their input.
  std::vector<PlanPtr> inputs = nary.inputs;
  for (PlanPtr& input : inputs) {
    std::vector<ExprPtr> mine;
    std::vector<ExprPtr> rest;
    for (const ExprPtr& c : pending) {
      if (CoveredBy(c, input->schema())) {
        mine.push_back(c);
      } else {
        rest.push_back(c);
      }
    }
    if (!mine.empty()) {
      input = std::make_shared<FilterOp>(input, CombineConjuncts(mine));
      pending = std::move(rest);
    }
  }

  PlanPtr current = inputs[0];
  for (size_t i = 1; i < inputs.size(); ++i) {
    // Collect conjuncts resolvable once `inputs[i]` joins the scope.
    std::vector<ColumnInfo> combined = current->schema().columns();
    for (const ColumnInfo& c : inputs[i]->schema().columns()) {
      combined.push_back(c);
    }
    Schema scope{combined};
    std::vector<ExprPtr> here;
    std::vector<ExprPtr> rest;
    for (const ExprPtr& c : pending) {
      if (CoveredBy(c, scope)) {
        here.push_back(c);
      } else {
        rest.push_back(c);
      }
    }
    pending = std::move(rest);
    if (here.empty()) {
      current = std::make_shared<JoinOp>(
          JoinType::kCross, current, inputs[i],
          Expr::MakeLiteral(Value::Bool(true)));
    } else {
      current = std::make_shared<JoinOp>(JoinType::kInner, current, inputs[i],
                                         CombineConjuncts(here));
    }
  }
  if (!pending.empty()) {
    return Status::Internal(
        "n-ary join rebuild left unplaced conjuncts (dangling column refs)");
  }
  return current;
}

Result<PlanPtr> RestoreSchema(const PlanPtr& plan, const Schema& original,
                              const ColumnMap& map) {
  bool identity = true;
  for (const ColumnInfo& c : original.columns()) {
    ColumnId source = ApplyMap(map, c.id);
    if (!plan->schema().Contains(source)) {
      return Status::Internal("schema restoration: column #" +
                              std::to_string(source) + " missing");
    }
    if (source != c.id) identity = false;
  }
  // A superset schema with untouched ids needs no projection: parents
  // reference columns by id, and column pruning trims extras later. This
  // also keeps join trees flattenable for the n-ary fusion rules.
  if (identity) {
    return plan;
  }
  std::vector<NamedExpr> exprs;
  exprs.reserve(original.num_columns());
  for (const ColumnInfo& c : original.columns()) {
    ColumnId source = ApplyMap(map, c.id);
    const ColumnInfo& info =
        plan->schema().column(plan->schema().IndexOf(source));
    exprs.push_back({c.id, c.name, Expr::MakeColumnRef(source, info.type)});
  }
  return std::static_pointer_cast<const LogicalOp>(
      std::make_shared<ProjectOp>(plan, std::move(exprs)));
}

}  // namespace fusiondb
