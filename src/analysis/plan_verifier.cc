#include "analysis/plan_verifier.h"

#include <cstdlib>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/expr_type_checker.h"
#include "plan/plan_printer.h"
#include "plan/spool.h"

namespace fusiondb {

bool PlanVerificationEnabled() {
  static const bool enabled = [] {
    const char* env = std::getenv("FUSIONDB_VERIFY_PLANS");
    return env == nullptr || env[0] != '0';
  }();
  return enabled;
}

namespace {

Status StructuralViolation(const char* invariant, std::string detail) {
  return Status::PlanError("[" + std::string(invariant) + "] " +
                           std::move(detail));
}

Status TypeViolation(const char* invariant, std::string detail) {
  return Status::TypeError("[" + std::string(invariant) + "] " +
                           std::move(detail));
}

/// Same columns in the same order (ids and types; names are cosmetic).
bool SchemasEqual(const Schema& a, const Schema& b) {
  if (a.num_columns() != b.num_columns()) return false;
  for (size_t i = 0; i < a.num_columns(); ++i) {
    if (a.column(i).id != b.column(i).id ||
        a.column(i).type != b.column(i).type) {
      return false;
    }
  }
  return true;
}

std::string DescribeOp(const LogicalOp& op) {
  return std::string(OpKindName(op.kind()));
}

class VerifierImpl {
 public:
  Status VerifyTree(const PlanPtr& plan) {
    if (plan == nullptr) {
      return StructuralViolation("null-plan", "null operator in plan tree");
    }
    const LogicalOp* raw = plan.get();
    if (on_stack_.count(raw) > 0) {
      return StructuralViolation(
          "plan-cycle", DescribeOp(*plan) + " is its own ancestor");
    }
    // Shared subtrees (spool consumers make plans DAGs) verify once.
    if (verified_.count(raw) > 0) return Status::OK();
    on_stack_.insert(raw);
    for (const PlanPtr& c : plan->children()) {
      FUSIONDB_RETURN_IF_ERROR(VerifyTree(c));
    }
    on_stack_.erase(raw);
    Status local = VerifyLocal(*plan);
    if (!local.ok()) {
      // Anchor the diagnostic on the offending subplan, pretty-printed.
      return Status(local.code(), local.message() + "\noffending subplan:\n" +
                                      PlanToString(plan));
    }
    verified_.insert(raw);
    return Status::OK();
  }

 private:
  Status VerifyLocal(const LogicalOp& op) {
    FUSIONDB_RETURN_IF_ERROR(VerifyChildCount(op));
    FUSIONDB_RETURN_IF_ERROR(VerifySchemaWellFormed(op.schema()));
    switch (op.kind()) {
      case OpKind::kScan:
        return VerifyScan(Cast<ScanOp>(op));
      case OpKind::kFilter: {
        const auto& f = Cast<FilterOp>(op);
        FUSIONDB_RETURN_IF_ERROR(VerifyPassThroughSchema(op));
        return ExprTypeChecker(f.child(0)->schema())
            .CheckBoolean(f.predicate(), "predicate");
      }
      case OpKind::kProject:
        return VerifyProject(Cast<ProjectOp>(op));
      case OpKind::kJoin:
        return VerifyJoin(Cast<JoinOp>(op));
      case OpKind::kAggregate:
        return VerifyAggregate(Cast<AggregateOp>(op));
      case OpKind::kWindow:
        return VerifyWindow(Cast<WindowOp>(op));
      case OpKind::kUnionAll:
        return VerifyUnionAll(Cast<UnionAllOp>(op));
      case OpKind::kValues:
        return VerifyValues(Cast<ValuesOp>(op));
      case OpKind::kSort:
        return VerifySort(Cast<SortOp>(op));
      case OpKind::kLimit: {
        FUSIONDB_RETURN_IF_ERROR(VerifyPassThroughSchema(op));
        int64_t limit = Cast<LimitOp>(op).limit();
        if (limit < 0) {
          return StructuralViolation(
              "limit-negative",
              internal::StrCat("Limit of ", limit, " rows"));
        }
        return WalkLimitOrdering(op.child(0), /*destroyed=*/false);
      }
      case OpKind::kEnforceSingleRow:
        return VerifyPassThroughSchema(op);
      case OpKind::kApply:
        return VerifyApply(Cast<ApplyOp>(op));
      case OpKind::kSpool:
        return VerifySpool(Cast<SpoolOp>(op));
    }
    return Status::Internal("unknown operator kind");
  }

  Status VerifyChildCount(const LogicalOp& op) {
    size_t expected = 0;
    switch (op.kind()) {
      case OpKind::kScan:
      case OpKind::kValues:
        expected = 0;
        break;
      case OpKind::kJoin:
      case OpKind::kApply:
        expected = 2;
        break;
      case OpKind::kUnionAll:
        if (op.num_children() == 0) {
          return StructuralViolation("child-count",
                                     "UnionAll needs at least one input");
        }
        return Status::OK();
      case OpKind::kFilter:
      case OpKind::kProject:
      case OpKind::kAggregate:
      case OpKind::kWindow:
      case OpKind::kSort:
      case OpKind::kLimit:
      case OpKind::kEnforceSingleRow:
      case OpKind::kSpool:
        expected = 1;
        break;
    }
    if (op.num_children() != expected) {
      return StructuralViolation(
          "child-count",
          internal::StrCat(DescribeOp(op), " has ", op.num_children(),
                           " children, expected ", expected));
    }
    return Status::OK();
  }

  Status VerifySchemaWellFormed(const Schema& schema) {
    // A repeated id is tolerated when every occurrence agrees on the type:
    // self-joins of a shared spool consumer legitimately emit the same
    // column on both sides, and IndexOf resolves to the first occurrence,
    // which is then type-consistent. Conflicting types under one id would
    // make that resolution unsound, so only that case is an error.
    std::unordered_map<ColumnId, DataType> seen;
    for (const ColumnInfo& c : schema.columns()) {
      if (c.id == kInvalidColumnId) {
        return StructuralViolation(
            "schema-invalid-id", "output column '" + c.name +
                                     "' has no allocated ColumnId");
      }
      auto [it, inserted] = seen.emplace(c.id, c.type);
      if (!inserted && it->second != c.type) {
        return StructuralViolation(
            "schema-duplicate-column",
            internal::StrCat("column #", c.id,
                             " appears with conflicting types in output "
                             "schema ",
                             schema.ToString()));
      }
    }
    return Status::OK();
  }

  /// Filter/Sort/Limit/EnforceSingleRow/Spool pass rows through unchanged.
  Status VerifyPassThroughSchema(const LogicalOp& op) {
    if (!SchemasEqual(op.schema(), op.child(0)->schema())) {
      return StructuralViolation(
          "schema-mismatch",
          DescribeOp(op) + " output schema " + op.schema().ToString() +
              " differs from its child's " +
              op.child(0)->schema().ToString());
    }
    return Status::OK();
  }

  Status VerifyScan(const ScanOp& scan) {
    if (scan.table() == nullptr) {
      return StructuralViolation("scan-table-null", "Scan of a null table");
    }
    const auto& table_cols = scan.table()->columns();
    if (scan.table_columns().size() != scan.schema().num_columns()) {
      return StructuralViolation(
          "schema-arity",
          internal::StrCat("Scan reads ", scan.table_columns().size(),
                           " table columns but outputs ",
                           scan.schema().num_columns()));
    }
    for (size_t i = 0; i < scan.table_columns().size(); ++i) {
      int tc = scan.table_columns()[i];
      if (tc < 0 || static_cast<size_t>(tc) >= table_cols.size()) {
        return StructuralViolation(
            "scan-column-index",
            internal::StrCat("Scan of ", scan.table()->name(),
                             " reads column index ", tc, " of ",
                             table_cols.size()));
      }
      if (table_cols[static_cast<size_t>(tc)].type !=
          scan.schema().column(i).type) {
        return TypeViolation(
            "scan-column-type",
            internal::StrCat(
                "Scan output '", scan.schema().column(i).name, "' declares ",
                DataTypeName(scan.schema().column(i).type), " but table ",
                scan.table()->name(), " stores ",
                DataTypeName(table_cols[static_cast<size_t>(tc)].type)));
      }
    }
    return Status::OK();
  }

  Status VerifyProject(const ProjectOp& project) {
    const Schema& out = project.schema();
    if (out.num_columns() != project.exprs().size()) {
      return StructuralViolation(
          "schema-arity",
          internal::StrCat("Project declares ", out.num_columns(),
                           " output columns for ", project.exprs().size(),
                           " expressions"));
    }
    ExprTypeChecker checker(project.child(0)->schema());
    for (size_t i = 0; i < project.exprs().size(); ++i) {
      const NamedExpr& e = project.exprs()[i];
      FUSIONDB_RETURN_IF_ERROR(checker.Check(e.expr));
      if (out.column(i).id != e.id || out.column(i).type != e.expr->type()) {
        return StructuralViolation(
            "schema-column-mismatch",
            internal::StrCat("Project output ", i, " (#", out.column(i).id,
                             ":", DataTypeName(out.column(i).type),
                             ") disagrees with expression '", e.name, "' (#",
                             e.id, ":", DataTypeName(e.expr->type()), ")"));
      }
    }
    return Status::OK();
  }

  Status VerifyJoin(const JoinOp& join) {
    const Schema& left = join.left()->schema();
    const Schema& right = join.right()->schema();
    // Expected output: left then right, except semi joins keep left only.
    std::vector<ColumnInfo> expected = left.columns();
    if (join.join_type() != JoinType::kSemi) {
      for (const ColumnInfo& c : right.columns()) expected.push_back(c);
    }
    if (!SchemasEqual(join.schema(), Schema(expected))) {
      return StructuralViolation(
          "schema-mismatch",
          internal::StrCat("Join(", JoinTypeName(join.join_type()),
                           ") output schema ", join.schema().ToString(),
                           " is not its children's schemas concatenated"));
    }
    if (join.condition() == nullptr) {
      return StructuralViolation("join-condition-missing",
                                 "Join with a null condition");
    }
    // The condition binds against both inputs regardless of join type. Ids
    // are plan-wide unique, so the concatenation must be collision-free.
    std::vector<ColumnInfo> combined = left.columns();
    for (const ColumnInfo& c : right.columns()) combined.push_back(c);
    Schema both(combined);
    FUSIONDB_RETURN_IF_ERROR(VerifySchemaWellFormed(both));
    FUSIONDB_RETURN_IF_ERROR(
        ExprTypeChecker(both).CheckBoolean(join.condition(), "predicate"));
    if (join.join_type() == JoinType::kCross &&
        !join.condition()->IsLiteralBool(true)) {
      return StructuralViolation(
          "cross-join-condition",
          "Cross join must carry a TRUE condition, got " +
              join.condition()->ToString());
    }
    return Status::OK();
  }

  Status VerifyAggregate(const AggregateOp& agg) {
    const Schema& in = agg.child(0)->schema();
    const Schema& out = agg.schema();
    if (out.num_columns() !=
        agg.group_by().size() + agg.aggregates().size()) {
      return StructuralViolation(
          "schema-arity",
          internal::StrCat("Aggregate outputs ", out.num_columns(),
                           " columns for ", agg.group_by().size(),
                           " group keys + ", agg.aggregates().size(),
                           " aggregates"));
    }
    for (size_t i = 0; i < agg.group_by().size(); ++i) {
      ColumnId g = agg.group_by()[i];
      int idx = in.IndexOf(g);
      if (idx < 0) {
        return StructuralViolation(
            "aggregate-group-unresolved",
            internal::StrCat("group-by column #", g,
                             " is not produced by the input schema ",
                             in.ToString()));
      }
      if (out.column(i).id != g ||
          out.column(i).type != in.column(static_cast<size_t>(idx)).type) {
        return StructuralViolation(
            "schema-column-mismatch",
            internal::StrCat("Aggregate output ", i,
                             " does not pass through group key #", g));
      }
    }
    ExprTypeChecker checker(in);
    for (size_t i = 0; i < agg.aggregates().size(); ++i) {
      const AggregateItem& a = agg.aggregates()[i];
      FUSIONDB_RETURN_IF_ERROR(
          VerifyAggArgument(a.func, a.arg, a.name, checker));
      if (a.mask != nullptr) {
        FUSIONDB_RETURN_IF_ERROR(checker.CheckBoolean(a.mask, "mask"));
      }
      const ColumnInfo& col = out.column(agg.group_by().size() + i);
      if (col.id == kInvalidColumnId || col.id != a.id ||
          col.type != a.result_type()) {
        return StructuralViolation(
            "schema-column-mismatch",
            internal::StrCat("aggregate '", a.name, "' (#", a.id, ":",
                             DataTypeName(a.result_type()),
                             ") disagrees with output column #", col.id, ":",
                             DataTypeName(col.type)));
      }
    }
    return Status::OK();
  }

  Status VerifyAggArgument(AggFunc func, const ExprPtr& arg,
                           const std::string& name,
                           const ExprTypeChecker& checker) {
    if (func == AggFunc::kCountStar) {
      if (arg != nullptr) {
        return StructuralViolation(
            "aggregate-arg", "count(*) '" + name + "' carries an argument");
      }
      return Status::OK();
    }
    if (arg == nullptr) {
      return StructuralViolation(
          "aggregate-arg", std::string(AggFuncName(func)) + " '" + name +
                               "' is missing its argument");
    }
    FUSIONDB_RETURN_IF_ERROR(checker.Check(arg));
    if ((func == AggFunc::kSum || func == AggFunc::kAvg) &&
        !IsNumeric(arg->type())) {
      return TypeViolation(
          "aggregate-arg-type",
          internal::StrCat(AggFuncName(func), " '", name, "' over ",
                           DataTypeName(arg->type()), " argument ",
                           arg->ToString()));
    }
    return Status::OK();
  }

  Status VerifyWindow(const WindowOp& win) {
    const Schema& in = win.child(0)->schema();
    const Schema& out = win.schema();
    for (ColumnId p : win.partition_by()) {
      if (!in.Contains(p)) {
        return StructuralViolation(
            "window-partition-unresolved",
            internal::StrCat("partition column #", p,
                             " is not produced by the input schema ",
                             in.ToString()));
      }
    }
    if (out.num_columns() != in.num_columns() + win.items().size() ||
        !SchemasEqual(Schema(std::vector<ColumnInfo>(
                          out.columns().begin(),
                          out.columns().begin() +
                              static_cast<long>(in.num_columns()))),
                      in)) {
      return StructuralViolation(
          "schema-mismatch",
          "Window output must be its input schema plus one column per item");
    }
    ExprTypeChecker checker(in);
    for (size_t i = 0; i < win.items().size(); ++i) {
      const WindowItem& w = win.items()[i];
      FUSIONDB_RETURN_IF_ERROR(
          VerifyAggArgument(w.func, w.arg, w.name, checker));
      if (w.mask != nullptr) {
        FUSIONDB_RETURN_IF_ERROR(checker.CheckBoolean(w.mask, "mask"));
      }
      const ColumnInfo& col = out.column(in.num_columns() + i);
      if (col.id == kInvalidColumnId || col.id != w.id ||
          col.type != w.result_type()) {
        return StructuralViolation(
            "schema-column-mismatch",
            internal::StrCat("window item '", w.name, "' (#", w.id,
                             ") disagrees with output column #", col.id));
      }
    }
    return Status::OK();
  }

  Status VerifyUnionAll(const UnionAllOp& u) {
    const Schema& out = u.schema();
    if (u.input_columns().size() != u.num_children()) {
      return StructuralViolation(
          "union-mapping-arity",
          internal::StrCat("UnionAll has ", u.num_children(),
                           " inputs but ", u.input_columns().size(),
                           " column mappings"));
    }
    for (size_t c = 0; c < u.num_children(); ++c) {
      const Schema& in = u.child(c)->schema();
      const std::vector<ColumnId>& mapping = u.input_columns()[c];
      if (mapping.size() != out.num_columns()) {
        return StructuralViolation(
            "union-mapping-arity",
            internal::StrCat("UnionAll input ", c, " maps ", mapping.size(),
                             " columns onto ", out.num_columns(),
                             " outputs"));
      }
      for (size_t o = 0; o < mapping.size(); ++o) {
        int idx = in.IndexOf(mapping[o]);
        if (idx < 0) {
          return StructuralViolation(
              "union-branch-unresolved",
              internal::StrCat("UnionAll input ", c, " maps column #",
                               mapping[o],
                               " which that branch does not produce (",
                               in.ToString(), ")"));
        }
        DataType branch = in.column(static_cast<size_t>(idx)).type;
        if (branch != out.column(o).type) {
          return TypeViolation(
              "union-branch-type",
              internal::StrCat("UnionAll output '", out.column(o).name,
                               "' is ", DataTypeName(out.column(o).type),
                               " but input ", c, " feeds it ",
                               DataTypeName(branch), " column #",
                               mapping[o]));
        }
      }
    }
    return Status::OK();
  }

  Status VerifyValues(const ValuesOp& values) {
    const Schema& out = values.schema();
    for (size_t r = 0; r < values.rows().size(); ++r) {
      const std::vector<Value>& row = values.rows()[r];
      if (row.size() != out.num_columns()) {
        return StructuralViolation(
            "values-row-arity",
            internal::StrCat("Values row ", r, " has ", row.size(),
                             " cells for ", out.num_columns(), " columns"));
      }
      for (size_t c = 0; c < row.size(); ++c) {
        if (row[c].type() != out.column(c).type) {
          return TypeViolation(
              "values-cell-type",
              internal::StrCat("Values row ", r, " column '",
                               out.column(c).name, "' holds ",
                               DataTypeName(row[c].type()), ", declared ",
                               DataTypeName(out.column(c).type)));
        }
      }
    }
    return Status::OK();
  }

  /// Ordering guarantee below a Limit: when a Sort is meant to feed a Limit
  /// (top-K), every operator between them must preserve row order. Finding a
  /// Sort on the far side of an order-destroying operator (Aggregate, Join,
  /// UnionAll, Apply) means a rewrite moved one across the other and the
  /// plan silently returns the wrong K rows. The walk stops at a nested
  /// Limit — anything below it belongs to that Limit's own ordering
  /// contract (e.g. a top-K subquery feeding a join) — and at the first
  /// Sort, which is the one whose ordering the outer Limit consumes.
  Status WalkLimitOrdering(const PlanPtr& op, bool destroyed) {
    switch (op->kind()) {
      case OpKind::kSort:
        if (destroyed) {
          return StructuralViolation(
              "limit-sort-order-destroyed",
              "Limit draws from a Sort through an operator that does not "
              "preserve its ordering");
        }
        return Status::OK();
      case OpKind::kLimit:
      case OpKind::kScan:
      case OpKind::kValues:
        return Status::OK();
      case OpKind::kAggregate:
      case OpKind::kJoin:
      case OpKind::kUnionAll:
      case OpKind::kApply:
        destroyed = true;
        break;
      case OpKind::kFilter:
      case OpKind::kProject:
      case OpKind::kSpool:
      case OpKind::kEnforceSingleRow:
      case OpKind::kWindow:
        // These pass rows through in input order.
        break;
    }
    for (const PlanPtr& c : op->children()) {
      FUSIONDB_RETURN_IF_ERROR(WalkLimitOrdering(c, destroyed));
    }
    return Status::OK();
  }

  Status VerifySort(const SortOp& sort) {
    FUSIONDB_RETURN_IF_ERROR(VerifyPassThroughSchema(sort));
    for (const SortKey& k : sort.keys()) {
      if (!sort.schema().Contains(k.column)) {
        return StructuralViolation(
            "sort-key-unresolved",
            internal::StrCat("sort key #", k.column,
                             " is not produced by the input schema ",
                             sort.schema().ToString()));
      }
    }
    return Status::OK();
  }

  Status VerifyApply(const ApplyOp& apply) {
    const Schema& outer = apply.outer()->schema();
    const PlanPtr& sub = apply.subquery();
    if (sub->schema().num_columns() != 1 ||
        sub->kind() != OpKind::kAggregate ||
        !Cast<AggregateOp>(*sub).IsScalar()) {
      return StructuralViolation(
          "apply-subquery-shape",
          "Apply subquery must be a scalar Aggregate with a single output "
          "column (got " +
              DescribeOp(*sub) + ")");
    }
    std::vector<ColumnInfo> expected = outer.columns();
    expected.push_back(sub->schema().column(0));
    if (!SchemasEqual(apply.schema(), Schema(expected))) {
      return StructuralViolation(
          "schema-mismatch",
          "Apply output must be the outer schema plus the subquery's scalar "
          "column");
    }
    const Schema& inner = sub->child(0)->schema();
    for (const auto& [outer_col, inner_col] : apply.correlation()) {
      if (!outer.Contains(outer_col)) {
        return StructuralViolation(
            "apply-correlation-unresolved",
            internal::StrCat("correlation outer column #", outer_col,
                             " is not produced by the outer input"));
      }
      if (!inner.Contains(inner_col)) {
        return StructuralViolation(
            "apply-correlation-unresolved",
            internal::StrCat("correlation inner column #", inner_col,
                             " is not produced by the subquery aggregate's "
                             "input"));
      }
    }
    return Status::OK();
  }

  Status VerifySpool(const SpoolOp& spool) {
    FUSIONDB_RETURN_IF_ERROR(VerifyPassThroughSchema(spool));
    // Every consumer of a spool id must read the *same* materialized
    // subtree; a consumer pointing elsewhere would silently read another
    // relation's buffer at execution.
    auto [it, inserted] =
        spool_children_.emplace(spool.spool_id(), spool.child(0).get());
    if (!inserted && it->second != spool.child(0).get()) {
      return StructuralViolation(
          "dangling-spool",
          internal::StrCat("Spool id=", spool.spool_id(),
                           " consumers reference different subtrees; all "
                           "consumers must share one producer"));
    }
    return Status::OK();
  }

  std::unordered_set<const LogicalOp*> verified_;
  std::unordered_set<const LogicalOp*> on_stack_;
  std::unordered_map<int32_t, const LogicalOp*> spool_children_;
};

}  // namespace

Status PlanVerifier::Verify(const PlanPtr& plan, std::string_view context) {
  VerifierImpl impl;
  Status st = impl.VerifyTree(plan);
  if (st.ok()) return st;
  std::string where =
      context.empty() ? std::string()
                      : " (" + std::string(context) + ")";
  return Status(st.code(),
                "plan verification failed" + where + ": " + st.message());
}

Status VerifyPlanIfEnabled(const PlanPtr& plan, std::string_view context) {
  if (!PlanVerificationEnabled()) return Status::OK();
  return PlanVerifier::Verify(plan, context);
}

}  // namespace fusiondb
