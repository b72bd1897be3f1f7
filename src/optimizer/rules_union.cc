// Sections IV.C (UnionAllOnJoin) and IV.D (UnionAll fusion).
#include <optional>

#include "analysis/plan_props.h"
#include "exec/executor.h"
#include "expr/expr_builder.h"
#include "expr/simplifier.h"
#include "fusion/fuse.h"
#include "optimizer/rewrite_utils.h"
#include "optimizer/rules.h"

namespace fusiondb {

namespace {

ExprPtr TrueExpr() { return Expr::MakeLiteral(Value::Bool(true)); }

/// One branch of a UnionAll normalized for the OnJoin rule: an optional
/// projection above an inner/semi join. `outputs[o]` is the expression
/// feeding union output position o (over the join's output columns).
struct Branch {
  const JoinOp* join = nullptr;
  std::vector<ExprPtr> outputs;
};

/// Extracts the Branch shape; fails (nullopt) when the child is not
/// Project?(Join) or an output expression uses right-side (Z) columns —
/// those must be computable on the A side so the union can move below the
/// join.
std::optional<Branch> NormalizeBranch(const PlanPtr& child,
                                      const std::vector<ColumnId>& out_ids) {
  Branch branch;
  const PlanPtr* join_plan = &child;
  const ProjectOp* proj = nullptr;
  if (child->kind() == OpKind::kProject) {
    proj = &Cast<ProjectOp>(*child);
    join_plan = &child->child(0);
  }
  if ((*join_plan)->kind() != OpKind::kJoin) return std::nullopt;
  branch.join = &Cast<JoinOp>(**join_plan);
  if (branch.join->join_type() != JoinType::kInner &&
      branch.join->join_type() != JoinType::kSemi) {
    return std::nullopt;
  }
  const Schema& a_schema = branch.join->left()->schema();
  for (ColumnId id : out_ids) {
    ExprPtr expr;
    if (proj != nullptr) {
      for (const NamedExpr& e : proj->exprs()) {
        if (e.id == id) {
          expr = e.expr;
          break;
        }
      }
    } else {
      int idx = branch.join->schema().IndexOf(id);
      if (idx >= 0) {
        expr = Expr::MakeColumnRef(id, branch.join->schema().column(idx).type);
      }
    }
    if (expr == nullptr) return std::nullopt;
    std::vector<ColumnId> used;
    CollectColumns(expr, &used);
    for (ColumnId c : used) {
      if (!a_schema.Contains(c)) return std::nullopt;
    }
    branch.outputs.push_back(std::move(expr));
  }
  return branch;
}

/// Splits a join condition into lhs(A-side) = rhs(Z-side) pairs plus
/// Z-side-only residual conjuncts. Fails on anything else.
struct SplitCondition {
  std::vector<std::pair<ColumnId, ColumnId>> equalities;  // (lhs, rhs)
  std::vector<ExprPtr> z_residuals;
};

std::optional<SplitCondition> SplitJoinCondition(const JoinOp& join) {
  SplitCondition out;
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(join.condition(), &conjuncts);
  const Schema& a = join.left()->schema();
  const Schema& z = join.right()->schema();
  auto covered = [](const ExprPtr& e, const Schema& s) {
    std::vector<ColumnId> cols;
    CollectColumns(e, &cols);
    for (ColumnId c : cols) {
      if (!s.Contains(c)) return false;
    }
    return true;
  };
  for (const ExprPtr& c : conjuncts) {
    if (c->kind() == ExprKind::kCompare &&
        c->compare_op() == CompareOp::kEq &&
        c->child(0)->kind() == ExprKind::kColumnRef &&
        c->child(1)->kind() == ExprKind::kColumnRef) {
      ColumnId x = c->child(0)->column_id();
      ColumnId y = c->child(1)->column_id();
      if (a.Contains(x) && z.Contains(y)) {
        out.equalities.push_back({x, y});
        continue;
      }
      if (a.Contains(y) && z.Contains(x)) {
        out.equalities.push_back({y, x});
        continue;
      }
    }
    if (covered(c, z)) {
      out.z_residuals.push_back(c);
      continue;
    }
    return std::nullopt;
  }
  return out;
}

}  // namespace

Result<PlanPtr> UnionAllOnJoinRule::Apply(const PlanPtr& plan,
                                          PlanContext* ctx) const {
  if (plan->kind() != OpKind::kUnionAll) return plan;
  const auto& u = Cast<UnionAllOp>(*plan);
  if (u.num_children() != 2) return plan;

  auto b1 = NormalizeBranch(u.child(0), u.input_columns()[0]);
  auto b2 = NormalizeBranch(u.child(1), u.input_columns()[1]);
  if (!b1.has_value() || !b2.has_value()) return plan;
  if (b1->join->join_type() != b2->join->join_type()) return plan;
  JoinType join_type = b1->join->join_type();

  Fuser fuser(ctx);
  auto fused = fuser.Fuse(b1->join->right(), b2->join->right());
  if (!fused.has_value()) return plan;

  auto c1 = SplitJoinCondition(*b1->join);
  auto c2 = SplitJoinCondition(*b2->join);
  if (!c1.has_value() || !c2.has_value()) return plan;
  if (c1->equalities.size() != c2->equalities.size()) return plan;

  // Pair conjuncts across branches: rhs1 must equal M(rhs2).
  std::vector<std::pair<ColumnId, ColumnId>> lhs_pairs;  // (lhs1, lhs2)
  std::vector<ColumnId> rhs_cols;                        // fused Z column
  std::vector<bool> used(c2->equalities.size(), false);
  for (const auto& [lhs1, rhs1] : c1->equalities) {
    bool matched = false;
    for (size_t k = 0; k < c2->equalities.size(); ++k) {
      if (used[k]) continue;
      if (ApplyMap(fused->mapping, c2->equalities[k].second) == rhs1) {
        lhs_pairs.push_back({lhs1, c2->equalities[k].first});
        rhs_cols.push_back(rhs1);
        used[k] = true;
        matched = true;
        break;
      }
    }
    if (!matched) return plan;
  }
  // Z-side residuals must agree modulo the mapping.
  ExprPtr res1 = CombineConjuncts(c1->z_residuals);
  ExprPtr res2 = ApplyMap(fused->mapping, CombineConjuncts(c2->z_residuals));
  if (!ExprEquivalent(Simplify(res1), Simplify(res2))) return plan;

  bool need_tag =
      !IsTrueLiteral(fused->left_filter) || !IsTrueLiteral(fused->right_filter);

  // New union children: the branch output expressions (now computed over the
  // A sides), plus the join key columns, plus a tag when compensations are
  // non-trivial (the paper's UA1/UA2 extension of the positional mapping).
  auto make_child = [&](const Branch& b,
                        const std::vector<ColumnId>& lhs_cols,
                        int tag) -> PlanPtr {
    std::vector<NamedExpr> exprs;
    for (size_t o = 0; o < b.outputs.size(); ++o) {
      exprs.push_back({ctx->NextId(), u.schema().column(o).name, b.outputs[o]});
    }
    const Schema& a_schema = b.join->left()->schema();
    for (size_t p = 0; p < lhs_cols.size(); ++p) {
      int idx = a_schema.IndexOf(lhs_cols[p]);
      exprs.push_back({ctx->NextId(), "$ukey" + std::to_string(p),
                       Expr::MakeColumnRef(lhs_cols[p],
                                           a_schema.column(idx).type)});
    }
    if (need_tag) {
      exprs.push_back({ctx->NextId(), "$tag", eb::Int(tag)});
    }
    return std::make_shared<ProjectOp>(b.join->left(), std::move(exprs));
  };
  std::vector<ColumnId> lhs1_cols;
  std::vector<ColumnId> lhs2_cols;
  for (const auto& [l1, l2] : lhs_pairs) {
    lhs1_cols.push_back(l1);
    lhs2_cols.push_back(l2);
  }
  PlanPtr child1 = make_child(*b1, lhs1_cols, 1);
  PlanPtr child2 = make_child(*b2, lhs2_cols, 2);

  // Output schema: original union ids for the value positions (so parents
  // are untouched), fresh ids for keys/tag.
  std::vector<ColumnInfo> out_cols = u.schema().columns();
  std::vector<ColumnId> keys_out;
  for (size_t p = 0; p < lhs_pairs.size(); ++p) {
    const ColumnInfo& c =
        Cast<ProjectOp>(*child1).schema().column(u.schema().num_columns() + p);
    ColumnId id = ctx->NextId();
    out_cols.push_back({id, c.name, c.type});
    keys_out.push_back(id);
  }
  ColumnId tag_out = kInvalidColumnId;
  if (need_tag) {
    tag_out = ctx->NextId();
    out_cols.push_back({tag_out, "$tag", DataType::kInt64});
  }
  auto ids_of = [](const PlanPtr& p) {
    std::vector<ColumnId> ids;
    for (const ColumnInfo& c : p->schema().columns()) ids.push_back(c.id);
    return ids;
  };
  PlanPtr new_union = std::make_shared<UnionAllOp>(
      std::vector<PlanPtr>{child1, child2}, Schema(out_cols),
      std::vector<std::vector<ColumnId>>{ids_of(child1), ids_of(child2)});

  // Join condition over (union, fused Z).
  std::vector<ExprPtr> cond;
  for (size_t p = 0; p < keys_out.size(); ++p) {
    int zidx = fused->plan->schema().IndexOf(rhs_cols[p]);
    if (zidx < 0) return plan;
    int uidx = new_union->schema().IndexOf(keys_out[p]);
    cond.push_back(
        eb::Eq(eb::Col(keys_out[p], new_union->schema().column(uidx).type),
               eb::Col(rhs_cols[p], fused->plan->schema().column(zidx).type)));
  }
  if (!IsTrueLiteral(res1)) cond.push_back(res1);
  if (need_tag) {
    ExprPtr tag_ref = eb::Col(tag_out, DataType::kInt64);
    cond.push_back(eb::Or(
        eb::And(eb::Eq(tag_ref, eb::Int(1)), fused->left_filter),
        eb::And(eb::Eq(tag_ref, eb::Int(2)), fused->right_filter)));
  }
  PlanPtr new_join = std::make_shared<JoinOp>(join_type, new_union, fused->plan,
                                              CombineConjuncts(cond));
  // Narrow back to the original union schema.
  return RestoreSchema(new_join, u.schema(), ColumnMap());
}

namespace {

/// The IV.D rewrite of `plan`, or `plan` itself when it does not apply.
PlanPtr FuseUnionAll(const PlanPtr& plan, PlanContext* ctx) {
  const auto& u = Cast<UnionAllOp>(*plan);
  size_t n = u.num_children();
  if (n < 2) return plan;

  // Fold the branches into one fused plan, tracking per-branch compensating
  // conditions (all over the running fused plan, whose P1-side columns are
  // preserved by construction).
  Fuser fuser(ctx);
  PlanPtr fused = u.child(0);
  std::vector<ExprPtr> branch_cond{TrueExpr()};
  std::vector<ColumnMap> branch_map{ColumnMap()};
  for (size_t i = 1; i < n; ++i) {
    auto r = fuser.Fuse(fused, u.child(i));
    if (!r.has_value()) return plan;
    for (ExprPtr& c : branch_cond) {
      c = MakeConjunction(c, r->left_filter);
    }
    branch_cond.push_back(r->right_filter);
    branch_map.push_back(r->mapping);
    fused = r->plan;
  }

  // Source column (in fused coordinates) feeding output o from branch c.
  auto src = [&](size_t c, size_t o) {
    return ApplyMap(branch_map[c], u.input_columns()[c][o]);
  };
  auto src_ref = [&](size_t c, size_t o) -> ExprPtr {
    ColumnId id = src(c, o);
    int idx = fused->schema().IndexOf(id);
    FUSIONDB_CHECK(idx >= 0, "fused union source column missing");
    return Expr::MakeColumnRef(id, fused->schema().column(idx).type);
  };

  // Contradiction shortcut (binary case): when L AND R is unsatisfiable the
  // branch conditions themselves can play the tag's role.
  if (n == 2 && IsContradiction(MakeConjunction(branch_cond[0],
                                                branch_cond[1]))) {
    PlanPtr filtered = std::make_shared<FilterOp>(
        fused, Simplify(eb::Or(branch_cond[0], branch_cond[1])));
    std::vector<NamedExpr> outs;
    for (size_t o = 0; o < u.schema().num_columns(); ++o) {
      const ColumnInfo& info = u.schema().column(o);
      ExprPtr e = src(0, o) == src(1, o)
                      ? src_ref(0, o)
                      : eb::CaseWhen(branch_cond[0], src_ref(0, o),
                                     src_ref(1, o));
      outs.push_back({info.id, info.name, std::move(e)});
    }
    return std::static_pointer_cast<const LogicalOp>(
        std::make_shared<ProjectOp>(filtered, std::move(outs)));
  }

  // General form: cross-join with a constant tag table; one replica of the
  // fused rows per branch, restored by (tag = i AND cond_i).
  ColumnId tag = ctx->NextId();
  std::vector<std::vector<Value>> tag_rows;
  for (size_t i = 0; i < n; ++i) {
    tag_rows.push_back({Value::Int64(static_cast<int64_t>(i + 1))});
  }
  PlanPtr tags = std::make_shared<ValuesOp>(
      Schema({{tag, "$tag", DataType::kInt64}}), std::move(tag_rows));
  PlanPtr crossed =
      std::make_shared<JoinOp>(JoinType::kCross, fused, tags, TrueExpr());
  ExprPtr tag_ref = eb::Col(tag, DataType::kInt64);
  std::vector<ExprPtr> arms;
  bool all_true = true;
  for (size_t i = 0; i < n; ++i) {
    all_true &= IsTrueLiteral(branch_cond[i]);
    arms.push_back(eb::And(
        eb::Eq(tag_ref, eb::Int(static_cast<int64_t>(i + 1))),
        branch_cond[i]));
  }
  PlanPtr filtered = all_true
                         ? crossed
                         : std::static_pointer_cast<const LogicalOp>(
                               std::make_shared<FilterOp>(
                                   crossed, Simplify(Expr::MakeOr(arms))));

  std::vector<NamedExpr> outs;
  for (size_t o = 0; o < u.schema().num_columns(); ++o) {
    const ColumnInfo& info = u.schema().column(o);
    bool all_same = true;
    for (size_t c = 1; c < n; ++c) all_same &= (src(c, o) == src(0, o));
    ExprPtr e;
    if (all_same) {
      e = src_ref(0, o);
    } else {
      std::vector<std::pair<ExprPtr, ExprPtr>> case_arms;
      for (size_t c = 0; c + 1 < n; ++c) {
        case_arms.push_back(
            {eb::Eq(tag_ref, eb::Int(static_cast<int64_t>(c + 1))),
             src_ref(c, o)});
      }
      e = eb::Case(std::move(case_arms), src_ref(n - 1, o));
    }
    outs.push_back({info.id, info.name, std::move(e)});
  }
  return std::static_pointer_cast<const LogicalOp>(
      std::make_shared<ProjectOp>(filtered, std::move(outs)));
}

}  // namespace

Result<PlanPtr> UnionAllFuseRule::Apply(const PlanPtr& plan,
                                        PlanContext* ctx) const {
  if (plan->kind() != OpKind::kUnionAll) return plan;
  PlanPtr fused = FuseUnionAll(plan, ctx);
  // A branch's pruning Filter becomes a compensating condition above the
  // fused scan, which then reads its columns over every partition: keep
  // the union when the rewrite reads more static bytes than it does.
  if (fused != plan && ScanBytes(fused) > ScanBytes(plan)) return plan;
  return fused;
}

}  // namespace fusiondb
