#include "fusion/fuse.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>

#include "expr/expr_builder.h"
#include "expr/simplifier.h"
#include "obs/optimizer_trace.h"
#include "plan/spool.h"

namespace fusiondb {

namespace {

ExprPtr TrueExpr() { return Expr::MakeLiteral(Value::Bool(true)); }

/// Canonical form of an aggregate mask for reuse matching: null means TRUE.
ExprPtr CanonicalMask(const ExprPtr& mask) {
  return mask == nullptr ? TrueExpr() : Simplify(mask);
}

bool SameColumnSet(const std::vector<ColumnId>& a,
                   const std::vector<ColumnId>& b) {
  if (a.size() != b.size()) return false;
  std::vector<ColumnId> sa = a;
  std::vector<ColumnId> sb = b;
  std::sort(sa.begin(), sa.end());
  std::sort(sb.begin(), sb.end());
  return sa == sb;
}

/// Which Section III case handled a *successful* fusion of this root pair.
/// Derived from the kinds after the fact (rather than recorded inside the
/// case handlers) so nested recursive fusions cannot clobber the label.
const char* FusionCaseLabel(OpKind k1, OpKind k2) {
  if (k1 != k2) return "III.G (root-mismatch compensation)";
  switch (k1) {
    case OpKind::kScan:
    case OpKind::kValues:
      return "III.A (base relations)";
    case OpKind::kFilter:
      return "III.B (filter)";
    case OpKind::kProject:
      return "III.C (project)";
    case OpKind::kJoin:
      return "III.D (join)";
    case OpKind::kAggregate:
      return "III.E (aggregate)";
    case OpKind::kEnforceSingleRow:
    case OpKind::kLimit:
    case OpKind::kSort:
      return "III.G (default pass-through)";
    case OpKind::kSpool:
      return "spool identity";
    case OpKind::kWindow:
    case OpKind::kUnionAll:
    case OpKind::kApply:
      return "fused";  // unreachable: these kinds never fuse successfully
  }
  return "fused";
}

}  // namespace

bool FuseResult::Exact() const {
  return IsTrueLiteral(left_filter) && IsTrueLiteral(right_filter);
}

std::optional<FuseResult> Fuser::Reject(std::string reason) {
  last_reason_ = std::move(reason);
  return std::nullopt;
}

std::optional<FuseResult> Fuser::Fuse(const PlanPtr& p1, const PlanPtr& p2) {
  if (p1 == nullptr || p2 == nullptr) return std::nullopt;
  OptimizerTrace* trace = ctx_->trace();
  if (trace == nullptr) return FuseImpl(p1, p2);
  int step = trace->FusionEnter(*p1, *p2);
  last_reason_.clear();
  std::optional<FuseResult> result = FuseImpl(p1, p2);
  std::string outcome =
      result.has_value()
          ? std::string(FusionCaseLabel(p1->kind(), p2->kind()))
          : (last_reason_.empty() ? std::string("child fusion returned \xE2\x8A\xA5")
                                  : std::move(last_reason_));
  trace->FusionResolve(step, result.has_value(), std::move(outcome));
  // What the *caller's* frame sees if it fails without its own Reject: its
  // child fusion (this frame) was the cause.
  last_reason_ =
      result.has_value() ? std::string() : "child fusion returned \xE2\x8A\xA5";
  return result;
}

std::optional<FuseResult> Fuser::FuseImpl(const PlanPtr& p1,
                                          const PlanPtr& p2) {
  if (p1->kind() != p2->kind()) return FuseMismatched(p1, p2);
  switch (p1->kind()) {
    case OpKind::kScan:
      return FuseScan(Cast<ScanOp>(*p1), Cast<ScanOp>(*p2));
    case OpKind::kValues:
      return FuseValues(p1, p2);
    case OpKind::kFilter:
      return FuseFilter(Cast<FilterOp>(*p1), Cast<FilterOp>(*p2));
    case OpKind::kProject:
      return FuseProject(Cast<ProjectOp>(*p1), Cast<ProjectOp>(*p2));
    case OpKind::kJoin:
      return FuseJoin(Cast<JoinOp>(*p1), Cast<JoinOp>(*p2));
    case OpKind::kAggregate:
      return FuseAggregate(Cast<AggregateOp>(*p1), Cast<AggregateOp>(*p2));
    case OpKind::kEnforceSingleRow:
    case OpKind::kLimit:
    case OpKind::kSort:
      return FuseDefault(p1, p2);
    case OpKind::kSpool: {
      // Two consumers of the same spool are the same relation by
      // construction (shared child): identity fusion.
      const auto& s1 = Cast<SpoolOp>(*p1);
      const auto& s2 = Cast<SpoolOp>(*p2);
      if (s1.spool_id() != s2.spool_id()) {
        return Reject("consumers of different spools");
      }
      return FuseResult{p1, ColumnMap(), Expr::MakeLiteral(Value::Bool(true)),
                        Expr::MakeLiteral(Value::Bool(true))};
    }
    case OpKind::kWindow:
    case OpKind::kUnionAll:
    case OpKind::kApply: {
      std::string reason = "no fusion rule for ";
      reason += OpKindName(p1->kind());
      reason += " roots";
      return Reject(std::move(reason));
    }
  }
  return std::nullopt;
}

// --- Section III.A: table scans -------------------------------------------

std::optional<FuseResult> Fuser::FuseScan(const ScanOp& s1, const ScanOp& s2) {
  if (s1.table() != s2.table()) return Reject("scans read different tables");
  // Start from S1's columns; add S2 columns not already selected (keeping
  // S2's ids for the new ones), and map every S2 column.
  std::vector<int> table_columns = s1.table_columns();
  std::vector<ColumnInfo> cols = s1.schema().columns();
  ColumnMap mapping;
  for (size_t j = 0; j < s2.table_columns().size(); ++j) {
    int tc = s2.table_columns()[j];
    ColumnId id2 = s2.schema().column(j).id;
    int found = -1;
    for (size_t i = 0; i < table_columns.size(); ++i) {
      if (table_columns[i] == tc) {
        found = static_cast<int>(i);
        break;
      }
    }
    if (found >= 0) {
      mapping[id2] = cols[found].id;
    } else {
      table_columns.push_back(tc);
      cols.push_back(s2.schema().column(j));
      mapping[id2] = id2;
    }
  }
  PlanPtr fused = std::make_shared<ScanOp>(s1.table(), std::move(table_columns),
                                           Schema(std::move(cols)));
  return FuseResult{std::move(fused), std::move(mapping), TrueExpr(),
                    TrueExpr()};
}

std::optional<FuseResult> Fuser::FuseValues(const PlanPtr& p1,
                                            const PlanPtr& p2) {
  const auto& v1 = Cast<ValuesOp>(*p1);
  const auto& v2 = Cast<ValuesOp>(*p2);
  if (v1.schema().num_columns() != v2.schema().num_columns()) {
    return Reject("values nodes have different widths");
  }
  if (v1.rows().size() != v2.rows().size()) {
    return Reject("values nodes have different row counts");
  }
  for (size_t c = 0; c < v1.schema().num_columns(); ++c) {
    if (v1.schema().column(c).type != v2.schema().column(c).type) {
      return Reject("values nodes have different column types");
    }
  }
  for (size_t r = 0; r < v1.rows().size(); ++r) {
    for (size_t c = 0; c < v1.rows()[r].size(); ++c) {
      if (!(v1.rows()[r][c] == v2.rows()[r][c])) {
        return Reject("values nodes have different literals");
      }
    }
  }
  ColumnMap mapping;
  for (size_t c = 0; c < v1.schema().num_columns(); ++c) {
    mapping[v2.schema().column(c).id] = v1.schema().column(c).id;
  }
  return FuseResult{p1, std::move(mapping), TrueExpr(), TrueExpr()};
}

// --- Section III.B: filters -----------------------------------------------

std::optional<FuseResult> Fuser::FuseFilter(const FilterOp& f1,
                                            const FilterOp& f2) {
  auto sub = Fuse(f1.child(0), f2.child(0));
  if (!sub.has_value()) return std::nullopt;
  ExprPtr c1 = Simplify(f1.predicate());
  ExprPtr c2m = Simplify(ApplyMap(sub->mapping, f2.predicate()));
  if (ExprEquivalent(c1, c2m)) {
    // Equivalent filters: the fused filter is either one, compensations
    // carry over unchanged.
    PlanPtr fused = std::make_shared<FilterOp>(sub->plan, c1);
    return FuseResult{std::move(fused), std::move(sub->mapping),
                      std::move(sub->left_filter),
                      std::move(sub->right_filter)};
  }
  ExprPtr disjunction = Simplify(eb::Or(c1, c2m));
  PlanPtr fused = std::make_shared<FilterOp>(sub->plan, disjunction);
  return FuseResult{std::move(fused), std::move(sub->mapping),
                    MakeConjunction(sub->left_filter, c1),
                    MakeConjunction(sub->right_filter, c2m)};
}

// --- Section III.C: projections -------------------------------------------

std::optional<FuseResult> Fuser::FuseProject(const ProjectOp& r1,
                                             const ProjectOp& r2) {
  auto sub = Fuse(r1.child(0), r2.child(0));
  if (!sub.has_value()) return std::nullopt;
  std::vector<NamedExpr> assignments = r1.exprs();
  std::unordered_map<ExprPtr, ColumnId, ExprHash, ExprEq> by_expr;
  std::unordered_map<ColumnId, bool> produced;  // output ids present
  for (const NamedExpr& a : assignments) {
    by_expr.emplace(Simplify(a.expr), a.id);
    produced[a.id] = true;
  }
  ColumnMap mapping = sub->mapping;
  for (const NamedExpr& a2 : r2.exprs()) {
    ExprPtr mapped = Simplify(ApplyMap(sub->mapping, a2.expr));
    auto it = by_expr.find(mapped);
    if (it != by_expr.end()) {
      mapping[a2.id] = it->second;
    } else {
      assignments.push_back({a2.id, a2.name, mapped});
      by_expr.emplace(mapped, a2.id);
      produced[a2.id] = true;
      mapping[a2.id] = a2.id;
    }
  }
  // The compensating filters L/R reference columns of the fused *child*.
  // Pass through any such column that the projection would otherwise drop,
  // so the reconstruction Filter_L(Project(...)) stays well-formed.
  auto ensure_passthrough = [&](const ExprPtr& cond) {
    if (cond == nullptr || IsTrueLiteral(cond)) return;
    std::vector<ColumnId> used;
    CollectColumns(cond, &used);
    for (ColumnId id : used) {
      if (produced.count(id) > 0) continue;
      int idx = sub->plan->schema().IndexOf(id);
      if (idx < 0) continue;  // not a child column (should not happen)
      const ColumnInfo& info = sub->plan->schema().column(idx);
      assignments.push_back(
          {info.id, info.name, Expr::MakeColumnRef(info.id, info.type)});
      produced[info.id] = true;
    }
  };
  ensure_passthrough(sub->left_filter);
  ensure_passthrough(sub->right_filter);
  PlanPtr fused =
      std::make_shared<ProjectOp>(sub->plan, std::move(assignments));
  return FuseResult{std::move(fused), std::move(mapping),
                    std::move(sub->left_filter), std::move(sub->right_filter)};
}

// --- Section III.D: joins --------------------------------------------------

std::optional<FuseResult> Fuser::FuseJoin(const JoinOp& j1, const JoinOp& j2) {
  if (j1.join_type() != j2.join_type()) return Reject("join types differ");
  auto left = Fuse(j1.left(), j2.left());
  if (!left.has_value()) return std::nullopt;
  auto right = Fuse(j1.right(), j2.right());
  if (!right.has_value()) return std::nullopt;

  ColumnMap mapping = left->mapping;
  if (!MergeMaps(&mapping, right->mapping)) {
    return Reject("conflicting column mappings between join sides");
  }

  ExprPtr c1 = Simplify(j1.condition());
  ExprPtr c2m = Simplify(ApplyMap(mapping, j2.condition()));
  if (!ExprEquivalent(c1, c2m)) {
    return Reject("join conditions differ modulo mapping");
  }

  // Semi and left joins do not output (or NULL-extend) right-side rows, so
  // a non-exact right fusion would change the match sets / extension rows.
  // Require exact right fusion for them; inner joins take the general form.
  bool right_exact = IsTrueLiteral(right->left_filter) &&
                     IsTrueLiteral(right->right_filter);
  if ((j1.join_type() == JoinType::kSemi ||
       j1.join_type() == JoinType::kLeft) &&
      !right_exact) {
    return Reject("non-exact right fusion under semi/left join");
  }
  // Similarly, left joins with a non-exact *left* fusion would NULL-extend
  // rows that one input never contained; keep it sound.
  bool left_exact =
      IsTrueLiteral(left->left_filter) && IsTrueLiteral(left->right_filter);
  if (j1.join_type() == JoinType::kLeft && !left_exact) {
    return Reject("non-exact left fusion under left join");
  }

  PlanPtr fused =
      std::make_shared<JoinOp>(j1.join_type(), left->plan, right->plan, c1);
  ExprPtr l = MakeConjunction(left->left_filter, right->left_filter);
  ExprPtr r = MakeConjunction(left->right_filter, right->right_filter);
  return FuseResult{std::move(fused), std::move(mapping), std::move(l),
                    std::move(r)};
}

// --- Section III.E: aggregations -------------------------------------------

std::optional<FuseResult> Fuser::FuseAggregate(const AggregateOp& g1,
                                               const AggregateOp& g2) {
  auto sub = Fuse(g1.child(0), g2.child(0));
  if (!sub.has_value()) return std::nullopt;
  // Grouping columns must be equivalent modulo the mapping.
  std::vector<ColumnId> k2_mapped;
  k2_mapped.reserve(g2.group_by().size());
  for (ColumnId k : g2.group_by()) {
    k2_mapped.push_back(ApplyMap(sub->mapping, k));
  }
  if (!SameColumnSet(g1.group_by(), k2_mapped)) {
    return Reject("differing group keys");
  }

  const ExprPtr& l = sub->left_filter;
  const ExprPtr& r = sub->right_filter;
  bool l_true = IsTrueLiteral(l);
  bool r_true = IsTrueLiteral(r);

  // Tighten every aggregate's mask with the matching compensating filter.
  std::vector<AggregateItem> fused_aggs;
  fused_aggs.reserve(g1.aggregates().size() + g2.aggregates().size() + 2);
  struct Entry {
    AggFunc func;
    bool distinct;
    ExprPtr arg;   // null for COUNT(*)
    ExprPtr mask;  // CanonicalMask of the item's mask
    ColumnId id;
  };
  std::vector<Entry> entries;
  auto add_item = [&](AggregateItem item) {
    entries.push_back({item.func, item.distinct, item.arg,
                       CanonicalMask(item.mask), item.id});
    fused_aggs.push_back(std::move(item));
  };
  for (const AggregateItem& a1 : g1.aggregates()) {
    AggregateItem item = a1;
    if (!l_true) {
      item.mask = item.mask == nullptr ? l : MakeConjunction(item.mask, l);
    }
    add_item(std::move(item));
  }
  ColumnMap mapping = sub->mapping;
  for (const AggregateItem& a2 : g2.aggregates()) {
    AggregateItem item = a2;
    item.arg = a2.arg == nullptr ? nullptr : ApplyMap(sub->mapping, a2.arg);
    ExprPtr mask =
        a2.mask == nullptr ? nullptr : ApplyMap(sub->mapping, a2.mask);
    if (!r_true) {
      mask = mask == nullptr ? r : MakeConjunction(mask, r);
    }
    item.mask = mask;
    // Reuse an existing identical aggregate when available.
    ExprPtr canonical_mask = CanonicalMask(item.mask);
    const Entry* found = nullptr;
    for (const Entry& e : entries) {
      if (e.func == item.func && e.distinct == item.distinct &&
          ExprEquivalent(e.arg, item.arg) &&
          ExprEquivalent(e.mask, canonical_mask)) {
        found = &e;
        break;
      }
    }
    if (found != nullptr) {
      mapping[a2.id] = found->id;
    } else {
      mapping[a2.id] = item.id;
      add_item(std::move(item));
    }
  }

  // Compensating aggregates (non-scalar only): a group must disappear from a
  // side's reconstruction when that side contributed no rows to it.
  ExprPtr comp_l = TrueExpr();
  ExprPtr comp_r = TrueExpr();
  bool scalar = g1.IsScalar();
  auto add_comp = [&](const ExprPtr& guard, const char* name) -> ExprPtr {
    // Reuse an existing COUNT(*) with the same mask if present.
    ExprPtr mask = CanonicalMask(guard);
    for (const Entry& e : entries) {
      if (e.func == AggFunc::kCountStar && !e.distinct && e.arg == nullptr &&
          ExprEquivalent(e.mask, mask)) {
        return eb::Gt(eb::Col(e.id, DataType::kInt64), eb::Int(0));
      }
    }
    AggregateItem count{ctx_->NextId(), name, AggFunc::kCountStar, nullptr,
                        guard, false};
    add_item(count);
    return eb::Gt(eb::Col(count.id, DataType::kInt64), eb::Int(0));
  };
  if (!scalar && !l_true) comp_l = add_comp(l, "$fuse_count_l");
  if (!scalar && !r_true) comp_r = add_comp(r, "$fuse_count_r");

  PlanPtr fused = std::make_shared<AggregateOp>(sub->plan, g1.group_by(),
                                                std::move(fused_aggs));
  return FuseResult{std::move(fused), std::move(mapping), std::move(comp_l),
                    std::move(comp_r)};
}

// --- Section III.G: defaults and mismatched roots ---------------------------

std::optional<FuseResult> Fuser::FuseDefault(const PlanPtr& p1,
                                             const PlanPtr& p2) {
  auto sub = Fuse(p1->child(0), p2->child(0));
  if (!sub.has_value()) return std::nullopt;
  if (!sub->Exact()) {
    return Reject("non-exact child fusion under pass-through root");
  }
  // Check operator parameters are equivalent modulo the mapping.
  switch (p1->kind()) {
    case OpKind::kEnforceSingleRow:
      break;
    case OpKind::kLimit:
      if (Cast<LimitOp>(*p1).limit() != Cast<LimitOp>(*p2).limit()) {
        return Reject("limit values differ");
      }
      break;
    case OpKind::kSort: {
      const auto& s1 = Cast<SortOp>(*p1);
      const auto& s2 = Cast<SortOp>(*p2);
      if (s1.keys().size() != s2.keys().size()) {
        return Reject("sort keys differ");
      }
      for (size_t i = 0; i < s1.keys().size(); ++i) {
        if (s1.keys()[i].column !=
                ApplyMap(sub->mapping, s2.keys()[i].column) ||
            s1.keys()[i].ascending != s2.keys()[i].ascending) {
          return Reject("sort keys differ");
        }
      }
      break;
    }
    case OpKind::kScan:
    case OpKind::kFilter:
    case OpKind::kProject:
    case OpKind::kJoin:
    case OpKind::kAggregate:
    case OpKind::kWindow:
    case OpKind::kUnionAll:
    case OpKind::kValues:
    case OpKind::kApply:
    case OpKind::kSpool:
      return std::nullopt;  // these kinds have dedicated Fuse* handlers
  }
  PlanPtr fused = p1->CloneWithChildren({sub->plan});
  return FuseResult{std::move(fused), std::move(sub->mapping), TrueExpr(),
                    TrueExpr()};
}

std::optional<FuseResult> Fuser::FuseMismatched(const PlanPtr& p1,
                                                const PlanPtr& p2) {
  // 1. One side has a Filter root: manufacture a trivial TRUE filter.
  if (p1->kind() == OpKind::kFilter && p2->kind() != OpKind::kFilter) {
    PlanPtr wrapped = std::make_shared<FilterOp>(p2, TrueExpr());
    return FuseFilter(Cast<FilterOp>(*p1), Cast<FilterOp>(*wrapped));
  }
  if (p2->kind() == OpKind::kFilter && p1->kind() != OpKind::kFilter) {
    PlanPtr wrapped = std::make_shared<FilterOp>(p1, TrueExpr());
    return FuseFilter(Cast<FilterOp>(*wrapped), Cast<FilterOp>(*p2));
  }
  // 2. One side has a Project root: manufacture an identity projection.
  if (p1->kind() == OpKind::kProject && p2->kind() != OpKind::kProject) {
    PlanPtr wrapped = ProjectOp::MakeIdentity(p2);
    return FuseProject(Cast<ProjectOp>(*p1), Cast<ProjectOp>(*wrapped));
  }
  if (p2->kind() == OpKind::kProject && p1->kind() != OpKind::kProject) {
    PlanPtr wrapped = ProjectOp::MakeIdentity(p1);
    return FuseProject(Cast<ProjectOp>(*wrapped), Cast<ProjectOp>(*p2));
  }
  std::string reason = "non-fusable root pair (";
  reason += OpKindName(p1->kind());
  reason += " vs ";
  reason += OpKindName(p2->kind());
  reason += ")";
  return Reject(std::move(reason));
}

}  // namespace fusiondb
