// The rule catalog.
//
// Substrate rules (pre-existing engine machinery the paper builds on):
//   SimplifyExpressionsRule, MergeFiltersRule, MergeProjectsRule,
//   FilterPushdownRule,
//   DecorrelateScalarAggRule        ([20]-style decorrelation; enables Q01)
//   SemiJoinToDistinctJoinRule      (semi-join -> join over distinct)
//   PushDistinctBelowJoinRule       (distinct pushed below a key-aligned join)
//
// Fusion rules (Section IV — the paper's contribution):
//   GroupByJoinToWindowRule  (IV.A)
//   JoinOnKeysRule           (IV.B, incl. scalar-aggregate cross-join form)
//   UnionAllOnJoinRule       (IV.C)
//   UnionAllFuseRule         (IV.D)
#ifndef FUSIONDB_OPTIMIZER_RULES_H_
#define FUSIONDB_OPTIMIZER_RULES_H_

#include "optimizer/rule.h"

namespace fusiondb {

/// Simplifies every expression held by the node (predicates, projections,
/// join conditions, aggregate masks). Substrate: the paper assumes a
/// normalizing engine below the Section IV rules.
///   before: σ_{x=1 AND TRUE AND x=1}(C)
///   after:  σ_{x=1}(C)
class SimplifyExpressionsRule final : public Rule {
 public:
  std::string_view name() const override { return "SimplifyExpressions"; }
  Result<PlanPtr> Apply(const PlanPtr& plan, PlanContext* ctx) const override;
};

/// Filter(Filter(x)) => Filter(x) with the conjunction; drops TRUE filters.
///   before: σ_p(σ_q(C))
///   after:  σ_{p∧q}(C)
class MergeFiltersRule final : public Rule {
 public:
  std::string_view name() const override { return "MergeFilters"; }
  Result<PlanPtr> Apply(const PlanPtr& plan, PlanContext* ctx) const override;
};

/// Project(Project(x)) => Project(x) by inlining the inner assignments.
///   before: π_{a:=f(b)}(π_{b:=g(c)}(C))
///   after:  π_{a:=f(g(c))}(C)
class MergeProjectsRule final : public Rule {
 public:
  std::string_view name() const override { return "MergeProjects"; }
  Result<PlanPtr> Apply(const PlanPtr& plan, PlanContext* ctx) const override;
};

/// Pushes filter conjuncts through projections and into inner-join sides.
///   before: σ_{p(A) ∧ q(B)}(A ⋈ B)
///   after:  σ_p(A) ⋈ σ_q(B)
class FilterPushdownRule final : public Rule {
 public:
  std::string_view name() const override { return "FilterPushdown"; }
  Result<PlanPtr> Apply(const PlanPtr& plan, PlanContext* ctx) const override;
};

/// Apply(outer, scalar-agg subquery, correlation) =>
/// Join(outer, GroupBy_{correlated cols}(subquery input)).
/// Sound here because the correlated scalar aggregate is only consumed by
/// NULL-rejecting comparisons (the Q01/Q30 pattern; see the rule's comment).
/// Substrate: the [20]-style decorrelation the paper runs before fusion.
///   before: Apply(O, γ[](σ_{k=O.k}(S)))
///   after:  O ⋈_{O.k=k} γ_{k}[aggs](S)
class DecorrelateScalarAggRule final : public Rule {
 public:
  std::string_view name() const override { return "DecorrelateScalarAgg"; }
  Result<PlanPtr> Apply(const PlanPtr& plan, PlanContext* ctx) const override;
};

/// SemiJoin(L, R, l=r) => Join(L, GroupBy_{r}(R), l=r) — the first step of
/// the paper's Q95 pipeline (Section V.D).
///   before: L ⋉_{l=r} R
///   after:  L ⋈_{l=r} γ_{r}[](R)
class SemiJoinToDistinctJoinRule final : public Rule {
 public:
  std::string_view name() const override { return "SemiJoinToDistinctJoin"; }
  Result<PlanPtr> Apply(const PlanPtr& plan, PlanContext* ctx) const override;
};

/// GroupBy_{b}(Join(A, B, a=b)) with no aggregates =>
/// Join(GroupBy_{a}(A), GroupBy_{b}(B), a=b) — the "push a distinct below a
/// join whenever the distinct and join columns agree" rule of Section V.D.
///   before: γ_{a,b}[](A ⋈_{a=b} B)
///   after:  γ_{a}[](A) ⋈_{a=b} γ_{b}[](B)
class PushDistinctBelowJoinRule final : public Rule {
 public:
  std::string_view name() const override { return "PushDistinctBelowJoin"; }
  Result<PlanPtr> Apply(const PlanPtr& plan, PlanContext* ctx) const override;
};

/// Section IV.A: P1 join GroupBy(P2) on the grouping keys, with exact
/// fusion of P1 and P2, becomes a windowed aggregation over the fused plan
/// — one scan instead of two, aggregates broadcast to member rows.
/// Handles n-ary joins (inputs separated by other tables) per IV.E.
///   before: P1 ⋈_{k=g} γ_{g}[aggs](P2)      with Fuse(P1,P2) exact
///   after:  σ_{agg IS NOT NULL}(Window_{partition k}[aggs](P))
class GroupByJoinToWindowRule final : public Rule {
 public:
  std::string_view name() const override { return "GroupByJoinToWindow"; }
  Result<PlanPtr> Apply(const PlanPtr& plan, PlanContext* ctx) const override;
};

/// Section IV.B: self-joins on keys of both sides collapse onto the fused
/// plan. Implemented for the cases Athena can guarantee keys for:
/// GroupBy-GroupBy pairs (grouping columns are keys) including the scalar
/// aggregate / cross-join specialization (Q09/Q28/Q88: fifteen scalar
/// aggregates over one scan). Handles n-ary joins per IV.E.
///   before: γ_{k}[a1](P1) ⋈_{k=k'} γ_{k'}[a2](P2)
///   after:  γ_{k}[a1@L, a2@R](P)             (join gone; masks compensate)
///   scalar: γ[a1](P1) × γ[a2](P2)  =>  γ[a1@L, a2@R](P)
class JoinOnKeysRule final : public Rule {
 public:
  std::string_view name() const override { return "JoinOnKeys"; }
  Result<PlanPtr> Apply(const PlanPtr& plan, PlanContext* ctx) const override;
};

/// Section IV.C: UnionAll of two (semi-)joins against fusable right sides
/// pushes the union below the join, tagging branches so the shared right
/// side is built (and scanned) once — the Q23 rewrite.
///   before: (A ⋉ Z1) ∪ (B ⋉ Z2)             with Fuse(Z1,Z2) defined
///   after:  (A+tag1 ∪ B+tag2) ⋉_{cond∧tag-filter} Z
class UnionAllOnJoinRule final : public Rule {
 public:
  std::string_view name() const override { return "UnionAllOnJoin"; }
  Result<PlanPtr> Apply(const PlanPtr& plan, PlanContext* ctx) const override;
};

/// Section IV.D: UnionAll over fusable branches becomes a cross join of the
/// fused plan with a constant tag table (or, when the compensating filters
/// are contradictory, a CASE projection with no tag table). The union stays
/// when the rewrite would read more static bytes (ScanBytes) than it does.
///   before: P1 ∪ P2                          with Fuse(P1,P2) defined
///   after:  π_{CASE tag...}(σ_{(tag=1∧L)∨(tag=2∧R)}(P × Values[(1),(2)]))
///   L∧R≡⊥:  π_{CASE L...}(P)                 (no tag table needed)
class UnionAllFuseRule final : public Rule {
 public:
  std::string_view name() const override { return "UnionAllFuse"; }
  Result<PlanPtr> Apply(const PlanPtr& plan, PlanContext* ctx) const override;
};

}  // namespace fusiondb

#endif  // FUSIONDB_OPTIMIZER_RULES_H_
