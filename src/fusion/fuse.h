// Query fusion primitives — Section III of the paper.
//
// Fuse(P1, P2) either fails (the paper's ⊥, here std::nullopt) or returns a
// 4-tuple (P, M, L, R):
//   - P: the fused plan. Its schema contains all output columns of P1 and,
//     possibly, additional columns from P2 (plus compensating columns).
//   - M: mapping from P2's output columns to columns of P.
//   - L, R: compensating filter conditions over P's output such that
//       P1 == Project_{outCols(P1)}( Filter_L(P) )
//       P2 == Project_{M(outCols(P2))}( Filter_R(P) )
//
// Fusion requires no new operators (unlike Resin's ResinMap/ResinReduce):
// every fused result is ordinary relational algebra, so downstream rules
// keep composing with it.
//
// Section III.F has no case here. Athena fuses its distinct-marking
// operator because it lowers DISTINCT aggregates onto it; here a DISTINCT
// aggregate is a native masked aggregate item and fuses under III.E
// (DESIGN.md §5).
#ifndef FUSIONDB_FUSION_FUSE_H_
#define FUSIONDB_FUSION_FUSE_H_

#include <optional>
#include <string>

#include "expr/column_map.h"
#include "plan/logical_plan.h"

namespace fusiondb {

struct FuseResult {
  PlanPtr plan;
  ColumnMap mapping;
  ExprPtr left_filter;   // L
  ExprPtr right_filter;  // R

  /// True when both compensating filters are TRUE — the fused plan computes
  /// exactly both inputs (the precondition of GroupByJoinToWindow's simple
  /// form).
  bool Exact() const;
};

/// Implements the recursive Fuse procedure. Holds the PlanContext used to
/// mint compensating columns (tag and count columns).
class Fuser {
 public:
  explicit Fuser(PlanContext* ctx) : ctx_(ctx) {}

  /// Fuse(P1, P2); std::nullopt is the paper's ⊥. When the PlanContext
  /// carries an OptimizerTrace, every recursive invocation is recorded as a
  /// FusionStep with either the Section III case that applied or a
  /// structured ⊥ reason.
  std::optional<FuseResult> Fuse(const PlanPtr& p1, const PlanPtr& p2);

 private:
  /// The recursive dispatch (the untraced body of Fuse); the public Fuse
  /// wraps it with per-step trace bookkeeping.
  std::optional<FuseResult> FuseImpl(const PlanPtr& p1, const PlanPtr& p2);

  /// Record why the current fusion attempt failed — the structured ⊥
  /// reason surfaced by the optimizer trace — and return ⊥.
  std::optional<FuseResult> Reject(std::string reason);

  /// Section III.A (table scans — the base case). Two scans of the same
  /// table fuse into one scan reading the union of their column sets; both
  /// compensating filters are TRUE.
  ///   before: Scan_T{a,b}   ,  Scan_T{b,c}
  ///   after:  P = Scan_T{a,b,c};  M = {b2→b, c2→c};  L = R = TRUE
  std::optional<FuseResult> FuseScan(const ScanOp& s1, const ScanOp& s2);

  /// Section III.A (constant relations, same base-case role as scans).
  /// Structurally identical Values nodes fuse into one; L = R = TRUE.
  ///   before: Values[rows]  ,  Values[rows]
  ///   after:  P = Values[rows];  M maps positionally;  L = R = TRUE
  std::optional<FuseResult> FuseValues(const PlanPtr& p1, const PlanPtr& p2);

  /// Section III.B (filters). Fuse the children, then filter on the
  /// disjunction of the two (remapped) predicates; each side's own
  /// predicate joins its child compensation conjunctively. Equivalent
  /// predicates short-circuit to a single filter with unchanged L/R.
  ///   before: σ_p1(C1)  ,  σ_p2(C2)
  ///   after:  P = σ_{p1 ∨ p2'}(Fuse(C1,C2));  L = L_c ∧ p1;  R = R_c ∧ p2'
  std::optional<FuseResult> FuseFilter(const FilterOp& f1, const FilterOp& f2);

  /// Section III.C (projections). Fuse the children and concatenate the
  /// assignment lists (remapping P2's through M); compensating filters pass
  /// through from the child fusion.
  ///   before: π_{e1..}(C1)  ,  π_{f1..}(C2)
  ///   after:  P = π_{e1.., f1'..}(Fuse(C1,C2));  L, R from the children
  std::optional<FuseResult> FuseProject(const ProjectOp& r1,
                                        const ProjectOp& r2);

  /// Section III.D (joins). Requires exact child fusions on both sides and
  /// equivalent join conditions modulo M; the fused join is re-derived over
  /// the fused inputs.
  ///   before: (A1 ⋈_c B1)  ,  (A2 ⋈_c' B2)   with c ≡ M(c')
  ///   after:  P = Fuse(A1,A2) ⋈_c Fuse(B1,B2);  L = R = TRUE
  std::optional<FuseResult> FuseJoin(const JoinOp& j1, const JoinOp& j2);

  /// Section III.E (aggregations — the paper's core case, built on
  /// Athena's per-aggregate masks). Same grouping keys modulo M; the fused
  /// GroupBy carries both aggregate lists with each aggregate's mask
  /// AND-ed with its side's compensating filter, plus compensating
  /// COUNT(*) aggregates (cnt_L, cnt_R) so each side can be restored by
  /// filtering groups where its count is positive.
  ///   before: γ_{k}[aggs1](C1)  ,  γ_{k'}[aggs2](C2)
  ///   after:  P = γ_{k}[aggs1@L, aggs2'@R, cnt_L, cnt_R](Fuse(C1,C2));
  ///           L = (cnt_L > 0);  R = (cnt_R > 0)
  std::optional<FuseResult> FuseAggregate(const AggregateOp& g1,
                                          const AggregateOp& g2);

  /// Section III.G (default case). Parameter-compatible unary operators
  /// over an *exact* child fusion (EnforceSingleRow, Limit, Sort) pass
  /// through: the fused operator is re-instantiated over the fused child.
  ///   before: op(C1)  ,  op(C2)   with Fuse(C1,C2) exact
  ///   after:  P = op(Fuse(C1,C2));  L = R = TRUE
  std::optional<FuseResult> FuseDefault(const PlanPtr& p1, const PlanPtr& p2);

  /// Section III.G (root-mismatch compensation). When the roots differ,
  /// manufacture a trivial σ_TRUE / identity-π root so a structural case
  /// applies.
  ///   before: σ(C1)  ,  C2         (or π vs bare child)
  ///   after:  Fuse(σ(C1), σ_TRUE(C2))
  std::optional<FuseResult> FuseMismatched(const PlanPtr& p1,
                                           const PlanPtr& p2);

  PlanContext* ctx_;

  /// ⊥ reason set by Reject for the innermost failing case; consumed (and
  /// reset) by the public Fuse wrapper when tracing is active.
  std::string last_reason_;
};

}  // namespace fusiondb

#endif  // FUSIONDB_FUSION_FUSE_H_
