// Section IV.B — JoinOnKeys.
//
// Two join inputs joined on a candidate key of one of them match pairwise,
// so the join collapses onto the fused plan:
//   Filter_{L AND R AND keys NOT NULL}(Fuse(P1, P2).plan)
// (residual conjuncts M(C2) are re-placed by the n-ary rebuild). The
// scalar-aggregate specialization (empty key, cross join) needs no extra
// filter: for scalar aggregates the compensations are TRUE because the
// fusion itself tightened every aggregate's mask.
//
// The precondition comes from the derived plan properties (src/analysis):
// some candidate key K of input j must (a) be equated column-by-column with
// its fused image M(K) by the join conjuncts and (b) have M(K) cover a
// candidate key of the FUSED plan, so two joined rows match exactly when
// they are the same fused row. GroupBy outputs (the grouping columns are a
// key) are the paper's case; primary-key scans and single-row subplans fall
// out of the same property check. Guard conjuncts already implied by the
// fused subtree's derived column domains are dropped; when a semantic
// ledger is attached, the key claims and the dropped-guard implication are
// recorded for the verifier to re-prove.
//
// Per IV.E the rule linearizes the join tree and applies pairwise a
// quadratic number of times, growing the fused result incrementally — this
// is what collapses Q09's 15 scans of store_sales in one optimizer visit.
#include <algorithm>

#include "analysis/plan_props.h"
#include "analysis/semantic_ledger.h"
#include "expr/expr_builder.h"
#include "expr/simplifier.h"
#include "fusion/fuse.h"
#include "optimizer/rewrite_utils.h"
#include "optimizer/rules.h"

namespace fusiondb {

namespace {

/// total := newer ∘ total, then entries of `newer` not reached by total.
void ComposeInto(ColumnMap* total, const ColumnMap& newer) {
  for (auto& [from, to] : *total) {
    to = ApplyMap(newer, to);
  }
  for (const auto& [from, to] : newer) {
    total->emplace(from, to);
  }
}

}  // namespace

Result<PlanPtr> JoinOnKeysRule::Apply(const PlanPtr& plan,
                                      PlanContext* ctx) const {
  NaryJoin nary;
  if (!FlattenJoin(plan, &nary)) return plan;
  Fuser fuser(ctx);
  PropertyDerivation props;
  ColumnMap total_remap;
  bool changed = false;

  bool progress = true;
  while (progress) {
    progress = false;
    EqualityClasses classes(nary.conjuncts);
    for (size_t i = 0; i < nary.inputs.size() && !progress; ++i) {
      for (size_t j = i + 1; j < nary.inputs.size() && !progress; ++j) {
        const std::vector<std::vector<ColumnId>> j_keys =
            props.Derive(nary.inputs[j]).keys;
        if (j_keys.empty()) continue;

        auto fused = fuser.Fuse(nary.inputs[i], nary.inputs[j]);
        if (!fused.has_value()) continue;
        const PlanProps& pf = props.Derive(fused->plan);

        // Find a key of input j whose columns the join equates with their
        // fused counterparts and whose image keys the fused plan. Scalar
        // case (empty key, "at most one row"): nothing to equate — 1-row
        // relations combined by a cross product.
        const std::vector<ColumnId>* key = nullptr;
        std::vector<ColumnId> mapped;
        for (const std::vector<ColumnId>& kj : j_keys) {
          bool ok = true;
          std::vector<ColumnId> m;
          m.reserve(kj.size());
          for (ColumnId k2 : kj) {
            // The image must be input i's own column: a key column Fuse
            // added from input j (k1 == k2) equates trivially and says
            // nothing about how the join pairs the two inputs' rows.
            ColumnId k1 = ApplyMap(fused->mapping, k2);
            if (k1 == k2 || fused->plan->schema().IndexOf(k1) < 0 ||
                !classes.Same(k1, k2)) {
              ok = false;
              break;
            }
            m.push_back(k1);
          }
          if (ok && pf.HasKey(m)) {
            key = &kj;
            mapped = std::move(m);
            break;
          }
        }
        if (key == nullptr) continue;

        // Keep rows present on both sides (compensating count guards), with
        // NULL keys excluded as in the original join. Guards the fused
        // subtree's derived domains already prove are dropped (and the drop
        // recorded as an implication obligation when a ledger is attached).
        std::vector<ExprPtr> conds;
        SplitConjuncts(fused->left_filter, &conds);
        SplitConjuncts(fused->right_filter, &conds);
        std::vector<ColumnId> guard_cols = mapped;
        std::sort(guard_cols.begin(), guard_cols.end());
        guard_cols.erase(std::unique(guard_cols.begin(), guard_cols.end()),
                         guard_cols.end());
        for (ColumnId k1 : guard_cols) {
          int idx = fused->plan->schema().IndexOf(k1);
          conds.push_back(eb::IsNotNull(
              eb::Col(k1, fused->plan->schema().column(idx).type)));
        }
        ExprPtr full_guard = Simplify(CombineConjuncts(conds));
        std::vector<ExprPtr> kept = DropImpliedConjuncts(conds, pf.domains);
        ExprPtr guard = Simplify(CombineConjuncts(kept));

        if (SemanticLedger* ledger = ctx->semantics()) {
          ledger->AddKey(nary.inputs[j], *key, "JoinOnKeys");
          ledger->AddKey(fused->plan, mapped, "JoinOnKeys");
          if (kept.size() != conds.size()) {
            ledger->AddImplication(fused->plan, guard, full_guard,
                                   "JoinOnKeys");
          }
        }

        PlanPtr replacement = fused->plan;
        if (!IsTrueLiteral(guard)) {
          replacement = std::make_shared<FilterOp>(replacement, guard);
        }

        std::vector<PlanPtr> inputs;
        for (size_t t = 0; t < nary.inputs.size(); ++t) {
          if (t == i || t == j) continue;
          inputs.push_back(nary.inputs[t]);
        }
        inputs.push_back(std::move(replacement));
        nary.inputs = std::move(inputs);
        nary.conjuncts = RemapConjuncts(nary.conjuncts, fused->mapping);
        ComposeInto(&total_remap, fused->mapping);
        changed = true;
        progress = true;
      }
    }
  }
  if (!changed) return plan;
  FUSIONDB_ASSIGN_OR_RETURN(PlanPtr joined, RebuildJoin(nary));
  return RestoreSchema(joined, plan->schema(), total_remap);
}

}  // namespace fusiondb
