#include "fusion/fuse_across.h"

#include <utility>

#include "analysis/semantic_ledger.h"
#include "expr/simplifier.h"

namespace fusiondb {

namespace {

/// Conjunction with nullptr-as-TRUE normalization on both sides.
ExprPtr AndFilters(const ExprPtr& a, const ExprPtr& b) {
  bool a_true = a == nullptr || IsTrueLiteral(a);
  bool b_true = b == nullptr || IsTrueLiteral(b);
  if (a_true) return b_true ? nullptr : b;
  if (b_true) return a;
  return Expr::MakeAnd({a, b});
}

}  // namespace

std::optional<size_t> CrossPlanFuser::TryAdd(const PlanPtr& plan) {
  CanonicalPlan canonical = Canonicalize(plan);
  auto add_member = [&]() {
    members_.push_back(plan);
    member_canonicals_.push_back(std::move(canonical));
  };
  if (plan_ == nullptr) {
    plan_ = plan;
    consumers_.push_back({nullptr, {}});
    add_member();
    return 0;
  }
  // Identical-member overlay: canonical forms are renumbering-stable, so a
  // matching member computes the same relation and the new plan's output
  // column i is the member's output column i. The new consumer reuses the
  // member's compensating filter and routes positionally through the
  // member's mapping — no Fuse call, and no operator-kind restriction. The
  // 64-bit fingerprint only filters candidates; PlanEquivalent decides,
  // since a collision would hand this session another's rows.
  for (size_t j = 0; j < members_.size(); ++j) {
    if (member_canonicals_[j].fingerprint != canonical.fingerprint ||
        !PlanEquivalent(member_canonicals_[j].plan, canonical.plan)) {
      continue;
    }
    const Schema& member_schema = members_[j]->schema();
    const Schema& plan_schema = plan->schema();
    ColumnMap overlay;
    for (size_t i = 0; i < plan_schema.num_columns(); ++i) {
      overlay[plan_schema.column(i).id] =
          ApplyMap(consumers_[j].mapping, member_schema.column(i).id);
    }
    consumers_.push_back({consumers_[j].filter, std::move(overlay)});
    add_member();
    return consumers_.size() - 1;
  }
  std::optional<FuseResult> fused = fuser_.Fuse(plan_, plan);
  if (!fused.has_value()) return std::nullopt;
  plan_ = fused->plan;
  SemanticLedger* ledger = ctx_->semantics();
  // Existing consumers keep their mappings (the fused plan retains all of
  // the previous shared plan's output columns) and tighten their filters
  // with this step's left compensation. Each tightened filter must imply
  // the one it replaces — conjoining can only narrow; an accumulation bug
  // (replacing instead of conjoining) would break this, so record the
  // obligation for the semantic verifier when a ledger is attached.
  for (CrossConsumer& c : consumers_) {
    ExprPtr before = c.filter;
    c.filter = AndFilters(c.filter, fused->left_filter);
    if (ledger != nullptr) {
      ledger->AddImplication(plan_, c.filter, before, "CrossPlanFuser");
    }
  }
  consumers_.push_back(
      {AndFilters(nullptr, fused->right_filter), std::move(fused->mapping)});
  if (ledger != nullptr) {
    ledger->AddImplication(plan_, consumers_.back().filter,
                           fused->right_filter, "CrossPlanFuser");
  }
  add_member();
  return consumers_.size() - 1;
}

}  // namespace fusiondb
