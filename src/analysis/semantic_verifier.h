// SemanticVerifier: the semantic tier of plan verification (DESIGN.md §8).
//
// The structural tier (plan_verifier.h) checks that a plan is well-formed;
// this tier checks that the optimizer's *rewrites* were justified. It walks
// a plan proving, from independently derived properties (plan_props.h),
// that EnforceSingleRow subtrees can actually produce a single row
// ([semantic-single-row-impossible]), and discharges the obligations
// rewrite rules record in the SemanticLedger:
//   - key claims ([semantic-key-obligation], e.g. JoinOnKeys' precondition),
//   - filter implications ([semantic-filter-implication], e.g. compensating
//     conjuncts dropped because the shared subtree's domain implies them),
// plus cross-plan consumer well-formedness after CrossPlanFuser
// ([semantic-consumer-filter]).
//
// Both the property derivation and the walk are DAG-memoized and persist
// across calls on one verifier instance, so re-verifying a plan after a
// rule firing only pays for the subtrees the rule actually touched.
#ifndef FUSIONDB_ANALYSIS_SEMANTIC_VERIFIER_H_
#define FUSIONDB_ANALYSIS_SEMANTIC_VERIFIER_H_

#include <cstdint>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "analysis/plan_props.h"
#include "analysis/semantic_ledger.h"
#include "common/status.h"
#include "expr/column_map.h"
#include "plan/logical_plan.h"

namespace fusiondb {

/// Whether semantic verification is active: off unless the
/// FUSIONDB_VERIFY_SEMANTICS environment variable is set to anything but
/// "0" (the tier re-proves rewrites, so it costs more than the structural
/// tier and is aimed at CI/debugging).
bool SemanticVerificationEnabled();

class SemanticVerifier {
 public:
  /// Walks `plan` and checks every node-local semantic invariant
  /// (single-row feasibility). `context` names the producing step and is
  /// woven into violation messages.
  Status Verify(const PlanPtr& plan, std::string_view context = {});

  /// Drains `ledger` (null is a no-op) and re-proves every recorded
  /// obligation against derived properties.
  Status CheckObligations(SemanticLedger* ledger, std::string_view context = {});

  /// Checks one cross-plan consumer against the fused plan it reads:
  /// the compensating filter must be boolean over the fused schema and the
  /// mapping must land every member output column on a fused column of the
  /// same type.
  Status VerifyConsumer(const PlanPtr& fused, const ExprPtr& filter,
                        const ColumnMap& mapping, const Schema& member_output,
                        std::string_view context = {});

  /// The underlying derivation (shared memo), e.g. for EXPLAIN annotations.
  PropertyDerivation& props() { return props_; }

  int64_t plans_verified() const { return plans_verified_; }
  int64_t obligations_checked() const { return obligations_checked_; }

 private:
  Status WalkTree(const PlanPtr& node);

  PropertyDerivation props_;
  std::unordered_set<const LogicalOp*> walked_;  // nodes already verified
  std::vector<PlanPtr> keepalive_;
  int64_t plans_verified_ = 0;
  int64_t obligations_checked_ = 0;
};

/// SemanticVerifier checks when SemanticVerificationEnabled(), OK otherwise.
/// One-shot convenience for call sites without a persistent verifier.
Status VerifySemanticsIfEnabled(const PlanPtr& plan, std::string_view context);

}  // namespace fusiondb

#endif  // FUSIONDB_ANALYSIS_SEMANTIC_VERIFIER_H_
