// PlanVerifier: a static-analysis pass over logical plans.
//
// Every fusion primitive (Section III) and rewrite rule (Section IV) carries
// a correctness obligation — the fused schema must cover both inputs,
// compensating filters must be boolean over the fused schema, mappings must
// resolve into the fused output. Before this pass existed, a buggy rewrite
// only surfaced as a wrong answer or an executor error far from the cause.
// The verifier walks a plan and checks, per operator kind, the structural
// and type invariants the executor and the Fuse contract rely on; the
// optimizer driver runs it after every rule application so the *first*
// invalid rewrite is pinpointed, naming the rule, the violated invariant and
// the offending subplan.
//
// The invariant catalog (bracketed tags embedded in violation messages) is
// documented in DESIGN.md. Structural violations report kPlanError, type
// violations kTypeError — the same codes the executor's own binding checks
// use, so enabling verification never changes which error callers observe,
// only how early and how precisely it is reported.
#ifndef FUSIONDB_ANALYSIS_PLAN_VERIFIER_H_
#define FUSIONDB_ANALYSIS_PLAN_VERIFIER_H_

#include <string_view>

#include "common/status.h"
#include "plan/logical_plan.h"

namespace fusiondb {

/// Whether plan verification is active: on unless the FUSIONDB_VERIFY_PLANS
/// environment variable is "0". Benchmarks that want to exclude
/// verification overhead export FUSIONDB_VERIFY_PLANS=0.
bool PlanVerificationEnabled();

class PlanVerifier {
 public:
  /// Verifies every structural and type invariant of `plan` (recursively;
  /// shared subtrees are verified once). `context` names the step that
  /// produced the plan — a rule name, "initial plan", "pre-execution" — and
  /// is woven into the violation message. Returns OK on a valid plan.
  static Status Verify(const PlanPtr& plan, std::string_view context = {});
};

/// Verify() when PlanVerificationEnabled(), OK otherwise. The call sites in
/// the optimizer and executor all route through this.
Status VerifyPlanIfEnabled(const PlanPtr& plan, std::string_view context);

}  // namespace fusiondb

#endif  // FUSIONDB_ANALYSIS_PLAN_VERIFIER_H_
