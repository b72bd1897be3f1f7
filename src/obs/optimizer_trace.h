// OptimizerTrace: records what the optimizer and the Fuse(P1,P2) primitive
// actually did to a query — per phase, every rule attempted and whether it
// fired (with the plan node it anchored on), and for fusion the full
// recursion path with the Section III case taken or the structured reason
// the call returned ⊥ (the paper's failure value, std::nullopt in code).
//
// The trace rides on PlanContext as a nullable pointer: no trace attached
// (the default) means zero work in the optimizer and exactly one branch in
// Fuse, so tracing costs nothing unless requested. Rule/Fuser signatures
// are unchanged.
#ifndef FUSIONDB_OBS_OPTIMIZER_TRACE_H_
#define FUSIONDB_OBS_OPTIMIZER_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "plan/logical_plan.h"

namespace fusiondb {

/// Attempt/fire counters for one (phase, rule) pair.
struct RulePhaseStats {
  std::string phase;
  std::string rule;
  int64_t attempts = 0;
  int64_t fired = 0;
};

/// Wall time spent in one optimizer phase (summed when a phase runs more
/// than once under the same trace).
struct PhaseTime {
  std::string phase;
  int64_t wall_us = 0;
};

/// One successful rewrite: which rule, where it anchored, and the operator
/// counts before/after (fusion rewrites shrink the plan; that delta is the
/// paper's whole point).
struct RuleFiring {
  std::string phase;
  std::string rule;
  std::string anchor;  // description of the pre-rewrite anchor node
  int ops_before = 0;
  int ops_after = 0;
  std::string props;  // derived semantic properties of the rewritten subtree
                      // (semantic tier only; empty otherwise)
};

/// One Fuse(P1, P2) invocation in the recursion. `outcome` is either the
/// Section III case label ("III.E (aggregate)", ...) on success or the
/// structured ⊥ reason ("scans read different tables", "differing group
/// keys", ...) on failure.
struct FusionStep {
  int depth = 0;       // recursion depth (0 = the outermost pair)
  std::string left;    // OpKindName of P1's root
  std::string right;   // OpKindName of P2's root
  bool fused = false;
  std::string outcome;
};

/// One server share-vs-solo verdict for a candidate group (DESIGN.md
/// §12.4): the fused plan, how many sessions it serves, the static scan
/// bytes of its members run on their own and of one shared run, and
/// whether the group was shared (shared_bytes < solo_bytes).
struct CostDecision {
  std::string anchor;        // description of the fused plan's root
  uint64_t fingerprint = 0;  // plan fingerprint of the fused plan
  int consumers = 0;         // sessions the fused plan serves
  int64_t solo_bytes = 0;    // Σ ScanBytes(member)
  int64_t shared_bytes = 0;  // ScanBytes(fused plan)
  bool shared = false;       // true: one shared run; false: solo runs
};

class OptimizerTrace {
 public:
  /// Phase bookkeeping (normalize, decorrelate, fuse, ...). Subsequent rule
  /// events are attributed to the current phase, and its wall time runs
  /// until EndPhase (or the next BeginPhase).
  void BeginPhase(std::string name);
  void EndPhase();
  const std::string& current_phase() const { return phase_; }

  /// Records one rule application attempt; `fired` when it rewrote.
  void RecordRuleAttempt(std::string_view rule, bool fired);

  /// Records a successful rewrite with its anchor node.
  void RecordRuleFiring(std::string_view rule, const LogicalOp& anchor,
                        int ops_before, int ops_after);

  /// Fusion recursion bookkeeping: Enter when Fuse(p1, p2) starts and
  /// returns the step's index; Resolve fills the outcome when it returns.
  /// Returns -1 when the step cap is hit (the resolve is then dropped too).
  int FusionEnter(const LogicalOp& p1, const LogicalOp& p2);
  void FusionResolve(int step, bool fused, std::string outcome);

  /// Attaches a semantic-property dump to the most recent firing (the
  /// semantic tier calls this right after verifying the rewrite).
  void AnnotateLastFiring(std::string props);

  /// Records one share-vs-solo verdict (src/server).
  void RecordCostDecision(CostDecision decision);

  /// Accumulates semantic-tier work counters (plans verified, property
  /// nodes derived, ledger obligations discharged).
  void RecordSemanticChecks(int64_t plans, int64_t nodes, int64_t obligations);

  const std::vector<RulePhaseStats>& rule_stats() const { return rule_stats_; }
  const std::vector<PhaseTime>& phase_times() const { return phase_times_; }
  const std::vector<RuleFiring>& firings() const { return firings_; }
  const std::vector<FusionStep>& fusion_steps() const { return fusion_steps_; }
  const std::vector<CostDecision>& cost_decisions() const {
    return cost_decisions_;
  }
  int64_t dropped_fusion_steps() const { return dropped_fusion_steps_; }
  int64_t semantic_plans_verified() const { return semantic_plans_verified_; }
  int64_t semantic_nodes_derived() const { return semantic_nodes_derived_; }
  int64_t semantic_obligations() const { return semantic_obligations_; }

  /// Human-readable rendering (run_query --trace-optimizer).
  std::string ToString() const;

  /// Short description of a plan node for anchors: kind plus the most
  /// identifying parameter (table, join type, group count, ...).
  static std::string DescribeNode(const LogicalOp& op);

 private:
  std::string phase_;
  bool phase_open_ = false;
  std::chrono::steady_clock::time_point phase_start_;
  std::vector<PhaseTime> phase_times_;
  std::vector<RulePhaseStats> rule_stats_;
  std::vector<RuleFiring> firings_;
  std::vector<FusionStep> fusion_steps_;
  std::vector<CostDecision> cost_decisions_;
  int64_t dropped_fusion_steps_ = 0;
  int64_t semantic_plans_verified_ = 0;
  int64_t semantic_nodes_derived_ = 0;
  int64_t semantic_obligations_ = 0;
  int depth_ = 0;
};

}  // namespace fusiondb

#endif  // FUSIONDB_OBS_OPTIMIZER_TRACE_H_
