#include "optimizer/optimizer.h"

#include <chrono>
#include <functional>
#include <memory>
#include <vector>

#include "analysis/plan_props.h"
#include "analysis/plan_verifier.h"
#include "analysis/semantic_ledger.h"
#include "analysis/semantic_verifier.h"
#include "obs/metrics.h"
#include "obs/optimizer_trace.h"
#include "optimizer/prune_columns.h"
#include "optimizer/rules.h"
#include "optimizer/spool_rule.h"
#include "plan/plan_printer.h"

namespace fusiondb {

namespace {

/// Scopes one optimizer phase on the (nullable) trace: rule events inside
/// are attributed to it and its wall time is recorded when the scope ends.
class PhaseScope {
 public:
  PhaseScope(OptimizerTrace* trace, const char* name) : trace_(trace) {
    if (trace_ != nullptr) trace_->BeginPhase(name);
  }
  ~PhaseScope() {
    if (trace_ != nullptr) trace_->EndPhase();
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  OptimizerTrace* trace_;
};

/// Rule activity and wall time accumulated across one Optimize() call and
/// flushed to the context's MetricsRegistry once, at scope exit (also on
/// error paths, so failure counters survive the early return). Local plain
/// ints keep the sweep hot path free of registry lookups.
struct OptCounters {
  MetricsRegistry* registry = nullptr;  // null: everything below is inert
  std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  int64_t attempts = 0;
  int64_t firings = 0;
  int64_t verifier_failures = 0;
  int64_t semantic_failures = 0;
  std::vector<std::pair<std::string, int64_t>> per_rule;

  void AddFiring(std::string_view rule) {
    ++firings;
    for (auto& e : per_rule) {
      if (e.first == rule) {
        ++e.second;
        return;
      }
    }
    per_rule.emplace_back(rule, 1);
  }

  ~OptCounters() {
    if (registry == nullptr) return;
    MetricsRegistry* r = registry;
    r->Record(r->Histogram("fusiondb_optimizer_optimize_us"),
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count());
    r->Add(r->Counter("fusiondb_optimizer_runs_total"), 1);
    r->Add(r->Counter("fusiondb_optimizer_rule_attempts_total"), attempts);
    r->Add(r->Counter("fusiondb_optimizer_rule_firings_total"), firings);
    if (verifier_failures > 0) {
      r->Add(r->Counter("fusiondb_optimizer_verifier_failures_total"),
             verifier_failures);
    }
    if (semantic_failures > 0) {
      r->Add(r->Counter("fusiondb_optimizer_semantic_failures_total"),
             semantic_failures);
    }
    for (const auto& e : per_rule) {
      r->Add(r->Counter("fusiondb_optimizer_rule_firings_total{rule=\"" +
                        e.first + "\"}"),
             e.second);
    }
  }
};

/// One bottom-up sweep: children first, then every rule at this node to a
/// local fixpoint. `semantic` (nullable) is the semantic verification tier:
/// after each firing it discharges the obligations the rule recorded on the
/// context's ledger and re-checks the rewritten subtree's semantic
/// contracts (DESIGN.md §8).
Result<PlanPtr> SweepOnce(const PlanPtr& plan,
                          const std::vector<const Rule*>& rules,
                          PlanContext* ctx, SemanticVerifier* semantic,
                          OptCounters* counters, bool* changed) {
  std::vector<PlanPtr> children;
  children.reserve(plan->num_children());
  bool child_changed = false;
  for (const PlanPtr& c : plan->children()) {
    FUSIONDB_ASSIGN_OR_RETURN(
        PlanPtr nc, SweepOnce(c, rules, ctx, semantic, counters, changed));
    child_changed |= (nc != c);
    children.push_back(std::move(nc));
  }
  PlanPtr current =
      child_changed ? plan->CloneWithChildren(std::move(children)) : plan;
  if (child_changed) *changed = true;

  OptimizerTrace* trace = ctx->trace();
  constexpr int kLocalFixpointCap = 64;
  for (int round = 0; round < kLocalFixpointCap; ++round) {
    bool round_changed = false;
    for (const Rule* rule : rules) {
      FUSIONDB_ASSIGN_OR_RETURN(PlanPtr next, rule->Apply(current, ctx));
      if (trace != nullptr) {
        trace->RecordRuleAttempt(rule->name(), next != current);
        if (next != current) {
          trace->RecordRuleFiring(rule->name(), *current, CountAllOps(current),
                                  CountAllOps(next));
        }
      }
      ++counters->attempts;
      if (next != current) {
        counters->AddFiring(rule->name());
        // An invalid rewrite is a bug in the rule: pinpoint it here, at the
        // first bad application, rather than as a downstream symptom.
        if (PlanVerificationEnabled()) {
          Status st = PlanVerifier::Verify(next);
          if (!st.ok()) {
            ++counters->verifier_failures;
            return Status::Internal(internal::StrCat(
                "rule '", rule->name(), "' produced an invalid plan: ",
                st.message()));
          }
        }
        if (semantic != nullptr) {
          // Translation validation: re-prove the facts the rule claimed
          // (ledger obligations), then re-check the rewritten subtree's own
          // semantic contract (single-row feasibility). Only the touched
          // subtree is walked; unchanged subtrees hit the verifier's memo.
          Status st = semantic->CheckObligations(ctx->semantics(),
                                                 rule->name());
          if (st.ok()) st = semantic->Verify(next, rule->name());
          if (!st.ok()) {
            ++counters->semantic_failures;
            return Status::Internal(internal::StrCat(
                "rule '", rule->name(), "' violated a semantic invariant: ",
                st.message()));
          }
          if (trace != nullptr) {
            trace->AnnotateLastFiring(
                PropsToString(semantic->props().Derive(next)));
          }
        }
        current = std::move(next);
        round_changed = true;
        *changed = true;
      }
    }
    if (!round_changed) break;
  }
  return current;
}

/// Repeated sweeps to a global fixpoint (rewrites can open opportunities in
/// subtrees a sweep already passed, e.g. UnionAllOnJoin's recursive
/// re-application in Q23).
Result<PlanPtr> RunPhase(const PlanPtr& plan,
                         const std::vector<const Rule*>& rules,
                         PlanContext* ctx, SemanticVerifier* semantic,
                         OptCounters* counters) {
  if (rules.empty()) return plan;
  PlanPtr current = plan;
  constexpr int kGlobalFixpointCap = 48;
  for (int pass = 0; pass < kGlobalFixpointCap; ++pass) {
    bool changed = false;
    FUSIONDB_ASSIGN_OR_RETURN(
        current,
        SweepOnce(current, rules, ctx, semantic, counters, &changed));
    if (!changed) return current;
  }
  return Status::Internal("optimizer phase did not reach a fixpoint");
}

/// Uninstalls an optimizer-owned ledger from the context on every return
/// path; a caller-provided ledger (src/server) is left untouched.
struct LedgerGuard {
  PlanContext* ctx;
  bool installed;
  ~LedgerGuard() {
    if (installed) ctx->set_semantics(nullptr);
  }
};

}  // namespace

Result<PlanPtr> Optimizer::Optimize(const PlanPtr& plan,
                                    PlanContext* ctx) const {
  static const SimplifyExpressionsRule simplify;
  static const MergeFiltersRule merge_filters;
  static const MergeProjectsRule merge_projects;
  static const FilterPushdownRule filter_pushdown;
  static const DecorrelateScalarAggRule decorrelate;
  static const SemiJoinToDistinctJoinRule semi_to_distinct;
  static const PushDistinctBelowJoinRule push_distinct;
  static const GroupByJoinToWindowRule to_window;
  static const JoinOnKeysRule join_on_keys;
  static const UnionAllOnJoinRule union_on_join;
  static const UnionAllFuseRule union_fuse;

  // Catch plan-construction bugs (binder, PlanBuilder plans) before
  // any rule runs: rule applications are only verified incrementally, so a
  // pre-existing violation would otherwise be misattributed to a rule.
  FUSIONDB_RETURN_IF_ERROR(VerifyPlanIfEnabled(plan, "initial plan"));

  PlanPtr current = plan;
  OptimizerTrace* obs_trace = ctx->trace();
  // Flushes to the context's registry at scope exit, error paths included.
  OptCounters counters;
  counters.registry = ctx->metrics();

  // Semantic tier (DESIGN.md §8): active when the runtime flag is on or
  // when a caller attached a ledger explicitly (tests, src/server). Rules
  // record obligations through ctx->semantics(); if no ledger is attached
  // yet, install a local one for the duration of this call.
  SemanticLedger local_ledger;
  std::unique_ptr<SemanticVerifier> semantic_holder;
  LedgerGuard ledger_guard{ctx, false};
  if (SemanticVerificationEnabled() || ctx->semantics() != nullptr) {
    semantic_holder = std::make_unique<SemanticVerifier>();
    if (ctx->semantics() == nullptr) {
      ctx->set_semantics(&local_ledger);
      ledger_guard.installed = true;
    }
    FUSIONDB_RETURN_IF_ERROR(
        semantic_holder->Verify(current, "initial plan"));
  }
  SemanticVerifier* semantic = semantic_holder.get();

  // A whole-plan pass (column pruning, spooling) run as a traced phase of
  // its own: one attempt, a firing when the plan changed, then both
  // verification tiers against `stage`.
  auto run_pass = [&](const char* phase_name, const char* pass_name,
                      const char* stage,
                      const std::function<Result<PlanPtr>(const PlanPtr&)>&
                          pass) -> Status {
    PhaseScope phase(obs_trace, phase_name);
    int ops_before = obs_trace != nullptr ? CountAllOps(current) : 0;
    PlanPtr before = current;
    FUSIONDB_ASSIGN_OR_RETURN(current, pass(current));
    bool fired = current != before;
    if (obs_trace != nullptr) {
      obs_trace->RecordRuleAttempt(pass_name, fired);
      if (fired) {
        obs_trace->RecordRuleFiring(pass_name, *before, ops_before,
                                    CountAllOps(current));
      }
    }
    ++counters.attempts;
    if (fired) counters.AddFiring(pass_name);
    FUSIONDB_RETURN_IF_ERROR(VerifyPlanIfEnabled(current, stage));
    if (semantic != nullptr) {
      FUSIONDB_RETURN_IF_ERROR(semantic->Verify(current, stage));
    }
    return Status::OK();
  };
  // Pruning starts from the query's own outputs (prune_columns.h).
  auto prune = [&plan](const PlanPtr& p) {
    return PruneColumns(p, plan->schema());
  };

  // 1. Normalize.
  {
    PhaseScope phase(obs_trace, "normalize");
    std::vector<const Rule*> rules{&simplify, &merge_filters, &merge_projects,
                                   &filter_pushdown};
    FUSIONDB_ASSIGN_OR_RETURN(current, RunPhase(current, rules, ctx, semantic, &counters));
  }

  // 2. Decorrelate (always on: Apply cannot execute).
  {
    PhaseScope phase(obs_trace, "decorrelate");
    std::vector<const Rule*> rules{&decorrelate, &merge_filters};
    FUSIONDB_ASSIGN_OR_RETURN(current, RunPhase(current, rules, ctx, semantic, &counters));
  }
  // The SQL binder scans every table column; narrowing before the rule
  // phases keeps each rewrite from rebuilding wide schemas. (Pruning stops
  // at an Apply, so it runs after decorrelation.)
  FUSIONDB_RETURN_IF_ERROR(
      run_pass("prune", "PruneColumns", "column pruning", prune));

  // 3. Fusion rules (Section IV).
  {
    std::vector<const Rule*> rules;
    if (options_.enable_group_by_join_to_window) rules.push_back(&to_window);
    if (options_.enable_join_on_keys) rules.push_back(&join_on_keys);
    if (options_.enable_union_all_on_join) rules.push_back(&union_on_join);
    if (options_.enable_union_all_fuse) rules.push_back(&union_fuse);
    if (!rules.empty()) {
      PhaseScope phase(obs_trace, "fuse");
      rules.push_back(&simplify);
      FUSIONDB_ASSIGN_OR_RETURN(current, RunPhase(current, rules, ctx, semantic, &counters));
    }
  }

  // 4. Distinct/semi-join interplay (the Q95 pipeline, Section V.D).
  {
    PhaseScope phase(obs_trace, "distinct");
    std::vector<const Rule*> rules{&semi_to_distinct, &push_distinct,
                                   &merge_projects};
    FUSIONDB_ASSIGN_OR_RETURN(current, RunPhase(current, rules, ctx, semantic, &counters));
  }

  // 5. Fusion again: phase 4 exposes new JoinOnKeys opportunities.
  if (options_.enable_join_on_keys) {
    PhaseScope phase(obs_trace, "fuse2");
    std::vector<const Rule*> rules{&join_on_keys, &simplify};
    FUSIONDB_ASSIGN_OR_RETURN(current, RunPhase(current, rules, ctx, semantic, &counters));
  }

  // 6. Cleanup: simplify, push filters down onto their scans (which prune
  // by the Filter directly above them), prune columns.
  {
    PhaseScope phase(obs_trace, "cleanup");
    std::vector<const Rule*> rules{&simplify, &merge_filters, &merge_projects,
                                   &filter_pushdown};
    FUSIONDB_ASSIGN_OR_RETURN(current, RunPhase(current, rules, ctx, semantic, &counters));
  }
  FUSIONDB_RETURN_IF_ERROR(
      run_pass("prune", "PruneColumns", "column pruning", prune));

  // 7. Spooling (off by default): share duplicated subtrees through
  // materialization. Runs last so later rewrites cannot diverge the two
  // consumers of a shared spool child.
  if (options_.enable_spooling) {
    FUSIONDB_RETURN_IF_ERROR(run_pass(
        "spool", "SpoolCommonSubexpressions", "spooling",
        [ctx](const PlanPtr& p) { return SpoolCommonSubexpressions(p, ctx); }));
  }

  // Schema stability contract: rewrites may leave superset schemas behind
  // (RestoreSchema avoids interposing projections that would block join
  // flattening), so enforce the exact original output here.
  bool exact = current->schema().num_columns() == plan->schema().num_columns();
  for (size_t i = 0; exact && i < plan->schema().num_columns(); ++i) {
    exact = current->schema().column(i).id == plan->schema().column(i).id;
  }
  if (!exact) {
    std::vector<NamedExpr> narrow;
    narrow.reserve(plan->schema().num_columns());
    for (const ColumnInfo& c : plan->schema().columns()) {
      int idx = current->schema().IndexOf(c.id);
      if (idx < 0) {
        return Status::Internal("optimizer dropped output column " + c.name);
      }
      narrow.push_back({c.id, c.name, Expr::MakeColumnRef(c.id, c.type)});
    }
    current = std::make_shared<ProjectOp>(current, std::move(narrow));
  }
  // Final gate before the plan is handed to the executor: also covers the
  // schema-narrowing projection built just above.
  FUSIONDB_RETURN_IF_ERROR(VerifyPlanIfEnabled(current, "optimized plan"));
  if (semantic != nullptr) {
    // Full-plan re-verification: rules verify subtrees incrementally, and
    // this also covers the schema-narrowing projection built just above.
    Status st = semantic->CheckObligations(ctx->semantics(), "optimized plan");
    if (st.ok()) st = semantic->Verify(current, "optimized plan");
    FUSIONDB_RETURN_IF_ERROR(st);
    if (obs_trace != nullptr) {
      obs_trace->RecordSemanticChecks(semantic->plans_verified(),
                                      semantic->props().nodes_derived(),
                                      semantic->obligations_checked());
    }
  }
  return current;
}

}  // namespace fusiondb
