#include "obs/optimizer_trace.h"

#include <cstdio>
#include <sstream>

#include "plan/plan_fingerprint.h"
#include "plan/spool.h"

namespace fusiondb {

namespace {

// Pathological fixpoint loops could otherwise grow the fusion log without
// bound; past the cap steps are counted but not stored.
constexpr size_t kMaxFusionSteps = 65536;

}  // namespace

void OptimizerTrace::BeginPhase(std::string name) {
  EndPhase();
  phase_ = std::move(name);
  phase_open_ = true;
  phase_start_ = std::chrono::steady_clock::now();
}

void OptimizerTrace::EndPhase() {
  if (!phase_open_) return;
  phase_open_ = false;
  int64_t us = std::chrono::duration_cast<std::chrono::microseconds>(
                   std::chrono::steady_clock::now() - phase_start_)
                   .count();
  for (PhaseTime& t : phase_times_) {
    if (t.phase == phase_) {
      t.wall_us += us;
      return;
    }
  }
  phase_times_.push_back({phase_, us});
}

void OptimizerTrace::RecordRuleAttempt(std::string_view rule, bool fired) {
  for (RulePhaseStats& s : rule_stats_) {
    if (s.phase == phase_ && s.rule == rule) {
      ++s.attempts;
      if (fired) ++s.fired;
      return;
    }
  }
  RulePhaseStats s;
  s.phase = phase_;
  s.rule = std::string(rule);
  s.attempts = 1;
  s.fired = fired ? 1 : 0;
  rule_stats_.push_back(std::move(s));
}

void OptimizerTrace::RecordRuleFiring(std::string_view rule,
                                      const LogicalOp& anchor, int ops_before,
                                      int ops_after) {
  RuleFiring f;
  f.phase = phase_;
  f.rule = std::string(rule);
  f.anchor = DescribeNode(anchor);
  f.ops_before = ops_before;
  f.ops_after = ops_after;
  firings_.push_back(std::move(f));
}

int OptimizerTrace::FusionEnter(const LogicalOp& p1, const LogicalOp& p2) {
  if (fusion_steps_.size() >= kMaxFusionSteps) {
    ++dropped_fusion_steps_;
    ++depth_;  // keep depths of surviving siblings consistent
    return -1;
  }
  FusionStep step;
  step.depth = depth_++;
  step.left = OpKindName(p1.kind());
  step.right = OpKindName(p2.kind());
  fusion_steps_.push_back(std::move(step));
  return static_cast<int>(fusion_steps_.size()) - 1;
}

void OptimizerTrace::AnnotateLastFiring(std::string props) {
  if (firings_.empty()) return;
  firings_.back().props = std::move(props);
}

void OptimizerTrace::RecordCostDecision(CostDecision decision) {
  cost_decisions_.push_back(std::move(decision));
}

void OptimizerTrace::RecordSemanticChecks(int64_t plans, int64_t nodes,
                                          int64_t obligations) {
  semantic_plans_verified_ += plans;
  semantic_nodes_derived_ += nodes;
  semantic_obligations_ += obligations;
}

void OptimizerTrace::FusionResolve(int step, bool fused, std::string outcome) {
  --depth_;
  if (step < 0) return;  // dropped at the cap
  FusionStep& s = fusion_steps_[static_cast<size_t>(step)];
  s.fused = fused;
  s.outcome = std::move(outcome);
}

std::string OptimizerTrace::ToString() const {
  std::ostringstream os;
  os << "== optimizer trace ==\n";
  os << "phases (wall time):\n";
  for (const PhaseTime& t : phase_times_) {
    char line[96];
    std::snprintf(line, sizeof(line), "  %-12s %10lld us\n", t.phase.c_str(),
                  static_cast<long long>(t.wall_us));
    os << line;
  }
  os << "rules (per phase):\n";
  for (const RulePhaseStats& s : rule_stats_) {
    char line[160];
    std::snprintf(line, sizeof(line), "  %-12s %-26s attempts=%-6lld fired=%lld\n",
                  s.phase.c_str(), s.rule.c_str(),
                  static_cast<long long>(s.attempts),
                  static_cast<long long>(s.fired));
    os << line;
  }
  os << "firings:\n";
  for (const RuleFiring& f : firings_) {
    os << "  [" << f.phase << "] " << f.rule << " @ " << f.anchor << " ("
       << f.ops_before << " -> " << f.ops_after << " ops)\n";
    if (!f.props.empty()) {
      os << "    props: " << f.props << "\n";
    }
  }
  if (semantic_plans_verified_ > 0 || semantic_obligations_ > 0) {
    os << "semantic checks: plans=" << semantic_plans_verified_
       << " nodes_derived=" << semantic_nodes_derived_
       << " obligations=" << semantic_obligations_ << "\n";
  }
  if (!cost_decisions_.empty()) {
    os << "cost decisions (share vs solo):\n";
    for (const CostDecision& d : cost_decisions_) {
      char line[256];
      std::snprintf(line, sizeof(line),
                    "  %-5s %s %s consumers=%d solo=%lldB shared=%lldB\n",
                    d.shared ? "share" : "solo", d.anchor.c_str(),
                    FingerprintToString(d.fingerprint).c_str(), d.consumers,
                    static_cast<long long>(d.solo_bytes),
                    static_cast<long long>(d.shared_bytes));
      os << line;
    }
  }
  if (!fusion_steps_.empty()) {
    os << "fusion recursion:\n";
    for (const FusionStep& s : fusion_steps_) {
      os << "  " << std::string(static_cast<size_t>(s.depth) * 2, ' ')
         << "Fuse(" << s.left << ", " << s.right << ") -> "
         << (s.fused ? "" : "\xE2\x8A\xA5 ")  // ⊥
         << s.outcome << "\n";
    }
    if (dropped_fusion_steps_ > 0) {
      os << "  (" << dropped_fusion_steps_ << " further steps dropped)\n";
    }
  }
  return os.str();
}

std::string OptimizerTrace::DescribeNode(const LogicalOp& op) {
  std::ostringstream os;
  os << OpKindName(op.kind());
  switch (op.kind()) {
    case OpKind::kScan:
      os << "(" << Cast<ScanOp>(op).table()->name() << ")";
      break;
    case OpKind::kJoin:
      os << "(" << JoinTypeName(Cast<JoinOp>(op).join_type()) << ")";
      break;
    case OpKind::kAggregate: {
      const auto& agg = Cast<AggregateOp>(op);
      os << "(groups=" << agg.group_by().size()
         << " aggs=" << agg.aggregates().size() << ")";
      break;
    }
    case OpKind::kLimit:
      os << "(" << Cast<LimitOp>(op).limit() << ")";
      break;
    case OpKind::kSpool:
      os << "(id=" << Cast<SpoolOp>(op).spool_id() << ")";
      break;
    case OpKind::kUnionAll:
      os << "(" << op.num_children() << ")";
      break;
    case OpKind::kFilter:
    case OpKind::kProject:
    case OpKind::kWindow:
    case OpKind::kValues:
    case OpKind::kSort:
    case OpKind::kEnforceSingleRow:
    case OpKind::kApply:
      break;  // the kind name is identifying enough
  }
  // The output schema pins the anchor to a unique plan node even when two
  // nodes share kind and parameters (column ids are globally unique).
  if (op.schema().num_columns() > 0) {
    os << " -> #" << op.schema().column(0).id;
  }
  return os.str();
}

}  // namespace fusiondb
