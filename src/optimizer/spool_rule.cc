#include "optimizer/spool_rule.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "fusion/fuse.h"
#include "plan/plan_printer.h"
#include "plan/spool.h"

namespace fusiondb {

namespace {

/// Signature used to pre-filter candidate pairs: operator census plus the
/// multiset of scanned tables. Only equal signatures are worth a Fuse call.
std::string Signature(const PlanPtr& plan) {
  std::string sig;
  std::vector<std::string> tables;
  std::function<void(const PlanPtr&)> walk = [&](const PlanPtr& p) {
    sig += static_cast<char>('A' + static_cast<int>(p->kind()));
    if (p->kind() == OpKind::kScan) {
      tables.push_back(Cast<ScanOp>(*p).table()->name());
    }
    for (const PlanPtr& c : p->children()) walk(c);
  };
  walk(plan);
  std::sort(tables.begin(), tables.end());
  for (const std::string& t : tables) {
    sig += '|';
    sig += t;
  }
  return sig;
}

/// All nodes of the tree in pre-order.
void CollectNodes(const PlanPtr& plan, std::vector<PlanPtr>* out) {
  out->push_back(plan);
  for (const PlanPtr& c : plan->children()) CollectNodes(c, out);
}

bool Contains(const PlanPtr& haystack, const LogicalOp* needle) {
  if (haystack.get() == needle) return true;
  for (const PlanPtr& c : haystack->children()) {
    if (Contains(c, needle)) return true;
  }
  return false;
}

/// Rebuilds `plan` with the given node-pointer substitutions applied.
PlanPtr ReplaceSubtrees(const PlanPtr& plan,
                        const std::map<const LogicalOp*, PlanPtr>& repl) {
  auto it = repl.find(plan.get());
  if (it != repl.end()) return it->second;
  bool changed = false;
  std::vector<PlanPtr> children;
  children.reserve(plan->num_children());
  for (const PlanPtr& c : plan->children()) {
    PlanPtr nc = ReplaceSubtrees(c, repl);
    changed |= (nc != c);
    children.push_back(std::move(nc));
  }
  if (!changed) return plan;
  return plan->CloneWithChildren(std::move(children));
}

}  // namespace

Result<PlanPtr> SpoolCommonSubexpressions(const PlanPtr& plan,
                                          PlanContext* ctx) {
  PlanPtr current = plan;
  Fuser fuser(ctx);
  int32_t next_spool_id = 1;
  constexpr int kMaxRounds = 16;

  for (int round = 0; round < kMaxRounds; ++round) {
    std::vector<PlanPtr> nodes;
    CollectNodes(current, &nodes);

    // Candidates: non-trivial subtrees, grouped by structural signature.
    std::map<std::string, std::vector<PlanPtr>> groups;
    for (const PlanPtr& n : nodes) {
      if (CountAllOps(n) < 2) continue;            // bare scans/values
      if (n->kind() == OpKind::kSpool) continue;   // already shared
      groups[Signature(n)].push_back(n);
    }

    // Prefer the largest duplicated subtrees: spooling the whole CTE beats
    // spooling a fragment of it.
    std::vector<std::pair<int, const std::string*>> order;
    for (const auto& [sig, members] : groups) {
      if (members.size() < 2) continue;
      order.push_back({CountAllOps(members[0]), &sig});
    }
    std::sort(order.begin(), order.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });

    bool rewritten = false;
    for (const auto& [size, sig_ptr] : order) {
      std::vector<PlanPtr>& members = groups[*sig_ptr];
      // Anchor on the first member and collect every other member that is
      // *identical* to it; all of them share one spool buffer.
      const PlanPtr& anchor = members[0];
      std::map<const LogicalOp*, PlanPtr> replacements;
      std::vector<PlanPtr> chosen{anchor};
      int32_t id = next_spool_id;
      PlanPtr shared_child;  // set on first match
      for (size_t j = 1; j < members.size(); ++j) {
        const PlanPtr& b = members[j];
        bool overlaps = false;
        for (const PlanPtr& c : chosen) {
          overlaps |= Contains(c, b.get()) || Contains(b, c.get());
        }
        if (overlaps) continue;
        auto fused = fuser.Fuse(anchor, b);
        if (!fused.has_value() || !fused->Exact()) continue;
        // Spooling shares *identical* computations only. Exact compensations
        // are necessary but not sufficient: fusing two scalar aggregates
        // over different filters is "exact" (scalar aggregates always emit
        // a row) yet produces a merged plan with extra masked aggregates —
        // that is fusion's contribution, not spooling's. Identical
        // instances fuse onto a plan with exactly the anchor's schema.
        bool identical = fused->plan->schema().num_columns() ==
                         anchor->schema().num_columns();
        for (size_t c = 0; identical && c < anchor->schema().num_columns();
             ++c) {
          identical = fused->plan->schema().column(c).id ==
                      anchor->schema().column(c).id;
        }
        if (!identical) continue;
        if (shared_child == nullptr) {
          shared_child = fused->plan;
          replacements[anchor.get()] =
              std::make_shared<SpoolOp>(id, shared_child);
        }
        // Consumer b reads the shared spool through a renaming projection.
        std::vector<NamedExpr> exprs;
        exprs.reserve(b->schema().num_columns());
        bool ok = true;
        for (const ColumnInfo& c : b->schema().columns()) {
          ColumnId source = ApplyMap(fused->mapping, c.id);
          if (shared_child->schema().IndexOf(source) < 0) {
            ok = false;
            break;
          }
          exprs.push_back({c.id, c.name, Expr::MakeColumnRef(source, c.type)});
        }
        if (!ok) continue;
        replacements[b.get()] = std::make_shared<ProjectOp>(
            std::make_shared<SpoolOp>(id, shared_child), std::move(exprs));
        chosen.push_back(b);
      }
      if (replacements.size() >= 2) {
        ++next_spool_id;
        current = ReplaceSubtrees(current, replacements);
        rewritten = true;
        break;
      }
    }
    if (!rewritten) return current;
  }
  return current;
}

}  // namespace fusiondb
