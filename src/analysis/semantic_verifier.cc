#include "analysis/semantic_verifier.h"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "analysis/expr_type_checker.h"
#include "catalog/table.h"
#include "expr/simplifier.h"
#include "plan/plan_printer.h"

namespace fusiondb {

bool SemanticVerificationEnabled() {
  static const bool enabled = [] {
    const char* env = std::getenv("FUSIONDB_VERIFY_SEMANTICS");
    if (env != nullptr) return env[0] != '0';
#ifdef FUSIONDB_VERIFY_SEMANTICS_DEFAULT
    return FUSIONDB_VERIFY_SEMANTICS_DEFAULT != 0;
#else
    return false;
#endif
  }();
  return enabled;
}

namespace {

Status SemanticViolation(const char* tag, std::string detail) {
  return Status::PlanError("[" + std::string(tag) + "] " + std::move(detail));
}

Status Contextualize(Status st, std::string_view context) {
  if (st.ok()) return st;
  std::string where =
      context.empty() ? std::string() : " (" + std::string(context) + ")";
  return Status(st.code(), "semantic verification failed" + where + ": " +
                               st.message());
}

/// Order-insensitive hash of an enforced-conjunct set (FNV-1a over the
/// sorted structural hashes), keying the walk memo per filter context.
uint64_t ContextHash(const std::vector<ExprPtr>& enforced) {
  std::vector<uint64_t> hashes;
  hashes.reserve(enforced.size());
  for (const ExprPtr& e : enforced) hashes.push_back(e->hash());
  std::sort(hashes.begin(), hashes.end());
  uint64_t h = 14695981039346656037ULL;
  for (uint64_t x : hashes) {
    h ^= x;
    h *= 1099511628211ULL;
  }
  return h;
}

/// The conjuncts of `enforced` fully expressible over `schema` (plan-wide
/// ColumnIds make "same id" mean "same column").
std::vector<ExprPtr> Resolvable(const std::vector<ExprPtr>& enforced,
                                const Schema& schema) {
  std::vector<ExprPtr> kept;
  for (const ExprPtr& e : enforced) {
    std::vector<ColumnId> cols;
    CollectColumns(e, &cols);
    bool ok = true;
    for (ColumnId id : cols) {
      if (!schema.Contains(id)) {
        ok = false;
        break;
      }
    }
    if (ok) kept.push_back(e);
  }
  return kept;
}

/// ColumnId of the scan output column holding the table's partition column,
/// or kInvalidColumnId when the partition column is not scanned.
ColumnId PartitionOutputColumn(const ScanOp& scan) {
  int pc = scan.table()->partition_column();
  if (pc < 0) return kInvalidColumnId;
  for (size_t i = 0; i < scan.table_columns().size(); ++i) {
    if (scan.table_columns()[i] == pc) return scan.schema().column(i).id;
  }
  return kInvalidColumnId;
}

std::string DescribeConjuncts(const std::vector<ExprPtr>& conjuncts) {
  if (conjuncts.empty()) return "TRUE";
  std::string out;
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    if (i > 0) out += " AND ";
    out += conjuncts[i]->ToString();
  }
  return out;
}

}  // namespace

Status SemanticVerifier::CheckScan(const PlanPtr& node,
                                   const std::vector<ExprPtr>& enforced,
                                   bool is_root) {
  const ScanOp& scan = Cast<ScanOp>(*node);
  const ExprPtr& pruning = scan.pruning_filter();
  if (pruning == nullptr || IsTrueLiteral(pruning)) return Status::OK();

  std::vector<ExprPtr> prune_conjuncts;
  SplitConjuncts(pruning, &prune_conjuncts);
  ColumnId partition_col = PartitionOutputColumn(scan);

  // Monotonicity: partition pruning evaluates each conjunct against the
  // partition column's [min,max]; a conjunct on that column whose truth is
  // not decidable from the range could drop partitions holding satisfying
  // rows.
  for (const ExprPtr& c : prune_conjuncts) {
    std::vector<ColumnId> cols;
    CollectColumns(c, &cols);
    std::sort(cols.begin(), cols.end());
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
    bool on_partition_column =
        cols.size() == 1 && cols[0] == partition_col &&
        partition_col != kInvalidColumnId;
    if (on_partition_column && !IsMonotone(c)) {
      return SemanticViolation(
          "semantic-pruning-nonmonotone",
          "scan of '" + scan.table()->name() + "' prunes on " + c->ToString() +
              ", which is not monotone in the partition column #" +
              std::to_string(partition_col));
    }
  }

  // Implication: the fused-scan contract drops pruning from shared scans
  // and relies on the filters enforced above to re-establish it, so every
  // pruning conjunct must follow from those filters (plus the scan's own
  // data domain, e.g. the partition hull). A verify rooted *at* the scan
  // has its enforcing filter outside the verified subtree (the
  // push-into-scan contract keeps it directly above); defer to the
  // enclosing full-plan verification.
  if (is_root) return Status::OK();
  ExprPtr premise = CombineConjuncts(enforced);
  const DomainMap& ambient = props_.Derive(node).domains;
  for (const ExprPtr& c : prune_conjuncts) {
    if (!Implies(premise, c, &ambient)) {
      return SemanticViolation(
          "semantic-pruning-unimplied",
          "scan of '" + scan.table()->name() + "' prunes on " + c->ToString() +
              " but the filters enforced above it (" +
              DescribeConjuncts(enforced) + ") do not imply it");
    }
  }
  return Status::OK();
}

Status SemanticVerifier::WalkTree(const PlanPtr& node,
                                  const std::vector<ExprPtr>& enforced,
                                  bool is_root) {
  if (node == nullptr) return Status::OK();  // structural tier's problem
  uint64_t ctx_hash = ContextHash(enforced) ^ (is_root ? 0x9e3779b97f4a7c15ULL : 0);
  std::vector<uint64_t>& seen = walked_[node.get()];
  if (std::find(seen.begin(), seen.end(), ctx_hash) != seen.end()) {
    return Status::OK();
  }

  Status local = Status::OK();
  switch (node->kind()) {
    case OpKind::kScan:
      local = CheckScan(node, enforced, is_root);
      break;
    case OpKind::kEnforceSingleRow: {
      const PlanProps& child = props_.Derive(node->child(0));
      if (child.rows.min > 1) {
        local = SemanticViolation(
            "semantic-single-row-impossible",
            "EnforceSingleRow over a subtree that always produces at least " +
                std::to_string(child.rows.min) + " rows (" +
                PropsToString(child) + ")");
      }
      break;
    }
    case OpKind::kFilter:
    case OpKind::kProject:
    case OpKind::kJoin:
    case OpKind::kAggregate:
    case OpKind::kWindow:
    case OpKind::kUnionAll:
    case OpKind::kValues:
    case OpKind::kSort:
    case OpKind::kLimit:
    case OpKind::kApply:
    case OpKind::kSpool:
      break;
  }
  if (!local.ok()) {
    return Status(local.code(), local.message() + "\noffending subplan:\n" +
                                    PlanToString(node));
  }

  // Descend, transforming the enforced-filter context. Only operators that
  // pass rows through unchanged may forward it: row-merging operators
  // (aggregation, windows, distinct marking, limits, apply, union) make
  // "a filter above would have dropped this row anyway" unsound for rows
  // feeding other rows' results, so the context resets there.
  switch (node->kind()) {
    case OpKind::kFilter: {
      std::vector<ExprPtr> next = enforced;
      SplitConjuncts(Cast<FilterOp>(*node).predicate(), &next);
      FUSIONDB_RETURN_IF_ERROR(WalkTree(node->child(0), next, false));
      break;
    }
    case OpKind::kProject:
    case OpKind::kSort:
    case OpKind::kSpool:
      FUSIONDB_RETURN_IF_ERROR(WalkTree(
          node->child(0), Resolvable(enforced, node->child(0)->schema()),
          false));
      break;
    case OpKind::kJoin: {
      const JoinOp& join = Cast<JoinOp>(*node);
      bool inner_like = join.join_type() == JoinType::kInner ||
                        join.join_type() == JoinType::kCross;
      FUSIONDB_RETURN_IF_ERROR(WalkTree(
          join.left(), Resolvable(enforced, join.left()->schema()), false));
      FUSIONDB_RETURN_IF_ERROR(WalkTree(
          join.right(),
          inner_like ? Resolvable(enforced, join.right()->schema())
                     : std::vector<ExprPtr>{},
          false));
      break;
    }
    case OpKind::kScan:
    case OpKind::kValues:
      break;
    case OpKind::kAggregate:
    case OpKind::kWindow:
    case OpKind::kUnionAll:
    case OpKind::kLimit:
    case OpKind::kEnforceSingleRow:
    case OpKind::kApply:
      for (const PlanPtr& child : node->children()) {
        FUSIONDB_RETURN_IF_ERROR(WalkTree(child, {}, false));
      }
      break;
  }

  walked_[node.get()].push_back(ctx_hash);
  keepalive_.push_back(node);
  return Status::OK();
}

Status SemanticVerifier::Verify(const PlanPtr& plan, std::string_view context) {
  ++plans_verified_;
  return Contextualize(WalkTree(plan, {}, /*is_root=*/true), context);
}

Status SemanticVerifier::CheckObligations(SemanticLedger* ledger,
                                          std::string_view context) {
  if (ledger == nullptr) return Status::OK();
  for (const KeyObligation& o : ledger->TakeKeys()) {
    ++obligations_checked_;
    const PlanProps& props = props_.Derive(o.plan);
    if (!props.HasKey(o.columns)) {
      std::string cols;
      for (size_t i = 0; i < o.columns.size(); ++i) {
        if (i > 0) cols += " ";
        cols += "#" + std::to_string(o.columns[i]);
      }
      return Contextualize(
          Status::PlanError(
              "[semantic-key-obligation] rule '" + o.rule +
              "' requires columns (" + cols +
              ") to form a key of the subtree, but derived properties (" +
              PropsToString(props) + ") do not cover it\noffending subplan:\n" +
              PlanToString(o.plan)),
          context);
    }
  }
  for (const ImplicationObligation& o : ledger->TakeImplications()) {
    ++obligations_checked_;
    const DomainMap& ambient = props_.Derive(o.scope).domains;
    if (!Implies(o.premise, o.conclusion, &ambient)) {
      return Contextualize(
          Status::PlanError(
              "[semantic-filter-implication] rule '" + o.rule + "' kept " +
              (o.premise == nullptr ? std::string("TRUE")
                                    : o.premise->ToString()) +
              " in place of " +
              (o.conclusion == nullptr ? std::string("TRUE")
                                       : o.conclusion->ToString()) +
              ", but the former (with the subtree's derived domain) does not "
              "imply the latter\noffending subplan:\n" +
              PlanToString(o.scope)),
          context);
    }
  }
  return Status::OK();
}

Status SemanticVerifier::VerifyConsumer(const PlanPtr& fused,
                                        const ExprPtr& filter,
                                        const ColumnMap& mapping,
                                        const Schema& member_output,
                                        std::string_view context) {
  ++obligations_checked_;
  if (filter != nullptr) {
    Status st = ExprTypeChecker(fused->schema()).CheckBoolean(filter, "consumer-filter");
    if (!st.ok()) {
      return Contextualize(
          Status::PlanError(
              "[semantic-consumer-filter] compensating filter " +
              filter->ToString() + " is not valid over the fused schema: " +
              st.message()),
          context);
    }
  }
  for (const ColumnInfo& c : member_output.columns()) {
    ColumnId target = ApplyMap(mapping, c.id);
    int idx = fused->schema().IndexOf(target);
    if (idx < 0) {
      return Contextualize(
          Status::PlanError("[semantic-consumer-filter] member column #" +
                            std::to_string(c.id) + " maps to #" +
                            std::to_string(target) +
                            ", which the fused plan does not produce"),
          context);
    }
    if (fused->schema().column(idx).type != c.type) {
      return Contextualize(
          Status::PlanError(
              "[semantic-consumer-filter] member column #" +
              std::to_string(c.id) + " maps to #" + std::to_string(target) +
              " of a different type in the fused plan"),
          context);
    }
  }
  return Status::OK();
}

Status VerifySemanticsIfEnabled(const PlanPtr& plan, std::string_view context) {
  if (!SemanticVerificationEnabled()) return Status::OK();
  SemanticVerifier verifier;
  return verifier.Verify(plan, context);
}

}  // namespace fusiondb
