#include "analysis/semantic_verifier.h"

#include <cstdlib>
#include <string>

#include "analysis/expr_type_checker.h"
#include "plan/plan_printer.h"

namespace fusiondb {

bool SemanticVerificationEnabled() {
  static const bool enabled = [] {
    const char* env = std::getenv("FUSIONDB_VERIFY_SEMANTICS");
    return env != nullptr && env[0] != '0';
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

}  // namespace

Status SemanticVerifier::WalkTree(const PlanPtr& node) {
  if (node == nullptr) return Status::OK();  // structural tier's problem
  if (walked_.count(node.get()) > 0) return Status::OK();

  if (node->kind() == OpKind::kEnforceSingleRow) {
    const PlanProps& child = props_.Derive(node->child(0));
    if (child.rows.min > 1) {
      return SemanticViolation(
          "semantic-single-row-impossible",
          "EnforceSingleRow over a subtree that always produces at least " +
              std::to_string(child.rows.min) + " rows (" +
              PropsToString(child) + ")\noffending subplan:\n" +
              PlanToString(node));
    }
  }
  for (const PlanPtr& child : node->children()) {
    FUSIONDB_RETURN_IF_ERROR(WalkTree(child));
  }
  walked_.insert(node.get());
  keepalive_.push_back(node);
  return Status::OK();
}

Status SemanticVerifier::Verify(const PlanPtr& plan, std::string_view context) {
  ++plans_verified_;
  return Contextualize(WalkTree(plan), context);
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
