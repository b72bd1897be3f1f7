#include "plan/plan_printer.h"

#include <sstream>

#include "plan/spool.h"

namespace fusiondb {

namespace {

/// The verifier pretty-prints malformed subplans, so the printer must
/// tolerate null expressions instead of dereferencing them.
std::string ExprStr(const ExprPtr& e) {
  return e == nullptr ? "<null>" : e->ToString();
}

void PrintNode(const PlanPtr& plan, int indent, std::ostream& os,
               const PlanAnnotator& annotate, int* counter) {
  int preorder_index = (*counter)++;
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  os << pad << OpKindName(plan->kind());
  switch (plan->kind()) {
    case OpKind::kScan: {
      const auto& scan = Cast<ScanOp>(*plan);
      os << "(" << scan.table()->name() << ")";
      break;
    }
    case OpKind::kFilter:
      os << " " << ExprStr(Cast<FilterOp>(*plan).predicate());
      break;
    case OpKind::kProject: {
      const auto& proj = Cast<ProjectOp>(*plan);
      os << " [";
      for (size_t i = 0; i < proj.exprs().size(); ++i) {
        if (i > 0) os << ", ";
        const NamedExpr& e = proj.exprs()[i];
        os << e.name << "#" << e.id << ":=" << ExprStr(e.expr);
      }
      os << "]";
      break;
    }
    case OpKind::kJoin: {
      const auto& join = Cast<JoinOp>(*plan);
      os << "(" << JoinTypeName(join.join_type()) << ") on "
         << ExprStr(join.condition());
      break;
    }
    case OpKind::kAggregate: {
      const auto& agg = Cast<AggregateOp>(*plan);
      os << " group=[";
      for (size_t i = 0; i < agg.group_by().size(); ++i) {
        if (i > 0) os << ", ";
        os << "#" << agg.group_by()[i];
      }
      os << "] aggs=[";
      for (size_t i = 0; i < agg.aggregates().size(); ++i) {
        if (i > 0) os << ", ";
        const AggregateItem& a = agg.aggregates()[i];
        os << a.name << "#" << a.id << ":=" << AggFuncName(a.func);
        if (a.distinct) os << " distinct";
        if (a.arg != nullptr) os << "(" << a.arg->ToString() << ")";
        if (a.mask != nullptr) os << " mask " << a.mask->ToString();
      }
      os << "]";
      break;
    }
    case OpKind::kWindow: {
      const auto& win = Cast<WindowOp>(*plan);
      os << " partition=[";
      for (size_t i = 0; i < win.partition_by().size(); ++i) {
        if (i > 0) os << ", ";
        os << "#" << win.partition_by()[i];
      }
      os << "] items=[";
      for (size_t i = 0; i < win.items().size(); ++i) {
        if (i > 0) os << ", ";
        const WindowItem& w = win.items()[i];
        os << w.name << "#" << w.id << ":=" << AggFuncName(w.func);
        if (w.arg != nullptr) os << "(" << w.arg->ToString() << ")";
        if (w.mask != nullptr) os << " mask " << w.mask->ToString();
      }
      os << "]";
      break;
    }
    case OpKind::kValues: {
      os << " rows=" << Cast<ValuesOp>(*plan).rows().size();
      break;
    }
    case OpKind::kLimit:
      os << " " << Cast<LimitOp>(*plan).limit();
      break;
    case OpKind::kSpool:
      os << " id=" << Cast<SpoolOp>(*plan).spool_id();
      break;
    case OpKind::kApply: {
      const auto& apply = Cast<ApplyOp>(*plan);
      os << " corr=[";
      for (size_t i = 0; i < apply.correlation().size(); ++i) {
        if (i > 0) os << ", ";
        os << "#" << apply.correlation()[i].first << "=#"
           << apply.correlation()[i].second;
      }
      os << "]";
      break;
    }
    case OpKind::kUnionAll:
    case OpKind::kSort:
    case OpKind::kEnforceSingleRow:
      break;  // nothing beyond the kind name and schema
  }
  os << "  -> " << plan->schema().ToString();
  if (annotate != nullptr) os << annotate(*plan, preorder_index);
  os << "\n";
  for (const PlanPtr& c : plan->children()) {
    PrintNode(c, indent + 1, os, annotate, counter);
  }
}

}  // namespace

std::string PlanToString(const PlanPtr& plan) {
  return PlanToString(plan, PlanAnnotator());
}

std::string PlanToString(const PlanPtr& plan, const PlanAnnotator& annotate) {
  std::ostringstream os;
  int counter = 0;
  PrintNode(plan, 0, os, annotate, &counter);
  return os.str();
}

int CountOps(const PlanPtr& plan, OpKind kind) {
  int n = plan->kind() == kind ? 1 : 0;
  for (const PlanPtr& c : plan->children()) n += CountOps(c, kind);
  return n;
}

int CountTableScans(const PlanPtr& plan, const std::string& table_name) {
  int n = 0;
  if (plan->kind() == OpKind::kScan &&
      Cast<ScanOp>(*plan).table()->name() == table_name) {
    n = 1;
  }
  for (const PlanPtr& c : plan->children()) {
    n += CountTableScans(c, table_name);
  }
  return n;
}

int CountAllOps(const PlanPtr& plan) {
  int n = 1;
  for (const PlanPtr& c : plan->children()) n += CountAllOps(c);
  return n;
}

}  // namespace fusiondb
