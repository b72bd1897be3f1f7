#include "expr/column_map.h"

namespace fusiondb {

ExprPtr ApplyMap(const ColumnMap& m, const ExprPtr& expr) {
  if (m.empty()) return expr;
  switch (expr->kind()) {
    case ExprKind::kColumnRef: {
      auto it = m.find(expr->column_id());
      if (it == m.end()) return expr;
      return Expr::MakeColumnRef(it->second, expr->type());
    }
    case ExprKind::kLiteral:
      return expr;
    case ExprKind::kCompare:
    case ExprKind::kArith:
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kNot:
    case ExprKind::kIsNull:
    case ExprKind::kCase:
    case ExprKind::kInList:
      break;  // recurse into children below
  }
  bool changed = false;
  std::vector<ExprPtr> new_children;
  new_children.reserve(expr->children().size());
  for (const ExprPtr& c : expr->children()) {
    ExprPtr nc = ApplyMap(m, c);
    changed |= (nc != c);
    new_children.push_back(std::move(nc));
  }
  return changed ? Expr::WithChildren(expr, std::move(new_children)) : expr;
}

ExprPtr SubstituteColumns(const ColumnDefs& defs, const ExprPtr& expr) {
  switch (expr->kind()) {
    case ExprKind::kColumnRef: {
      auto it = defs.find(expr->column_id());
      if (it == defs.end()) return nullptr;
      return it->second;
    }
    case ExprKind::kLiteral:
      return expr;
    case ExprKind::kCompare:
    case ExprKind::kArith:
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kNot:
    case ExprKind::kIsNull:
    case ExprKind::kCase:
    case ExprKind::kInList:
      break;  // recurse into children below
  }
  bool changed = false;
  std::vector<ExprPtr> new_children;
  new_children.reserve(expr->children().size());
  for (const ExprPtr& c : expr->children()) {
    ExprPtr nc = SubstituteColumns(defs, c);
    if (nc == nullptr) return nullptr;
    changed |= (nc != c);
    new_children.push_back(std::move(nc));
  }
  return changed ? Expr::WithChildren(expr, std::move(new_children)) : expr;
}

bool MergeMaps(ColumnMap* base, const ColumnMap& extra) {
  for (const auto& [from, to] : extra) {
    auto it = base->find(from);
    if (it != base->end() && it->second != to) return false;
    (*base)[from] = to;
  }
  return true;
}

}  // namespace fusiondb
