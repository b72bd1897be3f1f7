#include "plan/plan_fingerprint.h"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "plan/spool.h"

namespace fusiondb {

namespace {

/// ColumnId -> structural ordinal. Ordinals are handed out in a
/// deterministic walk, so equal plans (up to renumbering) build equal maps.
class ColumnCanon {
 public:
  int Define(ColumnId id) {
    auto [it, inserted] = map_.emplace(id, next_);
    if (inserted) ++next_;
    return it->second;
  }

  /// Ordinal for a referenced column. References to columns no pass has
  /// defined (unbound plans) still canonicalize: the first reference in
  /// serialization order defines the ordinal.
  int Resolve(ColumnId id) { return Define(id); }

 private:
  std::unordered_map<ColumnId, int> map_;
  int next_ = 0;
};

/// Pass 1: walk children-first, left-to-right, defining every column each
/// operator *introduces* in schema order. After this pass every column a
/// parent can reference has a structural ordinal.
void AssignDefinitions(const LogicalOp& op, ColumnCanon* canon) {
  for (const PlanPtr& c : op.children()) AssignDefinitions(*c, canon);
  switch (op.kind()) {
    case OpKind::kScan:
    case OpKind::kValues:
      for (const ColumnInfo& c : op.schema().columns()) canon->Define(c.id);
      break;
    case OpKind::kProject:
      for (const NamedExpr& e : Cast<ProjectOp>(op).exprs()) {
        canon->Define(e.id);
      }
      break;
    case OpKind::kAggregate:
      for (const AggregateItem& a : Cast<AggregateOp>(op).aggregates()) {
        canon->Define(a.id);
      }
      break;
    case OpKind::kWindow:
      for (const WindowItem& w : Cast<WindowOp>(op).items()) {
        canon->Define(w.id);
      }
      break;
    case OpKind::kMarkDistinct:
      canon->Define(Cast<MarkDistinctOp>(op).marker());
      break;
    case OpKind::kUnionAll:
      for (const ColumnInfo& c : op.schema().columns()) canon->Define(c.id);
      break;
    case OpKind::kFilter:
    case OpKind::kJoin:
    case OpKind::kSort:
    case OpKind::kLimit:
    case OpKind::kEnforceSingleRow:
    case OpKind::kApply:
    case OpKind::kSpool:
      break;  // pass-through schemas introduce no columns
  }
}

std::string CanonExpr(const ExprPtr& e, ColumnCanon* canon);

/// Exact, unambiguous literal text: doubles in shortest round-trip form
/// (Value::ToString rounds them to 6 significant digits) and strings
/// length-prefixed, so distinct values never serialize alike.
std::string CanonLiteral(const Value& v) {
  if (v.is_null()) return "NULL";
  switch (v.type()) {
    case DataType::kFloat64: {
      char buf[64];
      auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v.double_value());
      FUSIONDB_CHECK(ec == std::errc(), "double does not serialize");
      return std::string(buf, end);
    }
    case DataType::kString:
      return "s" + std::to_string(v.string_value().size()) + ":" +
             v.string_value();
    case DataType::kBool:
    case DataType::kInt64:
    case DataType::kDate:
      return v.ToString();
  }
  return v.ToString();
}

std::string CanonExprOrNull(const ExprPtr& e, ColumnCanon* canon) {
  return e == nullptr ? std::string("_") : CanonExpr(e, canon);
}

/// Canonical expression serialization with ordinal column references.
/// Canonicalizes like the structural expression hash (sorted, deduplicated
/// AND/OR operands, oriented comparisons and commutative arithmetic, sorted
/// IN items), but orders by serialized text rather than by hash: ordinals
/// replace ColumnIds here, so the ids' hashes would not be stable.
std::string CanonExpr(const ExprPtr& e, ColumnCanon* canon) {
  std::ostringstream os;
  switch (e->kind()) {
    case ExprKind::kColumnRef:
      os << "c" << canon->Resolve(e->column_id());
      break;
    case ExprKind::kLiteral:
      os << "lit" << static_cast<int>(e->type()) << ":"
         << CanonLiteral(e->literal());
      break;
    case ExprKind::kCompare: {
      std::string l = CanonExpr(e->child(0), canon);
      std::string r = CanonExpr(e->child(1), canon);
      CompareOp op = e->compare_op();
      if (r < l) {
        std::swap(l, r);
        switch (op) {
          case CompareOp::kLt:
            op = CompareOp::kGt;
            break;
          case CompareOp::kLe:
            op = CompareOp::kGe;
            break;
          case CompareOp::kGt:
            op = CompareOp::kLt;
            break;
          case CompareOp::kGe:
            op = CompareOp::kLe;
            break;
          case CompareOp::kEq:
          case CompareOp::kNe:
            break;
        }
      }
      os << "cmp" << static_cast<int>(op) << "(" << l << "," << r << ")";
      break;
    }
    case ExprKind::kArith: {
      std::string l = CanonExpr(e->child(0), canon);
      std::string r = CanonExpr(e->child(1), canon);
      ArithOp op = e->arith_op();
      if ((op == ArithOp::kAdd || op == ArithOp::kMul) && r < l) {
        std::swap(l, r);
      }
      os << "ari" << static_cast<int>(op) << "(" << l << "," << r << ")";
      break;
    }
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      std::vector<std::string> parts;
      parts.reserve(e->children().size());
      for (const ExprPtr& c : e->children()) {
        parts.push_back(CanonExpr(c, canon));
      }
      std::sort(parts.begin(), parts.end());
      parts.erase(std::unique(parts.begin(), parts.end()), parts.end());
      os << (e->kind() == ExprKind::kAnd ? "and(" : "or(");
      for (size_t i = 0; i < parts.size(); ++i) {
        if (i > 0) os << ",";
        os << parts[i];
      }
      os << ")";
      break;
    }
    case ExprKind::kNot:
      os << "not(" << CanonExpr(e->child(0), canon) << ")";
      break;
    case ExprKind::kIsNull:
      os << "isnull(" << CanonExpr(e->child(0), canon) << ")";
      break;
    case ExprKind::kCase: {
      os << "case(";
      for (size_t i = 0; i < e->children().size(); ++i) {
        if (i > 0) os << ",";
        os << CanonExpr(e->child(i), canon);
      }
      os << ")";
      break;
    }
    case ExprKind::kInList: {
      os << "in(" << CanonExpr(e->child(0), canon) << ";";
      std::vector<std::string> parts;
      for (size_t i = 1; i < e->children().size(); ++i) {
        parts.push_back(CanonExpr(e->child(i), canon));
      }
      std::sort(parts.begin(), parts.end());
      for (size_t i = 0; i < parts.size(); ++i) {
        if (i > 0) os << ",";
        os << parts[i];
      }
      os << ")";
      break;
    }
  }
  return os.str();
}

/// Pass 2: pre-order serialization of every operator's kind + parameters
/// with ordinal column references, children appended in parentheses.
void Serialize(const LogicalOp& op, ColumnCanon* canon, std::ostringstream* os) {
  switch (op.kind()) {
    case OpKind::kScan: {
      const auto& scan = Cast<ScanOp>(op);
      *os << "Scan{" << scan.table()->name() << ";";
      for (size_t i = 0; i < scan.table_columns().size(); ++i) {
        if (i > 0) *os << ",";
        *os << scan.table_columns()[i] << "=c"
            << canon->Resolve(scan.schema().column(i).id);
      }
      if (scan.pruning_filter() != nullptr) {
        *os << ";prune=" << CanonExpr(scan.pruning_filter(), canon);
      }
      *os << "}";
      break;
    }
    case OpKind::kFilter:
      *os << "Filter{" << CanonExpr(Cast<FilterOp>(op).predicate(), canon)
          << "}";
      break;
    case OpKind::kProject: {
      *os << "Project{";
      bool first = true;
      for (const NamedExpr& e : Cast<ProjectOp>(op).exprs()) {
        if (!first) *os << ",";
        first = false;
        *os << "c" << canon->Resolve(e.id) << "=" << CanonExpr(e.expr, canon);
      }
      *os << "}";
      break;
    }
    case OpKind::kJoin: {
      const auto& join = Cast<JoinOp>(op);
      *os << "Join{" << JoinTypeName(join.join_type()) << ";"
          << CanonExprOrNull(join.condition(), canon) << "}";
      break;
    }
    case OpKind::kAggregate: {
      const auto& agg = Cast<AggregateOp>(op);
      *os << "Agg{g=";
      for (size_t i = 0; i < agg.group_by().size(); ++i) {
        if (i > 0) *os << ",";
        *os << "c" << canon->Resolve(agg.group_by()[i]);
      }
      *os << ";";
      bool first = true;
      for (const AggregateItem& a : agg.aggregates()) {
        if (!first) *os << ",";
        first = false;
        *os << "c" << canon->Resolve(a.id) << "=" << AggFuncName(a.func)
            << (a.distinct ? "!d" : "") << "("
            << CanonExprOrNull(a.arg, canon) << "|"
            << CanonExprOrNull(a.mask, canon) << ")";
      }
      *os << "}";
      break;
    }
    case OpKind::kWindow: {
      const auto& win = Cast<WindowOp>(op);
      *os << "Window{p=";
      for (size_t i = 0; i < win.partition_by().size(); ++i) {
        if (i > 0) *os << ",";
        *os << "c" << canon->Resolve(win.partition_by()[i]);
      }
      *os << ";";
      bool first = true;
      for (const WindowItem& w : win.items()) {
        if (!first) *os << ",";
        first = false;
        *os << "c" << canon->Resolve(w.id) << "=" << AggFuncName(w.func)
            << "(" << CanonExprOrNull(w.arg, canon) << "|"
            << CanonExprOrNull(w.mask, canon) << ")";
      }
      *os << "}";
      break;
    }
    case OpKind::kMarkDistinct: {
      const auto& md = Cast<MarkDistinctOp>(op);
      *os << "MarkDistinct{c" << canon->Resolve(md.marker()) << ";";
      for (size_t i = 0; i < md.distinct_columns().size(); ++i) {
        if (i > 0) *os << ",";
        *os << "c" << canon->Resolve(md.distinct_columns()[i]);
      }
      *os << "}";
      break;
    }
    case OpKind::kUnionAll: {
      const auto& u = Cast<UnionAllOp>(op);
      *os << "UnionAll{";
      for (size_t c = 0; c < u.input_columns().size(); ++c) {
        if (c > 0) *os << ";";
        for (size_t o = 0; o < u.input_columns()[c].size(); ++o) {
          if (o > 0) *os << ",";
          *os << "c" << canon->Resolve(u.input_columns()[c][o]);
        }
      }
      *os << "->";
      for (size_t i = 0; i < u.schema().num_columns(); ++i) {
        if (i > 0) *os << ",";
        *os << "c" << canon->Resolve(u.schema().column(i).id);
      }
      *os << "}";
      break;
    }
    case OpKind::kValues: {
      const auto& v = Cast<ValuesOp>(op);
      *os << "Values{";
      for (size_t i = 0; i < v.schema().num_columns(); ++i) {
        if (i > 0) *os << ",";
        *os << "c" << canon->Resolve(v.schema().column(i).id) << ":"
            << static_cast<int>(v.schema().column(i).type);
      }
      *os << ";";
      for (size_t r = 0; r < v.rows().size(); ++r) {
        if (r > 0) *os << "|";
        for (size_t c = 0; c < v.rows()[r].size(); ++c) {
          if (c > 0) *os << ",";
          *os << CanonLiteral(v.rows()[r][c]);
        }
      }
      *os << "}";
      break;
    }
    case OpKind::kSort: {
      *os << "Sort{";
      bool first = true;
      for (const SortKey& k : Cast<SortOp>(op).keys()) {
        if (!first) *os << ",";
        first = false;
        *os << "c" << canon->Resolve(k.column) << (k.ascending ? "+" : "-");
      }
      *os << "}";
      break;
    }
    case OpKind::kLimit:
      *os << "Limit{" << Cast<LimitOp>(op).limit() << "}";
      break;
    case OpKind::kEnforceSingleRow:
      *os << "Single{}";
      break;
    case OpKind::kApply: {
      *os << "Apply{";
      bool first = true;
      for (const auto& [outer, inner] : Cast<ApplyOp>(op).correlation()) {
        if (!first) *os << ",";
        first = false;
        *os << "c" << canon->Resolve(outer) << "=c" << canon->Resolve(inner);
      }
      *os << "}";
      break;
    }
    case OpKind::kSpool:
      // Spool ids are allocation order, not structure: two optimizer runs
      // over the same query may number them differently. Omit them.
      *os << "Spool{}";
      break;
  }
  *os << "(";
  bool first = true;
  for (const PlanPtr& c : op.children()) {
    if (!first) *os << ";";
    first = false;
    Serialize(*c, canon, os);
  }
  *os << ")";
}

}  // namespace

std::string PlanCanonicalString(const PlanPtr& plan) {
  FUSIONDB_CHECK(plan != nullptr, "fingerprint of null plan");
  ColumnCanon canon;
  AssignDefinitions(*plan, &canon);
  std::ostringstream os;
  Serialize(*plan, &canon, &os);
  return os.str();
}

uint64_t PlanFingerprint(const PlanPtr& plan) {
  return CanonicalStringFingerprint(PlanCanonicalString(plan));
}

uint64_t CanonicalStringFingerprint(std::string_view canonical) {
  uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a 64-bit offset basis
  for (unsigned char c : canonical) {
    hash ^= c;
    hash *= 0x100000001b3ULL;  // FNV prime
  }
  return hash;
}

std::string FingerprintToString(uint64_t fingerprint) {
  static const char* kHex = "0123456789abcdef";
  std::string out = "fp:";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out += kHex[(fingerprint >> shift) & 0xF];
  }
  return out;
}

}  // namespace fusiondb
