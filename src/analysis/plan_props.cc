#include "analysis/plan_props.h"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "catalog/table.h"
#include "expr/simplifier.h"
#include "plan/spool.h"

namespace fusiondb {

namespace {

bool SameClass(const Value& a, const Value& b) {
  return PhysicalTypeOf(a.type()) == PhysicalTypeOf(b.type());
}

/// Raises `d`'s lower bound to (v, strict) when that is tighter. Bounds of
/// a different physical class than the held one are ignored (a well-typed
/// plan never produces them on one column).
void TightenLo(ColumnDomain* d, const Value& v, bool strict) {
  if (v.is_null()) return;
  if (d->lo.has && !SameClass(d->lo.value, v)) return;
  if (!d->lo.has) {
    d->lo = {true, strict, v};
    return;
  }
  int c = v.Compare(d->lo.value);
  if (c > 0 || (c == 0 && strict && !d->lo.strict)) d->lo = {true, strict, v};
}

void TightenHi(ColumnDomain* d, const Value& v, bool strict) {
  if (v.is_null()) return;
  if (d->hi.has && !SameClass(d->hi.value, v)) return;
  if (!d->hi.has) {
    d->hi = {true, strict, v};
    return;
  }
  int c = v.Compare(d->hi.value);
  if (c < 0 || (c == 0 && strict && !d->hi.strict)) d->hi = {true, strict, v};
}

/// Narrows `dst` with everything `src` establishes (conjunction of facts).
void IntersectInto(ColumnDomain* dst, const ColumnDomain& src) {
  dst->nullable = dst->nullable && src.nullable;
  if (src.lo.has) TightenLo(dst, src.lo.value, src.lo.strict);
  if (src.hi.has) TightenHi(dst, src.hi.value, src.hi.strict);
}

/// Widens `acc` to cover `d` as well (disjunction of facts).
void HullInto(ColumnDomain* acc, const ColumnDomain& d) {
  acc->nullable = acc->nullable || d.nullable;
  if (!acc->lo.has || !d.lo.has || !SameClass(acc->lo.value, d.lo.value)) {
    acc->lo = {};
  } else {
    int c = d.lo.value.Compare(acc->lo.value);
    if (c < 0 || (c == 0 && !d.lo.strict)) acc->lo = d.lo;
  }
  if (!acc->hi.has || !d.hi.has || !SameClass(acc->hi.value, d.hi.value)) {
    acc->hi = {};
  } else {
    int c = d.hi.value.Compare(acc->hi.value);
    if (c > 0 || (c == 0 && !d.hi.strict)) acc->hi = d.hi;
  }
}

/// Matches `col OP literal` with the column on either side; normalizes so
/// the column is on the left.
bool AsColLitCompare(const Expr& e, ColumnId* col, CompareOp* op, Value* lit) {
  if (e.kind() != ExprKind::kCompare) return false;
  const ExprPtr& l = e.child(0);
  const ExprPtr& r = e.child(1);
  if (l->kind() == ExprKind::kColumnRef && r->kind() == ExprKind::kLiteral) {
    *col = l->column_id();
    *op = e.compare_op();
    *lit = r->literal();
    return true;
  }
  if (l->kind() == ExprKind::kLiteral && r->kind() == ExprKind::kColumnRef) {
    *col = r->column_id();
    *op = FlipCompare(e.compare_op());
    *lit = l->literal();
    return true;
  }
  return false;
}

bool IsBoolColumnRef(const Expr& e) {
  return e.kind() == ExprKind::kColumnRef && e.type() == DataType::kBool;
}

}  // namespace

void TightenDomains(const ExprPtr& conjunct, DomainMap* domains) {
  if (conjunct == nullptr) return;
  const Expr& e = *conjunct;
  switch (e.kind()) {
    case ExprKind::kAnd:
      for (const ExprPtr& c : e.children()) TightenDomains(c, domains);
      return;
    case ExprKind::kCompare: {
      ColumnId col;
      CompareOp op;
      Value lit;
      if (AsColLitCompare(e, &col, &op, &lit)) {
        if (lit.is_null()) return;  // NULL comparison is never TRUE
        ColumnDomain& d = (*domains)[col];
        d.nullable = false;
        switch (op) {
          case CompareOp::kEq:
            TightenLo(&d, lit, false);
            TightenHi(&d, lit, false);
            break;
          case CompareOp::kLt:
            TightenHi(&d, lit, true);
            break;
          case CompareOp::kLe:
            TightenHi(&d, lit, false);
            break;
          case CompareOp::kGt:
            TightenLo(&d, lit, true);
            break;
          case CompareOp::kGe:
            TightenLo(&d, lit, false);
            break;
          case CompareOp::kNe:
            break;
        }
        return;
      }
      if (e.child(0)->kind() == ExprKind::kColumnRef &&
          e.child(1)->kind() == ExprKind::kColumnRef) {
        // A TRUE comparison needs both operands non-NULL; an equality also
        // confines both columns to the intersection of their intervals.
        ColumnDomain& a = (*domains)[e.child(0)->column_id()];
        a.nullable = false;
        ColumnDomain& b = (*domains)[e.child(1)->column_id()];
        b.nullable = false;
        if (e.compare_op() == CompareOp::kEq) {
          ColumnDomain merged = a;
          IntersectInto(&merged, b);
          a = merged;
          b = merged;
        }
      }
      return;
    }
    case ExprKind::kNot: {
      const Expr& inner = *e.child(0);
      if (inner.kind() == ExprKind::kIsNull &&
          inner.child(0)->kind() == ExprKind::kColumnRef) {
        (*domains)[inner.child(0)->column_id()].nullable = false;
      } else if (IsBoolColumnRef(inner)) {
        ColumnDomain& d = (*domains)[inner.column_id()];
        d.nullable = false;
        TightenLo(&d, Value::Bool(false), false);
        TightenHi(&d, Value::Bool(false), false);
      }
      return;
    }
    case ExprKind::kColumnRef:
      if (e.type() == DataType::kBool) {
        ColumnDomain& d = (*domains)[e.column_id()];
        d.nullable = false;
        TightenLo(&d, Value::Bool(true), false);
        TightenHi(&d, Value::Bool(true), false);
      }
      return;
    case ExprKind::kInList: {
      if (e.child(0)->kind() != ExprKind::kColumnRef) return;
      Value lo, hi;
      bool first = true;
      for (size_t i = 1; i < e.children().size(); ++i) {
        const Expr& item = *e.child(i);
        if (item.kind() != ExprKind::kLiteral || item.literal().is_null()) {
          return;
        }
        const Value& v = item.literal();
        if (first) {
          lo = hi = v;
          first = false;
          continue;
        }
        if (!SameClass(lo, v)) return;
        if (v.Compare(lo) < 0) lo = v;
        if (v.Compare(hi) > 0) hi = v;
      }
      if (first) return;  // empty IN list is never TRUE
      ColumnDomain& d = (*domains)[e.child(0)->column_id()];
      d.nullable = false;
      TightenLo(&d, lo, false);
      TightenHi(&d, hi, false);
      return;
    }
    case ExprKind::kOr: {
      // Every row satisfies some branch, so each column that every branch
      // constrains lies in the hull of what the branches establish.
      DomainMap hull;
      TightenDomains(e.child(0), &hull);
      DomainMap branch_domains;
      for (size_t i = 1; i < e.children().size() && !hull.empty(); ++i) {
        branch_domains.clear();
        TightenDomains(e.child(i), &branch_domains);
        for (auto it = hull.begin(); it != hull.end();) {
          auto found = branch_domains.find(it->first);
          if (found == branch_domains.end()) {
            it = hull.erase(it);
            continue;
          }
          HullInto(&it->second, found->second);
          ++it;
        }
      }
      for (const auto& [col, d] : hull) IntersectInto(&(*domains)[col], d);
      return;
    }
    case ExprKind::kLiteral:
    case ExprKind::kArith:
    case ExprKind::kIsNull:
    case ExprKind::kCase:
      return;
  }
}

namespace {

/// True when no row can satisfy `d`: the column is proven non-NULL and
/// its bounds admit no value.
bool IsEmpty(const ColumnDomain& d) {
  if (d.nullable || !d.lo.has || !d.hi.has ||
      !SameClass(d.lo.value, d.hi.value)) {
    return false;
  }
  int c = d.lo.value.Compare(d.hi.value);
  return c > 0 || (c == 0 && (d.lo.strict || d.hi.strict));
}

/// `col cmp NULL` (either side), which is never TRUE.
bool ComparesWithNull(const Expr& e) {
  ColumnId col;
  CompareOp op;
  Value lit;
  return AsColLitCompare(e, &col, &op, &lit) && lit.is_null();
}

const ColumnDomain* FindDomain(const DomainMap& region, ColumnId col) {
  auto it = region.find(col);
  return it == region.end() ? nullptr : &it->second;
}

/// True when the facts in `region` alone force `e` to be TRUE.
bool RegionSatisfies(const Expr& e, const DomainMap& region) {
  switch (e.kind()) {
    case ExprKind::kLiteral:
      return e.IsLiteralBool(true);
    case ExprKind::kAnd:
      for (const ExprPtr& c : e.children()) {
        if (!RegionSatisfies(*c, region)) return false;
      }
      return true;
    case ExprKind::kOr:
      for (const ExprPtr& c : e.children()) {
        if (RegionSatisfies(*c, region)) return true;
      }
      return false;
    case ExprKind::kColumnRef: {
      if (e.type() != DataType::kBool) return false;
      const ColumnDomain* d = FindDomain(region, e.column_id());
      return d != nullptr && !d->nullable && d->IsSingleton() &&
             d->lo.value.type() == DataType::kBool && d->lo.value.bool_value();
    }
    case ExprKind::kNot: {
      const Expr& inner = *e.child(0);
      if (inner.kind() == ExprKind::kIsNull &&
          inner.child(0)->kind() == ExprKind::kColumnRef) {
        const ColumnDomain* d =
            FindDomain(region, inner.child(0)->column_id());
        return d != nullptr && !d->nullable;
      }
      if (IsBoolColumnRef(inner)) {
        const ColumnDomain* d = FindDomain(region, inner.column_id());
        return d != nullptr && !d->nullable && d->IsSingleton() &&
               d->lo.value.type() == DataType::kBool &&
               !d->lo.value.bool_value();
      }
      return false;
    }
    case ExprKind::kCompare: {
      ColumnId col;
      CompareOp op;
      Value lit;
      if (AsColLitCompare(e, &col, &op, &lit)) {
        if (lit.is_null()) return false;
        const ColumnDomain* d = FindDomain(region, col);
        if (d == nullptr || d->nullable) return false;
        switch (op) {
          case CompareOp::kEq:
            return d->IsSingleton() && SameClass(d->lo.value, lit) &&
                   d->lo.value.Compare(lit) == 0;
          case CompareOp::kLe:
            return d->hi.has && SameClass(d->hi.value, lit) &&
                   d->hi.value.Compare(lit) <= 0;
          case CompareOp::kLt: {
            if (!d->hi.has || !SameClass(d->hi.value, lit)) return false;
            int c = d->hi.value.Compare(lit);
            return c < 0 || (c == 0 && d->hi.strict);
          }
          case CompareOp::kGe:
            return d->lo.has && SameClass(d->lo.value, lit) &&
                   d->lo.value.Compare(lit) >= 0;
          case CompareOp::kGt: {
            if (!d->lo.has || !SameClass(d->lo.value, lit)) return false;
            int c = d->lo.value.Compare(lit);
            return c > 0 || (c == 0 && d->lo.strict);
          }
          case CompareOp::kNe: {
            if (d->hi.has && SameClass(d->hi.value, lit)) {
              int c = d->hi.value.Compare(lit);
              if (c < 0 || (c == 0 && d->hi.strict)) return true;
            }
            if (d->lo.has && SameClass(d->lo.value, lit)) {
              int c = d->lo.value.Compare(lit);
              if (c > 0 || (c == 0 && d->lo.strict)) return true;
            }
            return false;
          }
        }
        return false;
      }
      if (e.compare_op() == CompareOp::kEq &&
          e.child(0)->kind() == ExprKind::kColumnRef &&
          e.child(1)->kind() == ExprKind::kColumnRef) {
        const ColumnDomain* a = FindDomain(region, e.child(0)->column_id());
        const ColumnDomain* b = FindDomain(region, e.child(1)->column_id());
        return a != nullptr && b != nullptr && !a->nullable && !b->nullable &&
               a->IsSingleton() && b->IsSingleton() &&
               SameClass(a->lo.value, b->lo.value) &&
               a->lo.value.Compare(b->lo.value) == 0;
      }
      return false;
    }
    case ExprKind::kInList: {
      if (e.child(0)->kind() != ExprKind::kColumnRef) return false;
      const ColumnDomain* d = FindDomain(region, e.child(0)->column_id());
      if (d == nullptr || d->nullable || !d->IsSingleton()) return false;
      for (size_t i = 1; i < e.children().size(); ++i) {
        const Expr& item = *e.child(i);
        if (item.kind() != ExprKind::kLiteral || item.literal().is_null()) {
          continue;
        }
        if (SameClass(d->lo.value, item.literal()) &&
            d->lo.value.Compare(item.literal()) == 0) {
          return true;
        }
      }
      return false;
    }
    case ExprKind::kArith:
    case ExprKind::kIsNull:
    case ExprKind::kCase:
      return false;
  }
  return false;
}

}  // namespace

bool IsContradiction(const ExprPtr& raw) {
  ExprPtr expr = Simplify(raw);
  if (expr->IsLiteralBool(false) || expr->IsLiteralNull()) return true;
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(expr, &conjuncts);
  std::unordered_set<ExprPtr, ExprHash, ExprEq> negated;
  for (const ExprPtr& c : conjuncts) {
    if (c->kind() == ExprKind::kNot) negated.insert(c->child(0));
  }
  DomainMap domains;
  for (const ExprPtr& c : conjuncts) {
    if (negated.count(c) > 0 || ComparesWithNull(*c)) return true;
    TightenDomains(c, &domains);
  }
  for (const auto& [col, d] : domains) {
    if (IsEmpty(d)) return true;
  }
  return false;
}

bool Implies(const ExprPtr& premise, const ExprPtr& conclusion,
             const DomainMap* ambient) {
  if (conclusion == nullptr || IsTrueLiteral(conclusion)) return true;
  if (premise != nullptr && IsContradiction(premise)) return true;
  DomainMap region = ambient != nullptr ? *ambient : DomainMap{};
  std::unordered_set<ExprPtr, ExprHash, ExprEq> premise_conjuncts;
  if (premise != nullptr && !IsTrueLiteral(premise)) {
    std::vector<ExprPtr> pconj;
    SplitConjuncts(premise, &pconj);
    for (const ExprPtr& c : pconj) {
      TightenDomains(c, &region);
      premise_conjuncts.insert(c);
    }
  }
  std::vector<ExprPtr> cconj;
  SplitConjuncts(conclusion, &cconj);
  for (const ExprPtr& c : cconj) {
    if (IsTrueLiteral(c)) continue;
    if (premise_conjuncts.count(c) > 0) continue;
    if (!RegionSatisfies(*c, region)) return false;
  }
  return true;
}

std::vector<ExprPtr> DropImpliedConjuncts(const std::vector<ExprPtr>& conjuncts,
                                          const DomainMap& ambient) {
  std::vector<ExprPtr> kept;
  kept.reserve(conjuncts.size());
  for (const ExprPtr& c : conjuncts) {
    if (c != nullptr && !RegionSatisfies(*c, ambient)) kept.push_back(c);
  }
  return kept;
}

// ---------------------------------------------------------------------------
// PlanProps
// ---------------------------------------------------------------------------

bool PlanProps::HasKey(const std::vector<ColumnId>& cols) const {
  std::unordered_set<ColumnId> closure(cols.begin(), cols.end());
  bool grew = true;
  while (grew) {
    grew = false;
    for (const auto& [det, dep] : fds) {
      if (closure.count(dep) > 0) continue;
      bool covered = true;
      for (ColumnId d : det) {
        if (closure.count(d) == 0) {
          covered = false;
          break;
        }
      }
      if (covered) {
        closure.insert(dep);
        grew = true;
      }
    }
  }
  for (const std::vector<ColumnId>& key : keys) {
    bool subset = true;
    for (ColumnId c : key) {
      if (closure.count(c) == 0) {
        subset = false;
        break;
      }
    }
    if (subset) return true;
  }
  return false;
}

void PlanProps::AddKey(std::vector<ColumnId> key) {
  std::sort(key.begin(), key.end());
  key.erase(std::unique(key.begin(), key.end()), key.end());
  auto is_subset = [](const std::vector<ColumnId>& a,
                      const std::vector<ColumnId>& b) {
    return std::includes(b.begin(), b.end(), a.begin(), a.end());
  };
  for (const std::vector<ColumnId>& held : keys) {
    if (is_subset(held, key)) return;  // a held key already covers this
  }
  keys.erase(std::remove_if(keys.begin(), keys.end(),
                            [&](const std::vector<ColumnId>& held) {
                              return is_subset(key, held);
                            }),
             keys.end());
  if (keys.size() >= 4) return;  // cap: keep derivation linear
  keys.push_back(std::move(key));
}

// ---------------------------------------------------------------------------
// Per-operator derivation
// ---------------------------------------------------------------------------

namespace {

int64_t MulRows(int64_t a, int64_t b) {
  if (a < 0 || b < 0) return -1;
  if (a == 0 || b == 0) return 0;
  if (a > std::numeric_limits<int64_t>::max() / b) return -1;
  return a * b;
}

int64_t AddRows(int64_t a, int64_t b) {
  if (a < 0 || b < 0) return -1;
  if (a > std::numeric_limits<int64_t>::max() - b) return -1;
  return a + b;
}

/// Adds the "at most one row" key when the row bound proves it.
void NormalizeSingleRow(PlanProps* p) {
  if (p->rows.max >= 0 && p->rows.max <= 1) p->AddKey({});
}

PlanProps DeriveScan(const ScanOp& scan) {
  PlanProps p;
  const Table& table = *scan.table();
  int64_t n = table.num_rows();
  p.rows = {n, n};
  const std::vector<int>& pk = table.primary_key();
  if (!pk.empty()) {
    std::vector<ColumnId> key;
    bool all_scanned = true;
    for (int table_col : pk) {
      int out_idx = -1;
      for (size_t i = 0; i < scan.table_columns().size(); ++i) {
        if (scan.table_columns()[i] == table_col) {
          out_idx = static_cast<int>(i);
          break;
        }
      }
      if (out_idx < 0) {
        all_scanned = false;
        break;
      }
      key.push_back(scan.schema().column(out_idx).id);
    }
    if (all_scanned) p.AddKey(std::move(key));
  }
  // The partition column's values are confined to the hull of the
  // per-partition [min_key, max_key] ranges (when they are all bounded).
  int pc = table.partition_column();
  if (pc >= 0 && !table.partitions().empty()) {
    int out_idx = -1;
    for (size_t i = 0; i < scan.table_columns().size(); ++i) {
      if (scan.table_columns()[i] == pc) {
        out_idx = static_cast<int>(i);
        break;
      }
    }
    if (out_idx >= 0) {
      int64_t lo = std::numeric_limits<int64_t>::max();
      int64_t hi = std::numeric_limits<int64_t>::min();
      bool bounded = true;
      for (const Partition& part : table.partitions()) {
        if (part.min_key == std::numeric_limits<int64_t>::min() ||
            part.max_key == std::numeric_limits<int64_t>::max()) {
          bounded = false;
          break;
        }
        lo = std::min(lo, part.min_key);
        hi = std::max(hi, part.max_key);
      }
      if (bounded) {
        const ColumnInfo& c = scan.schema().column(out_idx);
        Value lov = c.type == DataType::kDate ? Value::Date(lo)
                                              : Value::Int64(lo);
        Value hiv = c.type == DataType::kDate ? Value::Date(hi)
                                              : Value::Int64(hi);
        ColumnDomain& d = p.domains[c.id];
        d.lo = {true, false, lov};
        d.hi = {true, false, hiv};
      }
    }
  }
  NormalizeSingleRow(&p);
  return p;
}

PlanProps DeriveFilter(const FilterOp& filter, const PlanProps& child) {
  PlanProps p = child;
  p.rows.min = 0;
  std::vector<ExprPtr> conjuncts;
  SplitConjuncts(filter.predicate(), &conjuncts);
  for (const ExprPtr& c : conjuncts) TightenDomains(c, &p.domains);
  NormalizeSingleRow(&p);
  return p;
}

PlanProps DeriveProject(const ProjectOp& project, const PlanProps& child) {
  PlanProps p;
  p.rows = child.rows;
  // Source column -> an output column carrying it unchanged.
  std::unordered_map<ColumnId, ColumnId> image;
  for (const NamedExpr& e : project.exprs()) {
    if (e.expr->kind() == ExprKind::kColumnRef) {
      image.emplace(e.expr->column_id(), e.id);
    }
  }
  auto translate = [&image](const std::vector<ColumnId>& cols,
                            std::vector<ColumnId>* out) {
    for (ColumnId id : cols) {
      auto it = image.find(id);
      if (it == image.end()) return false;
      out->push_back(it->second);
    }
    return true;
  };
  for (const std::vector<ColumnId>& key : child.keys) {
    std::vector<ColumnId> mapped;
    if (translate(key, &mapped)) p.AddKey(std::move(mapped));
  }
  for (const auto& [det, dep] : child.fds) {
    std::vector<ColumnId> mapped_det;
    auto dep_it = image.find(dep);
    if (dep_it != image.end() && translate(det, &mapped_det)) {
      p.fds.emplace_back(std::move(mapped_det), dep_it->second);
    }
  }
  for (const NamedExpr& e : project.exprs()) {
    if (e.expr->kind() == ExprKind::kColumnRef) {
      auto it = child.domains.find(e.expr->column_id());
      if (it != child.domains.end()) p.domains[e.id] = it->second;
    } else if (e.expr->kind() == ExprKind::kLiteral) {
      ColumnDomain d;
      const Value& v = e.expr->literal();
      if (!v.is_null()) {
        d.nullable = false;
        d.lo = {true, false, v};
        d.hi = {true, false, v};
      }
      p.domains[e.id] = d;
    }
  }
  NormalizeSingleRow(&p);
  return p;
}

PlanProps DeriveAggregate(const AggregateOp& agg, const PlanProps& child) {
  PlanProps p;
  if (agg.IsScalar()) {
    p.rows = {1, 1};
    p.AddKey({});
  } else {
    p.rows = {child.rows.min >= 1 ? 1 : 0, child.rows.max};
    p.AddKey(agg.group_by());
    std::vector<ColumnId> det = agg.group_by();
    std::sort(det.begin(), det.end());
    det.erase(std::unique(det.begin(), det.end()), det.end());
    for (const AggregateItem& item : agg.aggregates()) {
      p.fds.emplace_back(det, item.id);
    }
  }
  for (ColumnId g : agg.group_by()) {
    auto it = child.domains.find(g);
    if (it != child.domains.end()) p.domains[g] = it->second;
  }
  for (const AggregateItem& item : agg.aggregates()) {
    ColumnDomain d;
    switch (item.func) {
      case AggFunc::kCountStar:
      case AggFunc::kCount: {
        d.nullable = false;
        bool every_group_counts = item.func == AggFunc::kCountStar &&
                                  item.mask == nullptr && !agg.IsScalar();
        d.lo = {true, false, Value::Int64(every_group_counts ? 1 : 0)};
        if (child.rows.max >= 0) {
          d.hi = {true, false, Value::Int64(child.rows.max)};
        }
        break;
      }
      case AggFunc::kMin:
      case AggFunc::kMax: {
        // A non-NULL MIN/MAX is one of the input values.
        if (item.arg != nullptr &&
            item.arg->kind() == ExprKind::kColumnRef) {
          auto it = child.domains.find(item.arg->column_id());
          if (it != child.domains.end()) {
            d.lo = it->second.lo;
            d.hi = it->second.hi;
          }
        }
        break;
      }
      case AggFunc::kSum:
      case AggFunc::kAvg:
        break;
    }
    p.domains[item.id] = d;
  }
  NormalizeSingleRow(&p);
  return p;
}

PlanProps DeriveJoin(const JoinOp& join, const PlanProps& left,
                     const PlanProps& right) {
  PlanProps p;
  const Schema& ls = join.left()->schema();
  const Schema& rs = join.right()->schema();

  // Equi-pair census: which side-columns the condition equates.
  std::vector<ExprPtr> conjuncts;
  if (join.condition() != nullptr) SplitConjuncts(join.condition(), &conjuncts);
  std::vector<ColumnId> left_equi;
  std::vector<ColumnId> right_equi;
  std::vector<std::pair<ColumnId, ColumnId>> pairs;  // (left, right)
  for (const ExprPtr& c : conjuncts) {
    if (c->kind() != ExprKind::kCompare ||
        c->compare_op() != CompareOp::kEq ||
        c->child(0)->kind() != ExprKind::kColumnRef ||
        c->child(1)->kind() != ExprKind::kColumnRef) {
      continue;
    }
    ColumnId a = c->child(0)->column_id();
    ColumnId b = c->child(1)->column_id();
    if (ls.Contains(a) && rs.Contains(b)) {
      pairs.emplace_back(a, b);
    } else if (ls.Contains(b) && rs.Contains(a)) {
      pairs.emplace_back(b, a);
    }
  }
  for (const auto& [a, b] : pairs) {
    left_equi.push_back(a);
    right_equi.push_back(b);
  }
  bool right_unique = !pairs.empty() && right.HasKey(right_equi);
  bool left_unique = !pairs.empty() && left.HasKey(left_equi);

  switch (join.join_type()) {
    case JoinType::kInner:
    case JoinType::kCross: {
      p.domains = left.domains;
      for (const auto& kv : right.domains) p.domains.insert(kv);
      for (const ExprPtr& c : conjuncts) TightenDomains(c, &p.domains);
      p.fds = left.fds;
      p.fds.insert(p.fds.end(), right.fds.begin(), right.fds.end());
      if (right_unique) {
        for (const std::vector<ColumnId>& k : left.keys) p.AddKey(k);
      }
      if (left_unique) {
        for (const std::vector<ColumnId>& k : right.keys) p.AddKey(k);
      }
      for (const std::vector<ColumnId>& lk : left.keys) {
        for (const std::vector<ColumnId>& rk : right.keys) {
          std::vector<ColumnId> merged = lk;
          merged.insert(merged.end(), rk.begin(), rk.end());
          p.AddKey(std::move(merged));
        }
      }
      int64_t max = MulRows(left.rows.max, right.rows.max);
      if (right_unique && left.rows.max >= 0 && (max < 0 || left.rows.max < max)) {
        max = left.rows.max;
      }
      if (left_unique && right.rows.max >= 0 && (max < 0 || right.rows.max < max)) {
        max = right.rows.max;
      }
      int64_t min =
          join.condition() == nullptr ? MulRows(left.rows.min, right.rows.min)
                                      : 0;
      p.rows = {min, max};
      break;
    }
    case JoinType::kLeft: {
      p.domains = left.domains;
      for (const auto& kv : right.domains) {
        ColumnDomain d = kv.second;
        d.nullable = true;  // null-padded on unmatched left rows
        p.domains.emplace(kv.first, d);
      }
      p.fds = left.fds;
      if (right_unique) {
        for (const std::vector<ColumnId>& k : left.keys) p.AddKey(k);
      }
      int64_t max;
      if (right_unique) {
        max = left.rows.max;
      } else if (right.rows.max < 0) {
        max = -1;
      } else {
        max = MulRows(left.rows.max, std::max<int64_t>(right.rows.max, 1));
      }
      p.rows = {left.rows.min, max};
      break;
    }
    case JoinType::kSemi: {
      p.domains = left.domains;
      for (const auto& [a, b] : pairs) {
        ColumnDomain& d = p.domains[a];
        d.nullable = false;  // a TRUE match needs the left value non-NULL
        auto it = right.domains.find(b);
        if (it != right.domains.end()) {
          if (it->second.lo.has) TightenLo(&d, it->second.lo.value, it->second.lo.strict);
          if (it->second.hi.has) TightenHi(&d, it->second.hi.value, it->second.hi.strict);
        }
      }
      for (const ExprPtr& c : conjuncts) {
        std::vector<ColumnId> cols;
        CollectColumns(c, &cols);
        bool left_only = true;
        for (ColumnId id : cols) {
          if (!ls.Contains(id)) {
            left_only = false;
            break;
          }
        }
        if (left_only) TightenDomains(c, &p.domains);
      }
      p.fds = left.fds;
      p.keys = left.keys;
      p.rows = {0, left.rows.max};
      break;
    }
  }
  NormalizeSingleRow(&p);
  return p;
}

PlanProps DeriveWindow(const WindowOp& window, const PlanProps& child) {
  PlanProps p = child;  // one output row per input row
  for (const WindowItem& item : window.items()) {
    ColumnDomain d;
    switch (item.func) {
      case AggFunc::kCountStar:
      case AggFunc::kCount: {
        d.nullable = false;
        // Every row belongs to its own (non-empty) partition.
        int64_t lo = item.func == AggFunc::kCountStar && item.mask == nullptr
                         ? 1
                         : 0;
        d.lo = {true, false, Value::Int64(lo)};
        if (child.rows.max >= 0) {
          d.hi = {true, false, Value::Int64(child.rows.max)};
        }
        break;
      }
      case AggFunc::kMin:
      case AggFunc::kMax: {
        if (item.arg != nullptr &&
            item.arg->kind() == ExprKind::kColumnRef) {
          auto it = child.domains.find(item.arg->column_id());
          if (it != child.domains.end()) {
            d.lo = it->second.lo;
            d.hi = it->second.hi;
          }
        }
        break;
      }
      case AggFunc::kSum:
      case AggFunc::kAvg:
        break;
    }
    p.domains[item.id] = d;
  }
  return p;
}

PlanProps DeriveUnionAll(const UnionAllOp& u,
                         const std::vector<const PlanProps*>& children) {
  PlanProps p;
  int64_t min = 0;
  int64_t max = 0;
  for (const PlanProps* c : children) {
    min = AddRows(min, c->rows.min);
    max = max < 0 ? -1 : AddRows(max, c->rows.max);
  }
  if (min < 0) min = 0;
  p.rows = {min, max};
  for (size_t o = 0; o < u.schema().num_columns(); ++o) {
    ColumnDomain hull;
    bool known = true;
    bool first = true;
    for (size_t c = 0; c < children.size(); ++c) {
      auto it = children[c]->domains.find(u.input_columns()[c][o]);
      if (it == children[c]->domains.end()) {
        known = false;
        break;
      }
      if (first) {
        hull = it->second;
        first = false;
      } else {
        HullInto(&hull, it->second);
      }
    }
    if (known && !first) p.domains[u.schema().column(o).id] = hull;
  }
  NormalizeSingleRow(&p);
  return p;
}

PlanProps DeriveValues(const ValuesOp& values) {
  PlanProps p;
  int64_t n = static_cast<int64_t>(values.rows().size());
  p.rows = {n, n};
  for (size_t col = 0; col < values.schema().num_columns(); ++col) {
    ColumnDomain d;
    d.nullable = false;
    bool first = true;
    bool bounded = true;
    for (const std::vector<Value>& row : values.rows()) {
      const Value& v = row[col];
      if (v.is_null()) {
        d.nullable = true;
        continue;
      }
      if (first) {
        d.lo = {true, false, v};
        d.hi = {true, false, v};
        first = false;
        continue;
      }
      if (!SameClass(d.lo.value, v)) {
        bounded = false;
        break;
      }
      if (v.Compare(d.lo.value) < 0) d.lo.value = v;
      if (v.Compare(d.hi.value) > 0) d.hi.value = v;
    }
    if (!bounded || first) {
      d.lo = {};
      d.hi = {};
    }
    if (n == 0) d.nullable = false;
    p.domains[values.schema().column(col).id] = d;
  }
  NormalizeSingleRow(&p);
  return p;
}

PlanProps DeriveLimit(const LimitOp& limit, const PlanProps& child) {
  PlanProps p = child;
  p.rows.min = std::min(child.rows.min, limit.limit());
  p.rows.max =
      child.rows.max < 0 ? limit.limit() : std::min(child.rows.max, limit.limit());
  NormalizeSingleRow(&p);
  return p;
}

PlanProps DeriveEnforceSingleRow(const PlanProps& child) {
  PlanProps p = child;
  p.rows = {1, 1};
  p.AddKey({});
  return p;
}

PlanProps DeriveApply(const ApplyOp& apply, const PlanProps& outer) {
  PlanProps p;
  p.rows = outer.rows;
  p.keys = outer.keys;
  p.fds = outer.fds;
  p.domains = outer.domains;
  // The appended scalar column stays at the lattice top: the subquery runs
  // under per-row correlation bindings, so its standalone-derived domain
  // does not transfer.
  (void)apply;
  return p;
}

}  // namespace

// ---------------------------------------------------------------------------
// PropertyDerivation
// ---------------------------------------------------------------------------

const PlanProps* PropertyDerivation::Lookup(const LogicalOp* op) const {
  auto it = memo_.find(op);
  return it == memo_.end() ? nullptr : &it->second;
}

const PlanProps& PropertyDerivation::Derive(const PlanPtr& plan) {
  auto [slot, inserted] = memo_.emplace(plan.get(), PlanProps{});
  // Re-entry (memo hit, or a cyclic plan hitting its own placeholder —
  // the structural verifier rejects cycles; the placeholder's lattice top
  // keeps derivation terminating and sound regardless).
  if (!inserted) return slot->second;
  keepalive_.push_back(plan);

  std::vector<const PlanProps*> child_props;
  child_props.reserve(plan->children().size());
  for (const PlanPtr& child : plan->children()) {
    child_props.push_back(&Derive(child));
  }

  PlanProps p;
  const LogicalOp& op = *plan;
  switch (op.kind()) {
    case OpKind::kScan:
      p = DeriveScan(Cast<ScanOp>(op));
      break;
    case OpKind::kFilter:
      p = DeriveFilter(Cast<FilterOp>(op), *child_props[0]);
      break;
    case OpKind::kProject:
      p = DeriveProject(Cast<ProjectOp>(op), *child_props[0]);
      break;
    case OpKind::kJoin:
      p = DeriveJoin(Cast<JoinOp>(op), *child_props[0], *child_props[1]);
      break;
    case OpKind::kAggregate:
      p = DeriveAggregate(Cast<AggregateOp>(op), *child_props[0]);
      break;
    case OpKind::kWindow:
      p = DeriveWindow(Cast<WindowOp>(op), *child_props[0]);
      break;
    case OpKind::kUnionAll:
      p = DeriveUnionAll(Cast<UnionAllOp>(op), child_props);
      break;
    case OpKind::kValues:
      p = DeriveValues(Cast<ValuesOp>(op));
      break;
    case OpKind::kSort:
    case OpKind::kSpool:
      p = *child_props[0];
      break;
    case OpKind::kLimit:
      p = DeriveLimit(Cast<LimitOp>(op), *child_props[0]);
      break;
    case OpKind::kEnforceSingleRow:
      p = DeriveEnforceSingleRow(*child_props[0]);
      break;
    case OpKind::kApply:
      p = DeriveApply(Cast<ApplyOp>(op), *child_props[0]);
      break;
  }
  PlanProps& out = memo_[plan.get()];
  out = std::move(p);
  return out;
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

std::string PropsToString(const PlanProps& props) {
  std::string out = "rows=[";
  out += std::to_string(props.rows.min);
  out += ",";
  out += props.rows.max < 0 ? "*" : std::to_string(props.rows.max);
  out += "]";
  if (!props.keys.empty()) {
    out += " keys={";
    for (size_t i = 0; i < props.keys.size(); ++i) {
      if (i > 0) out += " ";
      out += "(";
      for (size_t j = 0; j < props.keys[i].size(); ++j) {
        if (j > 0) out += " ";
        out += "#" + std::to_string(props.keys[i][j]);
      }
      out += ")";
    }
    out += "}";
  }
  std::vector<ColumnId> ids;
  for (const auto& [id, d] : props.domains) {
    if (!d.nullable || d.lo.has || d.hi.has) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  for (ColumnId id : ids) {
    const ColumnDomain& d = props.domains.at(id);
    out += " #" + std::to_string(id) + ":";
    if (!d.nullable) out += "!null";
    if (d.lo.has || d.hi.has) {
      out += d.lo.strict ? "(" : "[";
      out += d.lo.has ? d.lo.value.ToString() : "*";
      out += ",";
      out += d.hi.has ? d.hi.value.ToString() : "*";
      out += d.hi.strict ? ")" : "]";
    }
  }
  return out;
}

}  // namespace fusiondb
