#include "plan/plan_fingerprint.h"

#include <map>
#include <set>
#include <string>
#include <vector>

#include "plan/multi_plan.h"

namespace fusiondb {

namespace {

/// Everything that identifies one operator apart from its children, in a
/// fixed order. Hashing and equality both read this listing, so they cannot
/// disagree. Where one vector holds several lists, `scalars` records their
/// lengths, so no two operators list alike by accident.
struct OpFields {
  const std::string* table = nullptr;  // scanned table's name
  std::vector<int64_t> scalars;        // kind, enums, flags, counts, ...
  std::vector<ColumnId> columns;       // ids defined or referenced
  std::vector<ExprPtr> exprs;          // nullptr where a parameter is absent

  void Clear(OpKind kind) {
    table = nullptr;
    scalars.assign(1, static_cast<int64_t>(kind));
    columns.clear();
    exprs.clear();
  }
};

void ListFields(const LogicalOp& op, OpFields* f) {
  f->Clear(op.kind());
  switch (op.kind()) {
    case OpKind::kScan: {
      const auto& scan = Cast<ScanOp>(op);
      f->table = &scan.table()->name();
      f->scalars.insert(f->scalars.end(), scan.table_columns().begin(),
                        scan.table_columns().end());
      for (const ColumnInfo& c : scan.schema().columns()) {
        f->columns.push_back(c.id);
      }
      break;
    }
    case OpKind::kFilter:
      f->exprs.push_back(Cast<FilterOp>(op).predicate());
      break;
    case OpKind::kProject:
      for (const NamedExpr& e : Cast<ProjectOp>(op).exprs()) {
        f->columns.push_back(e.id);
        f->exprs.push_back(e.expr);
      }
      break;
    case OpKind::kJoin: {
      const auto& join = Cast<JoinOp>(op);
      f->scalars.push_back(static_cast<int64_t>(join.join_type()));
      f->exprs.push_back(join.condition());
      break;
    }
    case OpKind::kAggregate: {
      const auto& agg = Cast<AggregateOp>(op);
      f->scalars.push_back(static_cast<int64_t>(agg.group_by().size()));
      f->columns = agg.group_by();
      for (const AggregateItem& a : agg.aggregates()) {
        f->scalars.push_back(static_cast<int64_t>(a.func));
        f->scalars.push_back(a.distinct ? 1 : 0);
        f->columns.push_back(a.id);
        f->exprs.push_back(a.arg);
        f->exprs.push_back(a.mask);
      }
      break;
    }
    case OpKind::kWindow: {
      const auto& win = Cast<WindowOp>(op);
      f->scalars.push_back(static_cast<int64_t>(win.partition_by().size()));
      f->columns = win.partition_by();
      for (const WindowItem& w : win.items()) {
        f->scalars.push_back(static_cast<int64_t>(w.func));
        f->columns.push_back(w.id);
        f->exprs.push_back(w.arg);
        f->exprs.push_back(w.mask);
      }
      break;
    }
    case OpKind::kUnionAll: {
      const auto& u = Cast<UnionAllOp>(op);
      for (const std::vector<ColumnId>& per_child : u.input_columns()) {
        f->scalars.push_back(static_cast<int64_t>(per_child.size()));
        f->columns.insert(f->columns.end(), per_child.begin(),
                          per_child.end());
      }
      for (const ColumnInfo& c : u.schema().columns()) {
        f->columns.push_back(c.id);
      }
      break;
    }
    case OpKind::kValues: {
      const auto& v = Cast<ValuesOp>(op);
      f->scalars.push_back(static_cast<int64_t>(v.rows().size()));
      for (const ColumnInfo& c : v.schema().columns()) {
        f->scalars.push_back(static_cast<int64_t>(c.type));
        f->columns.push_back(c.id);
      }
      // Cells are literals: one definition of literal identity.
      for (const std::vector<Value>& row : v.rows()) {
        for (const Value& cell : row) {
          f->exprs.push_back(Expr::MakeLiteral(cell));
        }
      }
      break;
    }
    case OpKind::kSort:
      for (const SortKey& k : Cast<SortOp>(op).keys()) {
        f->scalars.push_back(k.ascending ? 1 : 0);
        f->columns.push_back(k.column);
      }
      break;
    case OpKind::kLimit:
      f->scalars.push_back(Cast<LimitOp>(op).limit());
      break;
    case OpKind::kApply:
      for (const auto& [outer, inner] : Cast<ApplyOp>(op).correlation()) {
        f->columns.push_back(outer);
        f->columns.push_back(inner);
      }
      break;
    case OpKind::kEnforceSingleRow:
    case OpKind::kSpool:
      // Spool ids are allocation order, not structure: two optimizer runs
      // over the same query may number them differently. Omit them.
      break;
  }
}

/// Every column `expr` references, in left-to-right order.
template <typename Fn>
void ForEachRef(const ExprPtr& expr, const Fn& fn) {
  if (expr == nullptr) return;
  if (expr->kind() == ExprKind::kColumnRef) {
    fn(expr->column_id());
    return;
  }
  for (const ExprPtr& c : expr->children()) ForEachRef(c, fn);
}

/// Mints an id from `ctx` for each column `op`'s subtree names but does not
/// define (absent from `defined`), in children-first order of occurrence.
void CollectFreeReferences(const LogicalOp& op, const ColumnMap& defined,
                           PlanContext* ctx, OpFields* f, ColumnMap* free) {
  for (const PlanPtr& c : op.children()) {
    CollectFreeReferences(*c, defined, ctx, f, free);
  }
  auto note = [&](ColumnId id) {
    if (!defined.contains(id) && !free->contains(id)) {
      free->emplace(id, ctx->NextId());
    }
  };
  ListFields(op, f);
  for (ColumnId id : f->columns) note(id);
  for (const ExprPtr& e : f->exprs) ForEachRef(e, note);
}

uint64_t HashPlan(const LogicalOp& op, OpFields* f) {
  ListFields(op, f);
  uint64_t h = HashCombine(op.num_children(), f->scalars.size());
  h = HashCombine(h, f->columns.size());
  h = HashCombine(h, f->exprs.size());
  if (f->table != nullptr) h = HashCombine(h, HashBytes(*f->table));
  for (int64_t v : f->scalars) h = HashCombine(h, static_cast<uint64_t>(v));
  for (ColumnId c : f->columns) h = HashCombine(h, static_cast<uint64_t>(c));
  for (const ExprPtr& e : f->exprs) {
    h = HashCombine(h, e == nullptr ? 0 : e->hash());
  }
  // `f` is free again: the children reuse it.
  for (const PlanPtr& c : op.children()) h = HashCombine(h, HashPlan(*c, f));
  return h;
}

bool Equivalent(const LogicalOp& a, const LogicalOp& b, OpFields* fa,
                OpFields* fb) {
  if (&a == &b) return true;
  if (a.num_children() != b.num_children()) return false;
  ListFields(a, fa);
  ListFields(b, fb);
  if ((fa->table == nullptr) != (fb->table == nullptr) ||
      (fa->table != nullptr && *fa->table != *fb->table) ||
      fa->scalars != fb->scalars || fa->columns != fb->columns ||
      fa->exprs.size() != fb->exprs.size()) {
    return false;
  }
  for (size_t i = 0; i < fa->exprs.size(); ++i) {
    if (!ExprEquivalent(fa->exprs[i], fb->exprs[i])) return false;
  }
  for (size_t i = 0; i < a.num_children(); ++i) {
    if (!Equivalent(*a.child(i), *b.child(i), fa, fb)) return false;
  }
  return true;
}

}  // namespace

CanonicalPlan Canonicalize(const PlanPtr& plan) {
  FUSIONDB_CHECK(plan != nullptr, "fingerprint of null plan");
  PlanContext ctx;
  RenumberedPlan canon = RenumberPlan(plan, &ctx);
  // RenumberPlan leaves references to columns defined outside the subtree
  // as they are; give those canonical ids too, minted ahead of the rest.
  OpFields fields;
  PlanContext seeded;
  ColumnMap free;
  CollectFreeReferences(*plan, canon.mapping, &seeded, &fields, &free);
  if (!free.empty()) canon = RenumberPlan(plan, &seeded, std::move(free));
  uint64_t fingerprint = HashPlan(*canon.plan, &fields);
  return {std::move(canon.plan), fingerprint};
}

uint64_t PlanFingerprint(const PlanPtr& plan) {
  return Canonicalize(plan).fingerprint;
}

bool PlanEquivalent(const PlanPtr& a, const PlanPtr& b) {
  if (a == nullptr || b == nullptr) return a == b;
  OpFields fa;
  OpFields fb;
  return Equivalent(*a, *b, &fa, &fb);
}

std::string FingerprintToString(uint64_t fingerprint) {
  static const char* kHex = "0123456789abcdef";
  std::string out = "fp:";
  for (int shift = 60; shift >= 0; shift -= 4) {
    out += kHex[(fingerprint >> shift) & 0xF];
  }
  return out;
}

namespace {

void CollectSignature(const PlanPtr& plan, std::map<OpKind, int>* census,
                      std::multiset<std::string>* tables) {
  (*census)[plan->kind()]++;
  if (plan->kind() == OpKind::kScan) {
    tables->insert(Cast<ScanOp>(*plan).table()->name());
  }
  for (const PlanPtr& c : plan->children()) {
    CollectSignature(c, census, tables);
  }
}

}  // namespace

std::string PlanSignature(const PlanPtr& plan) {
  std::map<OpKind, int> census;
  std::multiset<std::string> tables;
  CollectSignature(plan, &census, &tables);
  std::string sig;
  for (const auto& [kind, count] : census) {
    sig += OpKindName(kind);
    sig += ':';
    sig += std::to_string(count);
    sig += ';';
  }
  for (const std::string& t : tables) {
    sig += t;
    sig += ',';
  }
  return sig;
}

}  // namespace fusiondb
