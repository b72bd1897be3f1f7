#include "expr/simplifier.h"

#include <algorithm>
#include <optional>

#include "expr/scalar_ops.h"

namespace fusiondb {

namespace {

bool IsFalseLiteral(const ExprPtr& e) { return e->IsLiteralBool(false); }

ExprPtr TrueLit() { return Expr::MakeLiteral(Value::Bool(true)); }
ExprPtr FalseLit() { return Expr::MakeLiteral(Value::Bool(false)); }

/// Folds a node whose children are all literals, using the scalar kernels.
std::optional<Value> TryFold(const ExprPtr& e) {
  for (const ExprPtr& c : e->children()) {
    if (c->kind() != ExprKind::kLiteral) return std::nullopt;
  }
  switch (e->kind()) {
    case ExprKind::kCompare:
      return EvalCompareOp(e->compare_op(), e->child(0)->literal(),
                           e->child(1)->literal());
    case ExprKind::kArith:
      return EvalArithOp(e->arith_op(), e->child(0)->literal(),
                         e->child(1)->literal(), e->type());
    case ExprKind::kNot:
      return EvalNot(e->child(0)->literal());
    case ExprKind::kIsNull:
      return Value::Bool(e->child(0)->literal().is_null());
    case ExprKind::kColumnRef:
    case ExprKind::kLiteral:
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kCase:
    case ExprKind::kInList:
      return std::nullopt;  // folded elsewhere (or not foldable)
  }
  return std::nullopt;
}

}  // namespace

void SplitConjuncts(const ExprPtr& expr, std::vector<ExprPtr>* out) {
  if (expr == nullptr) return;
  if (expr->kind() == ExprKind::kAnd) {
    for (const ExprPtr& c : expr->children()) SplitConjuncts(c, out);
    return;
  }
  if (IsTrueLiteral(expr)) return;
  out->push_back(expr);
}

ExprPtr CombineConjuncts(const std::vector<ExprPtr>& conjuncts) {
  if (conjuncts.empty()) return TrueLit();
  if (conjuncts.size() == 1) return conjuncts[0];
  return Expr::MakeAnd(conjuncts);
}

namespace {

/// True when `absorber` is a simplified OR with a branch equivalent to the
/// simplified `e`, so `e AND absorber` simplifies to a node structurally
/// identical to `e` (absorption). Literals and conjunctions carrying a NULL
/// literal are excluded: Simplify sets NULL conjuncts aside before
/// absorbing, so the full path would keep the disjunction.
bool AbsorbsInto(const ExprPtr& e, const ExprPtr& absorber) {
  if (!e->simplified() || !absorber->simplified() ||
      absorber->kind() != ExprKind::kOr || e->kind() == ExprKind::kLiteral) {
    return false;
  }
  if (e->kind() == ExprKind::kAnd &&
      std::any_of(e->children().begin(), e->children().end(),
                  [](const ExprPtr& c) { return c->IsLiteralNull(); })) {
    return false;
  }
  return std::any_of(absorber->children().begin(), absorber->children().end(),
                     [&](const ExprPtr& branch) {
                       return branch->hash() == e->hash() &&
                              ExprEquivalent(branch, e);
                     });
}

}  // namespace

ExprPtr MakeConjunction(const ExprPtr& a, const ExprPtr& b) {
  // Fast path for the shape aggregate fusion produces on every fold: a
  // simplified mask conjoined with a compensating disjunction that already
  // lists it. Returns what the general path below would rebuild.
  if (a != nullptr && b != nullptr) {
    if (AbsorbsInto(a, b)) return a;
    if (AbsorbsInto(b, a)) return b;
  }
  std::vector<ExprPtr> parts;
  SplitConjuncts(a, &parts);
  SplitConjuncts(b, &parts);
  return Simplify(CombineConjuncts(parts));
}

namespace {

// Term lists up to this size are searched linearly; longer ones (the mask
// disjunctions pairwise aggregate folds grow) through a hash index, so
// deduplication and absorption stay O(n log n) instead of O(n^2).
constexpr size_t kLinearScanLimit = 8;

/// Equivalence lookups over a fixed list of terms.
class TermIndex {
 public:
  explicit TermIndex(const std::vector<ExprPtr>& terms) : terms_(terms) {
    if (terms.size() <= kLinearScanLimit) return;
    by_hash_.reserve(terms.size());
    for (size_t i = 0; i < terms.size(); ++i) {
      by_hash_.emplace_back(terms[i]->hash(), i);
    }
    std::sort(by_hash_.begin(), by_hash_.end());
  }

  /// True when some term other than terms[self] is equivalent to `e`.
  bool ContainsOther(const ExprPtr& e, size_t self) const {
    if (by_hash_.empty()) {
      for (size_t j = 0; j < terms_.size(); ++j) {
        if (j != self && Same(terms_[j], e)) return true;
      }
      return false;
    }
    auto it = std::lower_bound(by_hash_.begin(), by_hash_.end(),
                               std::make_pair(e->hash(), size_t{0}));
    for (; it != by_hash_.end() && it->first == e->hash(); ++it) {
      if (it->second != self && ExprEquivalent(terms_[it->second], e)) {
        return true;
      }
    }
    return false;
  }

  static bool Same(const ExprPtr& a, const ExprPtr& b) {
    return a->hash() == b->hash() && ExprEquivalent(a, b);
  }

 private:
  const std::vector<ExprPtr>& terms_;
  std::vector<std::pair<uint64_t, size_t>> by_hash_;  // sorted
};

/// Drops every term equivalent to an earlier one, keeping order.
void DropDuplicates(std::vector<ExprPtr>* terms) {
  std::vector<ExprPtr>& t = *terms;
  size_t n = t.size();
  std::vector<bool> dup(n, false);
  if (n <= kLinearScanLimit) {
    for (size_t i = 1; i < n; ++i) {
      for (size_t j = 0; j < i && !dup[i]; ++j) {
        dup[i] = !dup[j] && TermIndex::Same(t[j], t[i]);
      }
    }
  } else {
    // Positions ascend within a run of equal hashes, so a term is a
    // duplicate when an earlier kept term of its run is equivalent.
    std::vector<std::pair<uint64_t, size_t>> by_hash;
    by_hash.reserve(n);
    for (size_t i = 0; i < n; ++i) by_hash.emplace_back(t[i]->hash(), i);
    std::sort(by_hash.begin(), by_hash.end());
    for (size_t r = 0; r < n;) {
      size_t end = r + 1;
      while (end < n && by_hash[end].first == by_hash[r].first) ++end;
      for (size_t i = r + 1; i < end; ++i) {
        size_t ti = by_hash[i].second;
        for (size_t j = r; j < i && !dup[ti]; ++j) {
          size_t tj = by_hash[j].second;
          dup[ti] = !dup[tj] && ExprEquivalent(t[tj], t[ti]);
        }
      }
      r = end;
    }
  }
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    if (dup[i]) continue;
    if (kept != i) t[kept] = std::move(t[i]);
    ++kept;
  }
  t.resize(kept);
}

/// One simplification step of a non-leaf node (children via Simplify).
ExprPtr SimplifyNode(const ExprPtr& expr) {
  // Simplify children first.
  std::vector<ExprPtr> children;
  children.reserve(expr->children().size());
  bool changed = false;
  for (const ExprPtr& c : expr->children()) {
    ExprPtr sc = Simplify(c);
    changed |= (sc != c);
    children.push_back(std::move(sc));
  }
  ExprPtr node = changed ? Expr::WithChildren(expr, std::move(children)) : expr;

  switch (node->kind()) {
    case ExprKind::kAnd:
    case ExprKind::kOr: {
      bool is_and = node->kind() == ExprKind::kAnd;
      // Flatten nested AND/AND, OR/OR; drop neutral literals; short-circuit
      // dominant literals; dedupe structurally equivalent terms.
      std::vector<ExprPtr> flat;
      bool saw_null = false;
      ExprPtr bool_null;  // a BOOL NULL child, re-appended as is below
      std::vector<ExprPtr> work(node->children().rbegin(),
                                node->children().rend());
      while (!work.empty()) {
        ExprPtr c = work.back();
        work.pop_back();
        if (c->kind() == node->kind()) {
          for (auto it = c->children().rbegin(); it != c->children().rend();
               ++it) {
            work.push_back(*it);
          }
          continue;
        }
        if (c->IsLiteralNull()) {
          saw_null = true;
          if (bool_null == nullptr && c->type() == DataType::kBool) {
            bool_null = c;
          }
          continue;
        }
        if (is_and) {
          if (IsTrueLiteral(c)) continue;
          if (IsFalseLiteral(c)) return FalseLit();
        } else {
          if (IsFalseLiteral(c)) continue;
          if (IsTrueLiteral(c)) return TrueLit();
        }
        flat.push_back(std::move(c));
      }
      DropDuplicates(&flat);
      if (flat.empty()) {
        // All children were neutral literals (or NULL). With a NULL child the
        // result is NULL-or-dominant; conservatively keep a NULL literal,
        // which filters treat as not-TRUE.
        if (saw_null) return Expr::MakeLiteral(Value::Null(DataType::kBool));
        return is_and ? TrueLit() : FalseLit();
      }
      // Absorption: under AND, a disjunction containing another conjunct as
      // one of its branches is implied by it (A AND (A OR B) == A); dually
      // under OR (A OR (A AND B) == A). This is what collapses the mask
      // chains produced by repeated pairwise aggregate fusion, e.g.
      // b1 AND (b1 OR b2) AND (b1 OR b2 OR b3) -> b1.
      {
        ExprKind absorber = is_and ? ExprKind::kOr : ExprKind::kAnd;
        TermIndex index(flat);
        // A branch is implied when each of its pieces (conjuncts under AND,
        // disjuncts under OR) already appears among the *other* top-level
        // terms — so (x>=1 AND x<=20) absorbs ((x>=1 AND x<=20) OR ...)
        // even after the AND was flattened into separate conjuncts.
        // The branch is a simplified node, so its pieces are exactly its
        // children when it has the node's own kind (nested ones were
        // flattened, neutral literals dropped) and the branch itself
        // otherwise.
        auto implied = [&](const ExprPtr& branch, size_t self) {
          bool split = branch->kind() == node->kind();
          size_t n = split ? branch->children().size() : 1;
          for (size_t p = 0; p < n; ++p) {
            if (!index.ContainsOther(split ? branch->child(p) : branch,
                                     self)) {
              return false;
            }
          }
          return true;
        };
        std::vector<ExprPtr> kept;
        for (size_t i = 0; i < flat.size(); ++i) {
          bool absorbed = false;
          if (flat[i]->kind() == absorber) {
            for (const ExprPtr& branch : flat[i]->children()) {
              if (implied(branch, i)) {
                absorbed = true;
                break;
              }
            }
          }
          if (!absorbed) kept.push_back(flat[i]);
        }
        flat = std::move(kept);
      }
      if (flat.size() == 1 && !saw_null) return flat[0];
      if (saw_null) {
        // Reusing the NULL child keeps a re-simplification pointer-stable.
        flat.push_back(bool_null != nullptr
                           ? bool_null
                           : Expr::MakeLiteral(Value::Null(DataType::kBool)));
      }
      // Idempotence: reuse the node when flattening changed nothing.
      if (flat.size() == node->children().size()) {
        bool same = true;
        for (size_t i = 0; i < flat.size(); ++i) {
          same &= (flat[i] == node->child(i));
        }
        if (same) return node;
      }
      return is_and ? Expr::MakeAnd(std::move(flat))
                    : Expr::MakeOr(std::move(flat));
    }
    case ExprKind::kNot: {
      const ExprPtr& c = node->child(0);
      if (IsTrueLiteral(c)) return FalseLit();
      if (IsFalseLiteral(c)) return TrueLit();
      if (c->kind() == ExprKind::kNot) return c->child(0);
      if (auto v = TryFold(node)) return Expr::MakeLiteral(*v);
      return node;
    }
    case ExprKind::kCase: {
      // Drop WHEN FALSE arms; collapse to THEN when the first arm is TRUE.
      const auto& cs = node->children();
      std::vector<ExprPtr> arms;
      size_t n = cs.size();
      for (size_t i = 0; i + 1 < n; i += 2) {
        if (IsFalseLiteral(cs[i]) || cs[i]->IsLiteralNull()) continue;
        if (IsTrueLiteral(cs[i]) && arms.empty()) return cs[i + 1];
        arms.push_back(cs[i]);
        arms.push_back(cs[i + 1]);
      }
      if (arms.empty()) return cs[n - 1];
      arms.push_back(cs[n - 1]);
      if (arms.size() == cs.size()) return node;
      return Expr::MakeCase(std::move(arms), node->type());
    }
    case ExprKind::kColumnRef:
    case ExprKind::kLiteral:
    case ExprKind::kCompare:
    case ExprKind::kArith:
    case ExprKind::kIsNull:
    case ExprKind::kInList: {
      if (auto v = TryFold(node)) return Expr::MakeLiteral(*v);
      return node;
    }
  }
  return node;
}

}  // namespace

ExprPtr Simplify(const ExprPtr& expr) {
  if (expr == nullptr || expr->simplified()) return expr;
  if (expr->kind() == ExprKind::kColumnRef ||
      expr->kind() == ExprKind::kLiteral) {
    return expr;
  }
  ExprPtr out = SimplifyNode(expr);
  // Every result is a fixed point: its children are fixed points, already
  // flattened, deduplicated and absorbed, so a second pass would rebuild
  // nothing and return the node itself. Marking it lets the callers that
  // re-simplify (every optimizer sweep, every fold) return at once.
  out->MarkSimplified();
  return out;
}

}  // namespace fusiondb
