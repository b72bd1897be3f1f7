// Semantic property derivation over logical plans (DESIGN.md §8).
//
// PropertyDerivation runs a bottom-up, DAG-memoized abstract interpretation
// over a logical plan and derives, per operator:
//   - candidate keys: column sets whose values identify an output row (the
//     empty set is the "at most one row" key),
//   - functional dependencies from group-by structure (group columns
//     determine every aggregate output), used to close key covers,
//   - per-column nullability and constant/interval domains implied by
//     filters, join conditions and literal projections,
//   - row-count bounds seeded from catalog cardinalities.
//
// The same interval lattice is the engine's only one: it powers the
// expression-level implication checker (Implies(F, G): every row satisfying
// F also satisfies G), contradiction detection (IsContradiction, the IV.D
// UnionAll shortcut) and a scan's partition pruning (exec/morsel_source.h
// StaticPruneSpec). Everything here is conservative: "don't know" degrades
// to the lattice top (nullable, unbounded, no keys), never to a wrong claim.
//
// Consumers: the semantic verifier tier (analysis/semantic_verifier.h),
// JoinOnKeys (optimizer/rules_join_keys.cc, which asserts its key
// precondition from derived keys instead of re-deriving it), and the
// --explain property annotations (examples/run_query.cpp).
#ifndef FUSIONDB_ANALYSIS_PLAN_PROPS_H_
#define FUSIONDB_ANALYSIS_PLAN_PROPS_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "expr/expr.h"
#include "plan/logical_plan.h"
#include "types/value.h"

namespace fusiondb {

/// One end of a column's value interval. `strict` means the bound is open
/// (the value itself is excluded). Bounds constrain *non-NULL* values only;
/// nullability is tracked separately in ColumnDomain.
struct ValueBound {
  bool has = false;
  bool strict = false;
  Value value;
};

/// What is known about one column's values at some plan node.
struct ColumnDomain {
  bool nullable = true;  // false: proven non-NULL at this node
  ValueBound lo;
  ValueBound hi;

  bool IsSingleton() const {
    return lo.has && hi.has && !lo.strict && !hi.strict &&
           lo.value.Compare(hi.value) == 0;
  }
};

using DomainMap = std::unordered_map<ColumnId, ColumnDomain>;

/// Output row-count bounds. max == -1 means unbounded/unknown.
struct RowBounds {
  int64_t min = 0;
  int64_t max = -1;
};

/// Derived semantic properties of one plan node's output.
struct PlanProps {
  /// Candidate keys, each a sorted set of output ColumnIds. An empty set is
  /// the strongest key ("at most one row"). Capped (supersets of a held key
  /// are dropped) so derivation stays linear in plan size.
  std::vector<std::vector<ColumnId>> keys;

  /// Functional dependencies: determinant column set -> dependent column.
  std::vector<std::pair<std::vector<ColumnId>, ColumnId>> fds;

  DomainMap domains;
  RowBounds rows;

  /// True when `cols` covers some candidate key under the FD closure:
  /// expand `cols` with every FD whose determinant it contains, then test
  /// whether any key is a subset of the closure.
  bool HasKey(const std::vector<ColumnId>& cols) const;

  /// Adds `key` (sorted/deduped), dropping supersets of held keys and held
  /// supersets of it.
  void AddKey(std::vector<ColumnId> key);
};

/// Bottom-up derivation with a pointer-keyed memo, so shared (DAG) subtrees
/// are derived once. Holds PlanPtr keepalives for every memoized node, so
/// cached raw-pointer keys can never be resurrected by an unrelated
/// allocation. One instance may be reused across many plans in one
/// optimization pass; memo hits make incremental re-verification of touched
/// subtrees cheap.
class PropertyDerivation {
 public:
  const PlanProps& Derive(const PlanPtr& plan);

  /// Memo lookup without deriving; nullptr when `op` has not been derived.
  const PlanProps* Lookup(const LogicalOp* op) const;

  /// Number of distinct nodes derived so far (trace/stats).
  int64_t nodes_derived() const { return static_cast<int64_t>(memo_.size()); }

 private:
  std::unordered_map<const LogicalOp*, PlanProps> memo_;
  std::vector<PlanPtr> keepalive_;
};

/// Narrows `domains` with the facts a TRUE `conjunct` establishes:
/// comparisons against literals tighten intervals and prove non-NULLness,
/// column equalities intersect both sides, IS NOT NULL clears nullability,
/// an OR contributes, for each column every branch constrains, the hull of
/// the branches' domains. Unrecognized shapes tighten nothing.
void TightenDomains(const ExprPtr& conjunct, DomainMap* domains);

/// True when the (boolean) expression can be proven never TRUE for any row.
/// Conservative: false means "unknown". Recognizes literal FALSE/NULL,
/// p AND NOT p, a conjunct comparing a column with NULL, and conjuncts that
/// leave some column's domain empty under TightenDomains (x BETWEEN 1 AND
/// 20 AND x BETWEEN 21 AND 40, conflicting equalities, s < 'a' AND s > 'b').
/// The UnionAll rule's shortcut (IV.D) detects `L AND R == FALSE` with it.
bool IsContradiction(const ExprPtr& expr);

/// True when every row satisfying `premise` (under the facts in `ambient`,
/// typically the derived domains of the plan the rows flow through) also
/// satisfies `conclusion`. Conservative: false means "not proven". A null
/// or TRUE conclusion is vacuously implied; a null premise means "TRUE",
/// i.e. only `ambient` may do the proving.
bool Implies(const ExprPtr& premise, const ExprPtr& conclusion,
             const DomainMap* ambient = nullptr);

/// Returns `conjuncts` minus those already implied by `ambient` alone
/// (e.g. IS NOT NULL on a column the domain proves non-NULL, or a range
/// test inside the column's derived interval). Order is preserved.
std::vector<ExprPtr> DropImpliedConjuncts(const std::vector<ExprPtr>& conjuncts,
                                          const DomainMap& ambient);

/// Compact one-line rendering ("keys={(#3 #5)} rows=[0,120] #3:!null[1,10]")
/// for EXPLAIN annotations and the optimizer trace.
std::string PropsToString(const PlanProps& props);

}  // namespace fusiondb

#endif  // FUSIONDB_ANALYSIS_PLAN_PROPS_H_
