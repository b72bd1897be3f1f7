// Plan identity: a deterministic 64-bit fingerprint of a logical subtree
// covering operator kinds and parameters, expressions, and the base tables
// scanned — and *stable across ColumnId renumbering*. Two builds of the
// same logical query in different PlanContexts (whose scans mint different
// ids) fingerprint identically. That is what lets the server recognize two
// sessions' separately bound plans as one computation (CrossPlanFuser's
// identical-member overlay), and what names a shared group in cost
// decisions, sharing records and the query log.
//
// Canonical form: the plan renumbered (plan/multi_plan.h) into a fresh
// PlanContext, which mints ids children-first, left-to-right, in schema
// order, so every ColumnId depends only on plan structure. The cached
// structural expression hashes (expr/expr.h) of that form are then
// canonical too: AND/OR operands, oriented comparisons, commutative
// arithmetic and IN lists are ordered by them, and literals hash exactly.
// A column the subtree references but does not define (an Apply's inner
// side on its own) gets its canonical id at its first occurrence. Spool ids
// are ignored (they are allocation artifacts).
//
// Equal fingerprints mean structurally identical computations up to id
// renumbering; as with any hash, collisions are possible, so callers that
// act on identity (CrossPlanFuser's overlay) confirm with PlanEquivalent
// over the canonical forms, which is exact.
#ifndef FUSIONDB_PLAN_PLAN_FINGERPRINT_H_
#define FUSIONDB_PLAN_PLAN_FINGERPRINT_H_

#include <cstdint>
#include <string>

#include "plan/logical_plan.h"

namespace fusiondb {

/// A plan in canonical form plus its fingerprint.
struct CanonicalPlan {
  PlanPtr plan;
  uint64_t fingerprint = 0;
};

/// Renumbers `plan` into its canonical form and hashes it.
CanonicalPlan Canonicalize(const PlanPtr& plan);

/// Canonicalize(plan).fingerprint.
uint64_t PlanFingerprint(const PlanPtr& plan);

/// Exact structural equality: the same operators with the same parameters
/// and ColumnIds, ExprEquivalent expressions, over equivalent children.
/// Spool ids are ignored. Ids compare as they are, so two plans are the
/// same computation up to renumbering iff their canonical forms are
/// PlanEquivalent; a fingerprint never differs between equivalent plans.
bool PlanEquivalent(const PlanPtr& a, const PlanPtr& b);

/// Fingerprint rendered for traces/JSON ("fp:0123456789abcdef").
std::string FingerprintToString(uint64_t fingerprint);

}  // namespace fusiondb

#endif  // FUSIONDB_PLAN_PLAN_FINGERPRINT_H_
