// Deterministic plan fingerprints: a canonical 64-bit hash of a logical
// subtree covering operator kinds and parameters, expressions, and the base
// tables scanned — and *stable across ColumnId renumbering*. Two builds of
// the same logical query in different PlanContexts (whose scans mint
// different ids) fingerprint identically, so measured statistics harvested
// from one execution can be matched to the same subtree in a later
// optimization pass (the StatsFeedback overlay in src/cost).
//
// Canonicalization: ColumnIds are rewritten to dense ordinals assigned in a
// deterministic post-order walk of the subtree (scan/project/aggregate/...
// output columns in schema order, children left-to-right before parents),
// so the numbering depends only on plan structure. AND/OR operands and
// commutative comparisons are ordered canonically under the same rules as
// the structural expression hash (expr/expr.h). Literals serialize exactly.
// Spool ids are ignored (they are allocation artifacts).
//
// Equal fingerprints mean structurally identical computations up to id
// renumbering; as with any hash, collisions are possible, so callers that
// act on identity (CrossPlanFuser's overlay) confirm with the canonical
// string, which is collision-free.
#ifndef FUSIONDB_PLAN_PLAN_FINGERPRINT_H_
#define FUSIONDB_PLAN_PLAN_FINGERPRINT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "plan/logical_plan.h"

namespace fusiondb {

/// Canonical serialization of `plan` (ColumnIds replaced by structural
/// ordinals). Deterministic across processes and PlanContext id ranges.
std::string PlanCanonicalString(const PlanPtr& plan);

/// FNV-1a 64-bit hash of PlanCanonicalString(plan).
uint64_t PlanFingerprint(const PlanPtr& plan);

/// The hash step of PlanFingerprint, for callers that keep the canonical
/// string: PlanFingerprint(p) == CanonicalStringFingerprint(
/// PlanCanonicalString(p)).
uint64_t CanonicalStringFingerprint(std::string_view canonical);

/// Fingerprint rendered for traces/JSON ("fp:0123456789abcdef").
std::string FingerprintToString(uint64_t fingerprint);

}  // namespace fusiondb

#endif  // FUSIONDB_PLAN_PLAN_FINGERPRINT_H_
