#!/usr/bin/env bash
# Static checks beyond the compiler.
#
# Usage: tools/lint.sh [BUILD_DIR]
#
# Two layers:
#   1. Banned-pattern greps (always run; no external tools needed).
#   2. clang-tidy over src/ using BUILD_DIR/compile_commands.json, when
#      clang-tidy is installed (skipped otherwise so the check degrades
#      gracefully on toolchains without it).
#
# Run from the repository root, or via `cmake --build <dir> --target lint`.
set -u

BUILD_DIR="${1:-build}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

failures=0

note_failure() {
  failures=$((failures + 1))
  echo "lint: $1" >&2
}

# --- Layer 1: banned patterns ----------------------------------------------

# Nothing may include generated build output.
if grep -rn '#include "build/' src tests bench examples 2>/dev/null; then
  note_failure 'sources must not include files from build/'
fi

# Raw assert() is compiled out in release builds; library code must report
# through Status (or FUSIONDB_CHECK for true invariants). Tests may assert.
if grep -rn --include='*.cc' --include='*.h' '^[[:space:]]*assert(' \
    src bench examples 2>/dev/null; then
  note_failure 'use Status / FUSIONDB_CHECK instead of raw assert() outside tests'
fi

# The executor has a single timing authority (obs/operator_stats.h's
# NowNanos); scattering std::chrono through operators makes profiling
# overhead unauditable and invites per-row timing.
if grep -rn --include='*.cc' --include='*.h' 'std::chrono' src/exec \
    2>/dev/null; then
  note_failure 'src/exec must use obs/operator_stats.h NowNanos(), not std::chrono'
fi

# One expression evaluator: the engine evaluates every expression, join
# residuals included, through the vectorized BoundExpr entry points
# (expr/evaluator.h). The row-at-a-time interpreter, its two-chunk pair
# variant and the testing switch that routed the engine through it were
# deleted; the only row interpreter is the reference evaluator's own, under
# tests/. Keep a second evaluator from growing back.
if grep -rnE --exclude=lint.sh \
    'EvalRow|EvalRowPair|SetRowAtATimeEvalForTesting|RowAtATimeEval' \
    src bench examples perfbench tools 2>/dev/null; then
  note_failure 'the engine has one expression evaluator (BoundExpr EvalAll/EvalSel/NarrowFilter); no row-at-a-time path'
fi

# One executor: every Scan/Filter/Project/Aggregate runs in a compiled
# pipeline (exec/pipeline.h). The interpreted pull operators, the knob that
# switched between the two paths and the bench toggle built on it were
# deleted; keep them from growing back.
if grep -rnE --exclude=lint.sh \
    'FilterExec|ProjectExec|ScanExec|AggregateExec|compile_pipelines|FUSIONDB_BENCH_COMPILE' \
    src bench examples tools 2>/dev/null; then
  note_failure 'the interpreted pull path and its compile_pipelines knob are gone; extend exec/pipeline.h instead of adding a second executor'
fi

# The reference evaluator is the executor's oracle only while it shares no
# code with it: it may not include executor headers (or the umbrella
# header, which pulls them in), nor the vectorized expression evaluator.
if grep -nE '#include "(exec/|expr/evaluator\.h|fusiondb\.h)' \
    tests/reference_eval.* 2>/dev/null; then
  note_failure 'tests/reference_eval.* must stay independent of src/exec and expr/evaluator.h'
fi

# ExecutePlan takes ExecOptions as designated initializers —
# `ExecutePlan(plan, {.parallelism = 4})` — so a reader never has to count
# argument positions. The old positional (chunk_size, parallelism, profile)
# shim is gone; this keeps it from growing back. The heuristic: any second
# argument that is not a braced ExecOptions initializer is positional.
if grep -rn --include='*.cc' --include='*.h' --include='*.cpp' \
    'ExecutePlan([^(){}]*,[[:space:]]*[^{[:space:]]' \
    src tests bench examples 2>/dev/null \
    | grep -v 'ExecOptions\|exec_options'; then
  note_failure 'positional ExecutePlan(plan, chunk, ...) was removed; pass ExecOptions: ExecutePlan(plan, {.chunk_size = ...})'
fi

# Examples are the user-facing front door and must go through
# fusiondb::Engine (Prepare/Optimize/Execute): a raw PlanContext on the
# stack means an example is wiring the layers by hand again. PlanContext*
# parameters (the Engine::PlanBuilder callback shape) are fine — only
# construction is banned.
if grep -rn --include='*.cpp' 'PlanContext[[:space:]]\+[A-Za-z_][A-Za-z0-9_]*\s*[;({]' \
    examples 2>/dev/null; then
  note_failure 'examples/ must not construct PlanContext directly; go through fusiondb::Engine (Prepare/Optimize/Execute)'
fi

# Compiled pipelines are push-based by construction: the whole point of
# src/exec/pipeline.cc is that a morsel flows through filters, projections
# and the aggregate sink in one loop. A pull-style ->Next() call creeping in
# would reintroduce the operator-at-a-time boundary the compiler removes.
if grep -n -- '->Next(' src/exec/pipeline*.cc 2>/dev/null; then
  note_failure 'src/exec/pipeline*.cc must drive MorselSource push-style, never pull via ->Next()'
fi

# Inside a compiled pipeline no intermediate chunk may be materialized
# between the fused operators: filters narrow one SelVector and outputs are
# evaluated straight off the scan morsel (EvalSel). Chunk::Empty() /
# Gather() are the materialization primitives of the interpreted path;
# their appearance in pipeline.cc means a copy came back. (Aggregate
# finalization, which legitimately builds the result chunk, lives in
# agg_build.cc.)
if grep -n 'Chunk::Empty(\|\.Gather(' src/exec/pipeline*.cc 2>/dev/null; then
  note_failure 'src/exec/pipeline*.cc must not materialize intermediate chunks (Chunk::Empty/Gather); compose SelVectors and EvalSel instead'
fi

# The session layer routes every execution — shared or solo — through the
# fan-out executor so the two paths cannot diverge; a direct ExecutePlan
# call in src/server would bypass consumer restoration and the
# shared-vs-isolated accounting.
if grep -rn --include='*.cc' --include='*.h' 'ExecutePlan(' src/server \
    2>/dev/null; then
  note_failure 'src/server must execute through ExecuteFanOut (exec/fanout.h), not ExecutePlan'
fi

# Semantic facts (candidate keys, uniqueness) have one derivation authority:
# analysis/plan_props.h. A rewrite rule reaching for Table::primary_key() or
# growing its own structural key scan re-creates the ad-hoc re-derivation
# JoinOnKeys used to carry (AggregateBelowGuard), which drifted from the
# real property lattice. Rules must consume PropertyDerivation and record
# obligations in the SemanticLedger instead.
if grep -rn --include='*.cc' --include='*.h' \
    'primary_key()\|AggregateBelowGuard' src/optimizer src/fusion \
    2>/dev/null; then
  note_failure 'src/optimizer and src/fusion must derive keys via analysis/plan_props.h (PropertyDerivation), not re-derive them ad hoc'
fi

# Expression identity is the structural hash + ExprEquivalent (expr/expr.h,
# DESIGN.md §15). The string fingerprint it replaced rebuilt every subtree
# through an ostringstream on every call and rounded double literals to 6
# digits; keep it from growing back.
if grep -rn --include='*.cc' --include='*.h' 'ExprFingerprint(' src \
    2>/dev/null; then
  note_failure 'use Expr::hash() / ExprEquivalent / ExprHash+ExprEq, not a string ExprFingerprint'
fi

# Plan identity is the canonically renumbered plan hashed with the
# expression hashes (plan/plan_fingerprint.h, DESIGN.md §11.1). The text
# serializer it replaced re-implemented expression canonicalization over
# ostringstreams; keep a second canonicalizer from growing back.
if grep -rnE --exclude=lint.sh \
    'PlanCanonicalString|CanonicalStringFingerprint|ColumnCanon' \
    src tests bench examples perfbench tools 2>/dev/null; then
  note_failure 'plan identity is Canonicalize / PlanFingerprint / PlanEquivalent (plan/plan_fingerprint.h); no plan text serializer'
fi

# One hash substrate: join, GROUP BY, window partitions and DISTINCT
# aggregates key rows through exec/key_table.h, so they share one key
# equality (-0.0 == 0.0, NULL handling), one memory formula and one partial
# merge. A second map over encoded rows or boxed Values would let two keyed
# operators disagree on which rows are equal.
if grep -rnE --include='*.cc' --include='*.h' \
    'RowKeyEncoder|unordered_(map|set)<std::string|unordered_set<Value' \
    src/exec 2>/dev/null; then
  note_failure 'src/exec keys rows only through exec/key_table.h (KeyTable); no second hash table over encoded rows or Values'
fi

# KeyTable itself is one open-addressing table over flat key stores
# (DESIGN.md §6.4): batch calls, stored hashes, no per-key nodes. A
# node-based standard map inside it would bring back the per-row allocation
# and pointer chasing it replaced.
if grep -nE 'unordered_(map|set)' src/exec/key_table.* 2>/dev/null; then
  note_failure 'src/exec/key_table.* is one open-addressing table; no std::unordered_map/set inside it'
fi

# One DISTINCT path: a DISTINCT aggregate is a native masked aggregate item
# (DESIGN.md §5) and fuses under Section III.E. The paper's distinct-marking
# operator, its executor, its III.F fusion case and its reference-evaluator
# case were deleted once the native path matched its speed; keep a second
# DISTINCT representation from growing back. (perfbench/ is the benchmark
# harness and is left as it is.)
if grep -rn --exclude=lint.sh 'MarkDistinct' src tests bench examples tools \
    2>/dev/null; then
  note_failure 'DISTINCT aggregates have one representation, the native masked AggregateItem; no mark-distinct operator'
fi

# One accumulator path: every aggregate keeps its state in the typed,
# group-indexed vectors of its AggAccumulator (exec/agg_build.h, DESIGN.md
# §10.4), shared by the aggregate sink, the partial merge and windows. The
# boxed per-(group, aggregate) state struct and its per-row accumulate
# switch were deleted; keep a second accumulator from growing back.
if grep -rnE --exclude=lint.sh 'AggState|AccumulateColumnRow' \
    src bench examples 2>/dev/null; then
  note_failure 'aggregates accumulate through AggAccumulator (exec/agg_build.h); no boxed per-group state or per-row accumulate'
fi

# One share-vs-solo rule: a group of sessions shares only when its fused
# plan's static scan bytes (exec/executor.h ScanBytes) are below the sum of
# its members' (DESIGN.md §12.4). The guessed cost model it replaced
# (textbook-selectivity row estimates priced in ns) accepted a fold reading
# 12x its members' bytes, and its switch let tests bypass the verdict; keep
# both from growing back.
if grep -rnE 'CardinalityEstimator|CostModel|use_cost_model' \
    src bench examples 2>/dev/null; then
  note_failure 'cross-query sharing is decided by static scan bytes (ScanBytes); no cost model or switch around it'
fi

# The benchmark queries are SQL text bound by the front end (src/sql), the
# door users and the fuzzer go through, so the suite times parse and bind
# and exercises the plans that door produces. Hand-built PlanBuilder
# constructors for them were deleted; keep them from growing back.
if grep -rnE 'PlanBuilder|expr_builder\.h' src/tpcds 2>/dev/null; then
  note_failure 'src/tpcds writes its queries as SQL text (sql::BindSql); no PlanBuilder or expression-builder plans'
fi

# --- Layer 2: clang-tidy (optional) ----------------------------------------

if command -v clang-tidy >/dev/null 2>&1; then
  if [ -f "$BUILD_DIR/compile_commands.json" ]; then
    # shellcheck disable=SC2046
    if ! clang-tidy -p "$BUILD_DIR" --quiet $(find src -name '*.cc'); then
      note_failure 'clang-tidy reported findings'
    fi
  else
    echo "lint: skipping clang-tidy ($BUILD_DIR/compile_commands.json not found;" \
         "configure with CMake first)" >&2
  fi
else
  echo "lint: clang-tidy not installed; running grep checks only" >&2
fi

if [ "$failures" -ne 0 ]; then
  echo "lint: FAILED ($failures issue(s))" >&2
  exit 1
fi
echo "lint: OK"
