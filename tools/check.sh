#!/usr/bin/env bash
# The full pre-merge gate, in the order a failure is cheapest to hit:
#   1. tier-1: plain build + full ctest (plan verification on by default)
#   2. semantic verification: the TPC-DS-facing tests re-run with
#      FUSIONDB_VERIFY_SEMANTICS=1, so every rule firing across all modes
#      (and the server's cross-plan folds) re-proves its [semantic-*]
#      obligations; then tpcds_overall runs with the tier off and on and
#      tools/bench_diff.py gates the verification overhead at 5%
#   3. ThreadSanitizer over the `parallel`-labelled tests
#   4. UndefinedBehaviorSanitizer over the full suite
#   5. tools/lint.sh (banned patterns + clang-tidy when available)
#   6. bench smoke: spool_vs_fusion at tiny scale; multi_client_throughput
#      with tools/bench_diff.py gating the sharing path's single-client
#      latency against the solo path
#   7. service metrics: run_query --server with --metrics/--query-log and
#      assert both outputs are non-empty well-formed JSON (the binary's own
#      exit code already covers the counter-vs-attribution reconciliation);
#      then tpcds_overall with FUSIONDB_BENCH_METRICS off and on, with
#      tools/bench_diff.py gating the always-on recording overhead at 2%
#   8. SQL front door: run_query --sql positive + malformed-SQL negative
#      (caret diagnostic, exit 2), then the differential fuzz smoke — a
#      second fixed seed beyond the one tier-1 already ran, >= 200
#      generated queries, every one executed under all three optimizer
#      modes and checked against the reference evaluator
#
# Usage: tools/check.sh [-j N]
set -eu

JOBS="$(nproc 2>/dev/null || echo 2)"
while getopts "j:" opt; do
  case "$opt" in
    j) JOBS="$OPTARG" ;;
    *) echo "usage: $0 [-j N]" >&2; exit 2 ;;
  esac
done

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

echo "== [1/8] tier-1 build + tests =="
cmake -B build -S . >/dev/null
cmake --build build -j"$JOBS"
ctest --test-dir build --output-on-failure -j"$JOBS"

echo "== [2/8] semantic verification (FUSIONDB_VERIFY_SEMANTICS=1) =="
# Every optimizer mode's full TPC-DS sweep, plus the server's cross-plan
# folds, with the semantic tier re-proving each rewrite's obligations.
# plan_props_test covers derivation + the per-tag negative cases;
# tpcds_test/integration_equivalence_test/optimizer_test span all modes;
# server_test exercises the batch-time consumer checks.
FUSIONDB_VERIFY_SEMANTICS=1 ctest --test-dir build --output-on-failure \
  -j"$JOBS" -R '^(plan_props_test|tpcds_test|integration_equivalence_test|optimizer_test|server_test)$'
# Overhead gate: the tier must cost <= 5% on the whole-workload bench
# (derivation is DAG-memoized; most of the work amortizes). Gated on the
# workload total (--total): per-query medians at smoke scale are sub-ms
# and noisy, but the noise cancels in the sum.
(cd build/bench &&
  FUSIONDB_BENCH_SCALE=0.01 FUSIONDB_BENCH_REPEATS=5 \
    FUSIONDB_VERIFY_SEMANTICS=0 ./tpcds_overall &&
  mv BENCH_tpcds_overall.json BENCH_tpcds_overall.semantics_off.json &&
  FUSIONDB_BENCH_SCALE=0.01 FUSIONDB_BENCH_REPEATS=5 \
    FUSIONDB_VERIFY_SEMANTICS=1 ./tpcds_overall &&
  mv BENCH_tpcds_overall.json BENCH_tpcds_overall.semantics_on.json)
python3 tools/bench_diff.py \
  build/bench/BENCH_tpcds_overall.semantics_off.json \
  build/bench/BENCH_tpcds_overall.semantics_on.json --threshold 5 --total

echo "== [3/8] ThreadSanitizer (parallel tests) =="
cmake -B build-tsan -S . -DFUSIONDB_SANITIZE=thread >/dev/null
cmake --build build-tsan -j"$JOBS"
ctest --test-dir build-tsan --output-on-failure -L parallel

echo "== [4/8] UndefinedBehaviorSanitizer (full suite) =="
cmake -B build-ubsan -S . -DFUSIONDB_SANITIZE=undefined >/dev/null
cmake --build build-ubsan -j"$JOBS"
ctest --test-dir build-ubsan --output-on-failure -j"$JOBS"

echo "== [5/8] lint =="
tools/lint.sh build

echo "== [6/8] bench smoke + sharing overhead gate =="
# spool_vs_fusion is smoke-only: tiny scale, one repeat. It checks the
# bench runs and that its cross-config result-equivalence assertions hold.
(cd build/bench &&
  FUSIONDB_BENCH_SCALE=0.01 FUSIONDB_BENCH_REPEATS=1 ./spool_vs_fusion)
# Cross-query fusion server: the sweep's sharing assertions (billed bytes
# below the solo round's billed bytes, static bytes below the sessions' own
# static bytes, byte-identical results) run inside the bench; the diff
# gates the session layer's single-client overhead. Latency numbers at this
# scale are noisy, hence the forgiving threshold. 5 repeats, best-of-N in
# the gate reports; clients capped so the smoke stays fast.
(cd build/bench &&
  FUSIONDB_BENCH_SCALE=0.01 FUSIONDB_BENCH_REPEATS=5 \
    FUSIONDB_BENCH_MAX_CLIENTS=16 ./multi_client_throughput)
python3 tools/bench_diff.py \
  build/bench/BENCH_multi_client_throughput.solo.json \
  build/bench/BENCH_multi_client_throughput.shared.json --threshold 10

echo "== [7/8] service metrics smoke + overhead gate =="
# Smoke: a server run with the full telemetry surface on. run_query itself
# exits nonzero when the registry's counters fail to reconcile with the
# summed per-session attribution blocks, or when any telemetry write
# fails; the python check asserts the outputs are non-empty, well-formed,
# and carry one query-log event per client.
METRICS_DIR="$(mktemp -d)"
trap 'rm -rf "$METRICS_DIR"' EXIT
build/examples/run_query q65 0.01 --server --clients=8 \
  --metrics="$METRICS_DIR/metrics.json" \
  --query-log="$METRICS_DIR/query_log.jsonl" --slow-ms=10000 >/dev/null
python3 - "$METRICS_DIR" <<'EOF'
import json, sys
d = sys.argv[1]
m = json.load(open(d + "/metrics.json"))
assert m["schema_version"] == 4, m.get("schema_version")
assert m["counters"]["fusiondb_server_sessions_total"] == 8, m["counters"]
assert m["histograms"]["fusiondb_server_queue_wait_us"]["count"] == 8
assert m["histograms"]["fusiondb_server_plan_us"]["count"] == 8
assert m["histograms"]["fusiondb_server_execute_us"]["count"] == 8
events = [json.loads(l) for l in open(d + "/query_log.jsonl")]
assert len(events) == 8, len(events)
assert all(e["schema_version"] == 4 for e in events)
assert all(e["queue_wait_us"] >= e["plan_us"] for e in events)
print("metrics smoke: snapshot + %d query-log events OK" % len(events))
EOF
# Overhead gate: always-on recording must cost <= 2% on the whole-workload
# bench. Same --total rationale as the semantic-verification gate. The two
# configurations are run interleaved (off/on, three rounds) and compared on
# per-query best-of-rounds, because single process-pairs drift by more than
# the threshold on shared hardware (same discipline as the sharing gate);
# bench_diff.py --rounds merges each configuration's rounds into its
# best-of-3 report before diffing.
(cd build/bench &&
  for round in 1 2 3; do
    FUSIONDB_BENCH_SCALE=0.01 FUSIONDB_BENCH_REPEATS=3 \
      FUSIONDB_BENCH_METRICS=0 ./tpcds_overall &&
    mv BENCH_tpcds_overall.json "BENCH_tpcds_overall.metrics_off.$round.json" &&
    FUSIONDB_BENCH_SCALE=0.01 FUSIONDB_BENCH_REPEATS=3 \
      FUSIONDB_BENCH_METRICS=1 ./tpcds_overall &&
    mv BENCH_tpcds_overall.json "BENCH_tpcds_overall.metrics_on.$round.json" ||
    exit 1
  done)
python3 tools/bench_diff.py \
  build/bench/BENCH_tpcds_overall.metrics_off.json \
  build/bench/BENCH_tpcds_overall.metrics_on.json \
  --rounds 3 --threshold 2 --total

echo "== [8/8] SQL front door + differential fuzz smoke =="
# Positive: SQL text through the engine front door matches the named-query
# path's own self-checks (the binary exits nonzero on any mismatch).
build/examples/run_query --sql \
  'SELECT ss_item_sk, SUM(ss_sales_price) AS total FROM store_sales
   WHERE ss_quantity > 5 GROUP BY ss_item_sk ORDER BY total DESC LIMIT 10' \
  0.01 >/dev/null
# Negative: malformed SQL must produce a caret diagnostic and exit 2 —
# not 0 (silently accepted) and not 1 (crashed past the parser).
set +e
build/examples/run_query --sql 'SELECT nope FROM store_sales' 0.01 \
  >/dev/null 2>"$METRICS_DIR/sql_err.txt"
sql_rc=$?
set -e
if [ "$sql_rc" -ne 2 ]; then
  echo "check: malformed SQL exited $sql_rc, want 2" >&2
  cat "$METRICS_DIR/sql_err.txt" >&2
  exit 1
fi
grep -q '\^' "$METRICS_DIR/sql_err.txt" || {
  echo "check: malformed SQL produced no caret snippet:" >&2
  cat "$METRICS_DIR/sql_err.txt" >&2
  exit 1
}
# Fuzz smoke at a second fixed seed (tier-1 ctest already covered the
# default seed 20260807 at 500 queries). Divergences write minimized
# sql_fuzz_repro_*.sql reproducers into build/tests, which CI uploads.
(cd build/tests &&
  FUSIONDB_FUZZ_SEED=31337 FUSIONDB_FUZZ_QUERIES=250 ./sql_fuzz_test)

echo "check: all gates passed"
