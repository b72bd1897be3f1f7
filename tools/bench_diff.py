#!/usr/bin/env python3
"""Compare two BENCH_<name>.json reports and flag wall-clock regressions.

Usage: tools/bench_diff.py BASELINE.json CANDIDATE.json [--threshold PCT]
           [--total] [--config NAME] [--rounds N]

Records are keyed by (query, config, threads); every benchmark present in
both reports gets a wall_ms delta line. Exits non-zero when any shared
benchmark regresses by more than the threshold (default 10%), so CI can gate
on it:

    ./bench/expr_micro && mv BENCH_expr_micro.json before.json
    # ... apply change, rebuild ...
    ./bench/expr_micro && tools/bench_diff.py before.json BENCH_expr_micro.json

Benchmarks present in only one report are listed but never fail the check
(renames should not mask real regressions elsewhere).

With --total the gate applies to the summed wall_ms over shared benchmarks
instead of per benchmark. Use it for overheads that are amortized across a
whole workload (e.g. the semantic-verification tier): per-query medians at
smoke scale are sub-millisecond and noisy, but the noise cancels in the sum.
Per-benchmark deltas are still printed for diagnosis.

With --config NAME only records whose config field equals NAME are compared.
Use it when one report mixes populations with different expectations — e.g.
pipeline_micro's fused-chain entries vs its floor entries.

With --rounds N each side was run N times, interleaved, to cancel drift
on shared hardware: BASELINE.json and CANDIDATE.json name the merged
reports, and the rounds are read from the same path with .1.json ...
.N.json in place of .json (BENCH_x.off.json <- BENCH_x.off.1.json, ...).
Each record keeps its best (minimum) wall_ms over the rounds; the merged
report is written to BASELINE.json / CANDIDATE.json and then diffed.
"""

import argparse
import json
import sys


def load_records(path):
    """Returns {(query, config, threads): wall_ms} for one report."""
    try:
        with open(path) as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench_diff: cannot read {path}: {e}")
    records = {}
    for r in report.get("records", []):
        key = (r["query"], r.get("config", ""), r.get("threads", 1))
        if key in records:
            sys.exit(f"bench_diff: duplicate record {key} in {path}")
        records[key] = float(r["wall_ms"])
    if not records:
        sys.exit(f"bench_diff: {path} has no records")
    return records


def merge_rounds(path, rounds):
    """Writes `path` as the best-of-`rounds` merge of its numbered rounds."""
    stem = path[:-len(".json")] if path.endswith(".json") else path
    reports = []
    for i in range(1, rounds + 1):
        round_path = f"{stem}.{i}.json"
        try:
            with open(round_path) as f:
                reports.append(json.load(f))
        except (OSError, json.JSONDecodeError) as e:
            sys.exit(f"bench_diff: cannot read {round_path}: {e}")
    merged = reports[0]
    for rec, *others in zip(*(r["records"] for r in reports)):
        rec["wall_ms"] = min([rec["wall_ms"]] + [o["wall_ms"] for o in others])
    with open(path, "w") as f:
        json.dump(merged, f)
    print(f"merged {path}: best-of-{rounds} over "
          f"{len(merged['records'])} records")


def fmt_key(key):
    query, config, threads = key
    out = query
    if config:
        out += f" [{config}]"
    if threads != 1:
        out += f" x{threads}t"
    return out


def main():
    parser = argparse.ArgumentParser(
        description="Diff two BENCH_<name>.json reports by wall_ms.")
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="regression threshold in percent (default 10)")
    parser.add_argument("--total", action="store_true",
                        help="gate the summed wall_ms over shared benchmarks "
                             "instead of each benchmark individually")
    parser.add_argument("--config", default=None,
                        help="only compare records with this config field")
    parser.add_argument("--rounds", type=int, default=0,
                        help="merge N numbered rounds per side (best-of-N "
                             "wall_ms) into the named reports first")
    args = parser.parse_args()

    if args.rounds > 0:
        merge_rounds(args.baseline, args.rounds)
        merge_rounds(args.candidate, args.rounds)

    base = load_records(args.baseline)
    cand = load_records(args.candidate)
    if args.config is not None:
        base = {k: v for k, v in base.items() if k[1] == args.config}
        cand = {k: v for k, v in cand.items() if k[1] == args.config}
        if not base or not cand:
            sys.exit(f"bench_diff: no records with config "
                     f"'{args.config}' in both reports")
    shared = sorted(set(base) & set(cand))
    only_base = sorted(set(base) - set(cand))
    only_cand = sorted(set(cand) - set(base))

    width = max((len(fmt_key(k)) for k in shared), default=10)
    regressions = []
    print(f"{'benchmark':<{width}}  {'base ms':>10}  {'cand ms':>10}  delta")
    for key in shared:
        b, c = base[key], cand[key]
        pct = (c - b) / b * 100.0 if b > 0 else 0.0
        marker = ""
        if pct > args.threshold and not args.total:
            marker = "  REGRESSION"
            regressions.append((key, pct))
        print(f"{fmt_key(key):<{width}}  {b:>10.4f}  {c:>10.4f}  "
              f"{pct:>+7.1f}%{marker}")

    for key in only_base:
        print(f"{fmt_key(key)}: only in baseline")
    for key in only_cand:
        print(f"{fmt_key(key)}: only in candidate")

    if args.total:
        total_base = sum(base[k] for k in shared)
        total_cand = sum(cand[k] for k in shared)
        pct = ((total_cand - total_base) / total_base * 100.0
               if total_base > 0 else 0.0)
        print(f"\ntotal over {len(shared)} shared benchmark(s): "
              f"{total_base:.4f} ms -> {total_cand:.4f} ms ({pct:+.1f}%)")
        if pct > args.threshold:
            print(f"bench_diff: total regressed more than "
                  f"{args.threshold:g}% (+{pct:.1f}%)", file=sys.stderr)
            return 1
        print(f"bench_diff: OK (total within {args.threshold:g}%)")
        return 0

    if regressions:
        print(f"\nbench_diff: {len(regressions)} benchmark(s) regressed "
              f"more than {args.threshold:g}%:", file=sys.stderr)
        for key, pct in regressions:
            print(f"  {fmt_key(key)}: +{pct:.1f}%", file=sys.stderr)
        return 1
    print(f"\nbench_diff: OK ({len(shared)} shared benchmark(s), "
          f"none regressed more than {args.threshold:g}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
