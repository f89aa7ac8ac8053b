#!/usr/bin/env python3
"""Bench regression gate.

Parses one or more `go test -bench` text outputs, compares every
benchmark that also appears in a checked-in baseline JSON (BENCH_PR*.json)
on ns/op, and fails if any regresses by more than the threshold.
Benchmarks present on only one side are reported and skipped — the gate
compares the intersection, so adding new benchmarks never breaks it —
with one exception: a benchmark in this run that matches --hotpath but
has no baseline entry fails the gate, so a hot path whose baseline
entry is missing cannot pass unchecked.

Baseline entries marked "hotpath": true get a second, stricter check:
any increase in allocs/op fails the gate outright, with no threshold.
ns/op is noisy on shared runners; an allocation count is deterministic,
so a +1 there is a real regression on a path the energylint hotalloc
rule audits (run the benches with -benchmem or the counts parse as 0).
B/op deltas on hotpath benchmarks are printed but do not gate — byte
sizes move with unrelated struct edits; the allocation count is the
contract.

Optionally re-emits the parsed results in the BENCH_PR*.json schema so
the next PR's baseline is one `--emit` away; --hotpath REGEX stamps the
marker onto matching benchmark names at emit time.

Usage:
  go test -run '^$' -bench 'BenchmarkRing' -benchmem ./internal/fleet | tee /tmp/b1.txt
  python3 scripts/bench_gate.py --baseline BENCH_PR<N>.json /tmp/b1.txt
  python3 scripts/bench_gate.py --baseline BENCH_PR<N>.json \
      --emit BENCH_PR<N+1>.json --pr <N+1> --hotpath 'CacheGet|MixSeed' \
      --note '...' /tmp/b1.txt /tmp/b2.txt

where BENCH_PR<N>.json is the newest checked-in baseline.
"""

import argparse
import datetime
import json
import re
import sys

BENCH_RE = re.compile(
    r"^(Benchmark\S+?)(-\d+)?\s+(\d+)\s+([\d.]+) ns/op"
    r"(?:\s+(\d+) B/op\s+(\d+) allocs/op)?"
)
META_RE = re.compile(r"^(goos|goarch|cpu): (.+)$")


def parse(paths):
    """Returns ({name: result dict}, {goos/goarch/cpu}). The name has the
    trailing -<GOMAXPROCS> suffix stripped; a name seen more than once
    (e.g. -count=N) keeps its fastest run."""
    results, meta = {}, {}
    for path in paths:
        with open(path) as f:
            for line in f:
                line = line.strip()
                m = META_RE.match(line)
                if m:
                    meta[m.group(1)] = m.group(2).strip()
                    continue
                m = BENCH_RE.match(line)
                if not m:
                    continue
                name = m.group(1)
                r = {
                    "name": name,
                    "iterations": int(m.group(3)),
                    "ns_per_op": float(m.group(4)),
                    "bytes_per_op": int(m.group(5) or 0),
                    "allocs_per_op": int(m.group(6) or 0),
                }
                if name not in results:
                    results[name] = r
                else:
                    # Fastest ns/op, min allocs/bytes: each metric takes
                    # its best observation so one noisy run cannot fail
                    # the strict hotpath allocation gate.
                    prev = results[name]
                    if r["ns_per_op"] < prev["ns_per_op"]:
                        prev["ns_per_op"] = r["ns_per_op"]
                        prev["iterations"] = r["iterations"]
                    prev["bytes_per_op"] = min(prev["bytes_per_op"], r["bytes_per_op"])
                    prev["allocs_per_op"] = min(prev["allocs_per_op"], r["allocs_per_op"])
    return results, meta


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("bench_output", nargs="+", help="go test -bench output files")
    ap.add_argument("--baseline", required=True, help="baseline BENCH_PR*.json")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="max allowed fractional ns/op regression (default 0.15)")
    ap.add_argument("--emit", help="write parsed results as a new BENCH_PR*.json")
    ap.add_argument("--hotpath", default="",
                    help="regex over benchmark names; matches are stamped "
                         '"hotpath": true at --emit, gate on allocs/op, '
                         "and must have a baseline entry")
    ap.add_argument("--pr", type=int, help="PR number for --emit")
    ap.add_argument("--note", default="", help="note field for --emit")
    ap.add_argument("--benchtime", default="1s", help="benchtime field for --emit")
    ap.add_argument("--command", default="", help="command field for --emit")
    args = ap.parse_args()

    with open(args.baseline) as f:
        baseline = {r["name"]: r for r in json.load(f)["results"]}
    results, meta = parse(args.bench_output)
    if not results:
        print("bench_gate: no benchmark lines found in input", file=sys.stderr)
        return 2

    failed = False
    compared = 0
    regressions = 0
    max_delta = None
    for name in sorted(baseline):
        if name not in results:
            print(f"  SKIP  {name}: in baseline, not in this run")
            continue
        compared += 1
        old, new = baseline[name]["ns_per_op"], results[name]["ns_per_op"]
        delta = (new - old) / old
        if max_delta is None or delta > max_delta:
            max_delta = delta
        verdict = "ok"
        if delta > args.threshold:
            verdict = "REGRESSION"
            regressions += 1
            failed = True
        print(f"  {verdict:>10}  {name}: {old:g} -> {new:g} ns/op ({delta:+.1%})")
        if baseline[name].get("hotpath"):
            oa = baseline[name].get("allocs_per_op", 0)
            na = results[name]["allocs_per_op"]
            ob = baseline[name].get("bytes_per_op", 0)
            nb = results[name]["bytes_per_op"]
            if na > oa:
                regressions += 1
                failed = True
                print(f"  REGRESSION  {name}: {oa} -> {na} allocs/op "
                      f"(hotpath benchmarks gate on any allocation increase)")
            else:
                print(f"          ok  {name}: {oa} -> {na} allocs/op, "
                      f"{ob} -> {nb} B/op (hotpath)")
    hot = re.compile(args.hotpath) if args.hotpath else None
    for name in sorted(set(results) - set(baseline)):
        if hot and hot.search(name):
            regressions += 1
            failed = True
            print(f"  MISSING  {name}: matches --hotpath but has no baseline entry")
        else:
            print(f"   NEW  {name}: {results[name]['ns_per_op']:g} ns/op (no baseline)")
    if compared == 0:
        print("bench_gate: no benchmark overlaps the baseline", file=sys.stderr)
        return 2

    if args.emit:
        if args.pr is None:
            print("bench_gate: --emit requires --pr", file=sys.stderr)
            return 2
        if hot:
            for r in results.values():
                if hot.search(r["name"]):
                    r["hotpath"] = True
        doc = {
            "pr": args.pr,
            "date": datetime.date.today().isoformat(),
            "goos": meta.get("goos", ""),
            "goarch": meta.get("goarch", ""),
            "cpu": meta.get("cpu", ""),
            "benchtime": args.benchtime,
            "command": args.command,
            "note": args.note,
            "results": [results[k] for k in sorted(results)],
        }
        with open(args.emit, "w") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
        # One-line machine-readable summary for the CI log: what was
        # emitted, what was compared, and the worst observed delta.
        summary = {
            "bench_gate": {
                "emitted": args.emit,
                "pr": args.pr,
                "results": len(results),
                "compared": compared,
                "regressions": regressions,
                "threshold": args.threshold,
                "max_delta": round(max_delta, 4) if max_delta is not None else None,
            }
        }
        print(json.dumps(summary, separators=(",", ":")))

    if failed:
        print(f"bench_gate: ns/op regression beyond {args.threshold:.0%}, "
              f"allocs/op increase on a hotpath benchmark, "
              f"or a hotpath benchmark without a baseline entry",
              file=sys.stderr)
        return 1
    print(f"bench_gate: {compared} benchmarks within {args.threshold:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
