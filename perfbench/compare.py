#!/usr/bin/env python3
"""Collect benchmark runs, measure their spread, and compare two sets.

    python3 perfbench/compare.py collect OUT.jsonl [--workloads A,B] [--seeds 1-10]
                                 [--seconds S] [-- EXTRA BENCH ARGS]
    python3 perfbench/compare.py spread RUNS.jsonl
    python3 perfbench/compare.py compare BASE.jsonl NEW.jsonl

`collect` runs run.py once per (workload, seed) from the repository root
and appends one JSON line per run: its provenance line and its result.
`spread` prints, per workload and end-to-end metric, the median, the
quartiles and the spread (interquartile distance over median) beside
the metric's bound.  `compare` flags every workload/metric whose median
in NEW is worse than in BASE by more than the bound BENCHMARK.json
fixes; it exits 1 if anything is flagged, and refuses to compare runs
from different host keys.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, extra, trace=0):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + extra
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or len(lines) < 2:
        sys.stderr.write(p.stderr)
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd), p.returncode))
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"workload": workload, "seed": seed, "detail": detail, "result": result}


def collect(args):
    bench = load_benchmark()
    out = args[0]
    extra = []
    if "--" in args:
        extra = args[args.index("--") + 1:]
        args = args[:args.index("--")]
    opts = dict(zip(args[1::2], args[2::2]))
    workloads = opts.get("--workloads")
    workloads = workloads.split(",") if workloads else [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(opts.get("--seeds", "1-10"))
    seconds = opts.get("--seconds", str(bench["run_seconds"]))
    with open(out, "a") as f:
        for w in workloads:
            for s in seeds:
                row = run_once(w, s, seconds, extra)
                f.write(json.dumps(row) + "\n")
                f.flush()
                m = row["result"]["metrics"]
                sys.stderr.write("%s seed %d: %s\n" % (
                    w, s, " ".join("%s=%.6g" % (k, v["value"]) for k, v in m.items())))


def load_runs(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def by_workload(runs):
    groups = {}
    for r in runs:
        groups.setdefault(r["workload"], []).append(r)
    return groups


def host_keys(runs):
    return {r["detail"]["provenance"]["host_key"] for r in runs}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(args):
    bench = load_benchmark()
    runs = load_runs(args[0])
    worst = 0.0
    for w, rs in by_workload(runs).items():
        print("%s (%d runs)" % (w, len(rs)))
        for m in bench["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in rs]
            q1, med, q3 = quartiles(values)
            sp = (q3 - q1) / med if med else float("inf")
            if m["name"] != "setup_s":
                worst = max(worst, sp / m["bound"])
            print("  %-22s median %-12.6g q1 %-12.6g q3 %-12.6g spread %6.3f  bound %.2f%s"
                  % (m["name"], med, q1, q3, sp, m["bound"],
                     "" if m["name"] == "setup_s" or sp < m["bound"] else "  OVER"))
        failed = [r for r in rs if not r["result"]["correct"]]
        if failed:
            print("  %d runs not correct" % len(failed))
    print("worst spread / bound (setup_s excluded): %.3f" % worst)


def worse_by(metric, base, new):
    """Share by which NEW is worse than BASE (negative: better)."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    d = (new - base) / abs(base)
    return d if metric["better"] == "lower" else -d


def compare(args):
    bench = load_benchmark()
    base, new = load_runs(args[0]), load_runs(args[1])
    keys = host_keys(base) | host_keys(new)
    if len(keys) != 1:
        raise SystemExit("refusing to compare runs from different hosts: %s" % sorted(keys))
    flagged = []
    new_groups = by_workload(new)
    for w, brs in by_workload(base).items():
        nrs = new_groups.get(w)
        if not nrs:
            continue
        for m in bench["end_to_end"]:
            b = statistics.median(r["result"]["metrics"][m["name"]]["value"] for r in brs)
            n = statistics.median(r["result"]["metrics"][m["name"]]["value"] for r in nrs)
            d = worse_by(m, b, n)
            mark = "REGRESSED" if d > m["bound"] else "ok"
            if d > m["bound"]:
                flagged.append((w, m["name"]))
            print("%-27s %-22s base %-12.6g new %-12.6g worse by %+7.3f (bound %.2f) %s"
                  % (w, m["name"], b, n, d, m["bound"], mark))
        if not all(r["result"]["correct"] for r in nrs):
            flagged.append((w, "correct"))
            print("%-27s runs not correct" % w)
    print("flagged: %s" % json.dumps(flagged))
    return 1 if flagged else 0


def main():
    if len(sys.argv) < 3:
        print(__doc__)
        return 2
    cmd, args = sys.argv[1], sys.argv[2:]
    if cmd == "collect":
        collect(args)
    elif cmd == "spread":
        spread(args)
    elif cmd == "compare":
        return compare(args)
    else:
        print(__doc__)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
