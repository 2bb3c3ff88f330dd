#!/usr/bin/env python3
"""Self-tests of the benchmark and its comparator.

    python3 perfbench/selftest.py [--seeds 1-5] [--seconds 6]

Run from the repository root; runs land in .perfbench/selftest/.  It
collects three sets of runs of every workload with the same code:

  A, B  plain runs: the comparator must pass B against A;
  C     runs with a delay injected by the benchmark's own wrapper around
        the one timed call into the `equilibrium` layer, which only the
        certify workload makes: the comparator must flag wall_s on that
        workload and nothing on the others.

The three sets are collected interleaved (A, B, C for one seed, then
the next), so a host whose speed drifts over minutes slows all three
alike; five seeds per set keep the medians from following one slow
stretch (with three, set-up time alone drifted 36% apart).  The delay (10 s) is larger than the certify workload itself.

It also runs the traced run of every workload, checks that every result
names exactly the metrics BENCHMARK.json lists, and checks that the
benchmark refuses to run outside a checkout.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import compare  # noqa: E402

DELAY_LAYER = "equilibrium"
DELAYED_WORKLOAD = "certify-bintree7-sum"
DELAY_MS = 10000


def compare_sets(base, new):
    p = subprocess.run([sys.executable, os.path.join(HERE, "compare.py"), "compare", base, new],
                       cwd=ROOT, stdout=subprocess.PIPE, text=True)
    print(p.stdout)
    flagged = json.loads(p.stdout.strip().splitlines()[-1].split("flagged: ", 1)[1])
    return p.returncode, [tuple(f) for f in flagged]


def check_names(runs, kind):
    want = {m["name"]: m["unit"] for m in compare.load_benchmark()[kind]}
    for r in runs:
        got = {k: v["unit"] for k, v in r["result"]["metrics"].items()}
        assert got == want, "metrics of %s differ from BENCHMARK.json: %s" % (r["workload"], got)
        assert r["result"]["correct"], "%s seed %d not correct" % (r["workload"], r["seed"])


def check_outside_checkout(work):
    d = os.path.join(work, "bare")
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), d)
    shutil.copytree(HERE, os.path.join(d, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", DELAYED_WORKLOAD,
                        "--seed", "1", "--seconds", "1", "--trace", "0"],
                       cwd=d, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                       timeout=180)
    assert p.returncode != 0 and p.stdout == "", "the benchmark ran outside a checkout"


def main():
    opts = dict(zip(sys.argv[1::2], sys.argv[2::2]))
    seeds = opts.get("--seeds", "1-5")
    seconds = opts.get("--seconds", "6")
    work = os.path.join(ROOT, ".perfbench", "selftest")
    os.makedirs(work, exist_ok=True)
    sets = {name: os.path.join(work, name + ".jsonl") for name in "ABC"}
    for path in sets.values():
        if os.path.exists(path):
            os.remove(path)
    delay = ["--inject-delay", "%s:%d" % (DELAY_LAYER, DELAY_MS)]
    for w in compare.load_benchmark()["workloads"]:
        for seed in compare.parse_seeds(seeds):
            for name, extra in (("A", []), ("B", []), ("C", delay)):
                row = compare.run_once(w["name"], seed, seconds, extra)
                with open(sets[name], "a") as f:
                    f.write(json.dumps(row) + "\n")
                sys.stderr.write("%s %s seed %d: wall_s=%.4g\n" % (
                    name, w["name"], seed, row["result"]["metrics"]["wall_s"]["value"]))
    for name in "AB":
        check_names(compare.load_runs(sets[name]), "end_to_end")
    check_names([compare.run_once(w["name"], 1, seconds, [], trace=1)
                 for w in compare.load_benchmark()["workloads"]], "per_layer")

    code, flagged = compare_sets(sets["A"], sets["B"])
    assert code == 0 and not flagged, "identical code flagged: %s" % flagged

    code, flagged = compare_sets(sets["A"], sets["C"])
    assert code == 1, "the injected delay was not flagged"
    assert (DELAYED_WORKLOAD, "wall_s") in flagged, "wall_s not flagged on %s" % DELAYED_WORKLOAD
    others = [f for f in flagged if f[0] != DELAYED_WORKLOAD]
    assert not others, "the delay was flagged on other workloads: %s" % others

    check_outside_checkout(work)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
