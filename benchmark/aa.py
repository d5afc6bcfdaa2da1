#!/usr/bin/env python3
"""A/A check of the benchmark: two sets of runs of the same build must agree.

Run from the repository root:

    python3 benchmark/aa.py [--runs N] [--out benchmark/AA.md]

For every workload of BENCHMARK.json it runs the command N times per set
(seeds 1..N, so a set spans N different inputs), twice, plus one traced run
per set, and prints a markdown report:

- per end-to-end metric: both sets' medians and quartiles, the spread
  (inter-quartile distance / median, `statistics.quantiles(values, n=4)`)
  and how much worse set B's median is than set A's;
- per-layer counts (`count`-like units) of the single-threaded workloads,
  which must be identical in both sets.

Exit status is non-zero if a spread (other than `setup_s`) exceeds the
metric's bound, if set B's median is worse than set A's by more than the
bound, if a deterministic count differs, or if any run fails its checks.
`--runs 10` is the acceptance procedure of the benchmark contract; the issue's
quick form is `--runs 3`.
"""

import argparse
import json
import statistics
import subprocess
import sys

SINGLE_THREADED = ("sync_small", "sync_large", "sync_chaos", "train_torus")
COUNT_UNITS = ("count", "bytes", "bits/elem", "draws/word")
# Model outputs that are floats but still deterministic given the seed.
COUNT_NAMES = ("core.matching_rate", "simnet.sim_ms_per_round")


def run(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"FAILED ({proc.returncode}): {' '.join(cmd)}\n{proc.stdout[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"checks failed: {' '.join(cmd)}\n{proc.stdout[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--out", default=None, help="also write the report here")
    args = parser.parse_args()
    if args.runs < 2:
        sys.exit("--runs must be at least 2 (quartiles need two values)")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]

    sets = []
    traces = []
    for label in "AB":
        results, traced = {}, {}
        for workload in workloads:
            results[workload] = []
            for seed in range(1, args.runs + 1):
                print(f"set {label} {workload} seed {seed}", file=sys.stderr)
                results[workload].append(run(spec, workload, seed, 0))
            traced[workload] = run(spec, workload, 1, 1)
        sets.append(results)
        traces.append(traced)

    ok = True
    out = [
        "# A/A check",
        "",
        f"Two sets of {args.runs} runs per workload (seeds 1..{args.runs}, "
        f"{spec['run_seconds']} s each) of one build, by `benchmark/aa.py --runs {args.runs}`.",
        "Spread = (Q3 - Q1) / median; `B worse` = how far set B's median is on the bad "
        "side of set A's. Both must stay within the bound (`setup_s`: the median only).",
        "",
    ]
    for workload in workloads:
        out += [
            f"## {workload}",
            "",
            "| metric | unit | A q1 / median / q3 | B q1 / median / q3 "
            "| spread A | spread B | B worse | bound | verdict |",
            "|---|---|---|---|---|---|---|---|---|",
        ]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = quartiles([r[name] for r in sets[0][workload]])
            b = quartiles([r[name] for r in sets[1][workload]])
            spread = [(q[2] - q[0]) / q[1] for q in (a, b)]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (b[1] - a[1]) / a[1]
            good = worse <= bound and (name == "setup_s" or max(spread) <= bound)
            ok &= good
            fmt = lambda q: " / ".join(f"{x:.4g}" for x in q)
            out.append(
                f"| `{name}` | {metric['unit']} | {fmt(a)} | {fmt(b)} "
                f"| {spread[0]:.2%} | {spread[1]:.2%} | {worse:+.2%} | {bound:.0%} "
                f"| {'ok' if good else 'FAIL'} |"
            )
        out.append("")

    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    out += [
        "## Per-layer counts",
        "",
        "Counts of the single-threaded workloads repeat exactly (traced run, seed 1).",
        "",
        "| workload | counts compared | differing |",
        "|---|---|---|",
    ]
    for workload in SINGLE_THREADED:
        names = [
            n for n, u in units.items()
            if (u in COUNT_UNITS or n in COUNT_NAMES) and not n.startswith("serve.")
        ]
        differing = [n for n in names if traces[0][workload][n] != traces[1][workload][n]]
        ok &= not differing
        out.append(f"| {workload} | {len(names)} | {', '.join(differing) or 'none'} |")
    out += ["", f"Verdict: {'PASS' if ok else 'FAIL'}", ""]

    report = "\n".join(out)
    print(report)
    if args.out:
        with open(args.out, "w") as f:
            f.write(report)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
