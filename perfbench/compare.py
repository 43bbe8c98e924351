#!/usr/bin/env python3
"""Collects and compares sets of benchmark runs.

Collect runs of one workload from checkouts of two commits (one stdout
file per run, named <workload>-t<trace>-s<seed>.out, under OUT/base and
OUT/change):

    python3 perfbench/compare.py collect --out DIR --workload scan_wide \
        --seeds 1-10 [--trace 0|1] --base BASE_ROOT [--change CHANGE_ROOT]

Each run uses its own checkout's perfbench/run.py, for the run_seconds in
BENCHMARK.json. With both checkouts, every seed runs on both, and the two
alternate which runs first from seed to seed. Without --change it
collects the base set alone.

Report one set (medians, quartiles and each end-to-end metric's spread,
the distance between its quartiles as a share of its median, against its
bound), or compare two:

    python3 perfbench/compare.py report DIR/base [DIR/change]

For two sets it prints, per workload and end-to-end metric, both sets'
medians and quartiles and a verdict under the bounds in BENCHMARK.json:
  better     of at least ten runs paired by seed, the change wins at
             least 9/10, and the medians differ by more than the base's
             quartile distance;
  worse      the change's median is worse by more than the bound, and
             the base's spread is within the bound or every change run
             is worse than every base run;
  unchanged  no worse than the bound allows;
  unresolved the base's own spread exceeds the bound and not every
             change run beats every base run, or the change would read
             better but fails a larger share of its operations than the
             base.
Each set's failed/attempted operations follow, and any run whose outputs
disagreed with the oracle is flagged; a change with such a run reads
"incorrect" on every metric. Then the traced runs' per-layer medians and
their relative deltas. Exits 1 on any worse, incorrect or too-wide
figure.
"""

import argparse
import glob
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10  # runs paired by seed needed before a gain is claimed


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_run(path):
    """Returns (workload, trace, seed, result, detail) of one saved run."""
    with open(path) as f:
        lines = f.read().splitlines()
    m = re.search(r"(.+)-t([01])-s(\d+)\.out$", os.path.basename(path))
    if not m or len(lines) < 2 or not lines[-2].startswith("perfbench-detail "):
        return None
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2][len("perfbench-detail "):])
    return m.group(1), int(m.group(2)), int(m.group(3)), result, detail


def load_set(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.out"))):
        run = parse_run(path)
        if run is None:
            print(f"skipping {path}: no result", file=sys.stderr)
            continue
        workload, trace, seed, result, detail = run
        runs.setdefault((workload, trace), {})[seed] = (result, detail)
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def verdict(base, change, better, bound):
    """base/change: lists of values paired by index."""
    q1, mb, q3 = quartiles(base)
    _, mc, _ = quartiles(change)
    sign = 1.0 if better == "lower" else -1.0
    worse_rel = sign * (mc - mb) / mb if mb else 0.0
    beats = lambda c, b: sign * (c - b) < 0  # noqa: E731
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if beats(c, b))
    if (len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and
            worse_rel < 0 and abs(mc - mb) > q3 - q1):
        return "better"
    all_better = all(beats(c, b) for c in change for b in base)
    all_worse = all(beats(b, c) for c in change for b in base)
    if worse_rel > bound and (all_worse or spread(base) <= bound):
        return "worse"
    if spread(base) > bound and not all_better:
        return "unresolved"
    return "unchanged"


def fmt(x):
    return f"{x:.6g}"


def tally(runs):
    """Returns (failed, attempted, seeds of runs that disagreed with the
    oracle) over a set's runs of one workload."""
    failed = sum(r[0]["failed"] for r in runs.values())
    attempted = sum(r[0]["attempted"] for r in runs.values())
    incorrect = sorted(s for s, r in runs.items() if not r[0]["correct"])
    return failed, attempted, incorrect


def failures_line(label, failed, attempted, incorrect):
    line = f"{label} failed/attempted {failed}/{attempted}"
    if incorrect:
        line += f"; INCORRECT runs, seeds {incorrect}"
    return line


def report(args):
    spec = load_spec()
    base = load_set(args.base)
    change = load_set(args.change) if args.change else None
    workloads = [w["name"] for w in spec["workloads"]]
    status = 0
    for w in workloads:
        runs = base.get((w, 0), {})
        if not runs:
            continue
        print(f"== {w} (untraced, {len(runs)} base runs)")
        other = change.get((w, 0), {}) if change else None
        b_failed, b_attempted, b_incorrect = tally(runs)
        c_failed, c_attempted, c_incorrect = tally(other or {})
        more_failures = bool(other) and (
            c_failed * max(b_attempted, 1) > b_failed * max(c_attempted, 1))
        if b_incorrect or c_incorrect:
            status = 1
        for m in spec["end_to_end"]:
            name = m["name"]
            seeds = sorted(runs)
            b = [runs[s][0]["metrics"][name]["value"] for s in seeds]
            q1, med, q3 = quartiles(b)
            line = (f"  {name:28s} base med {fmt(med)} [{fmt(q1)}, {fmt(q3)}] "
                    f"spread {spread(b):.3f}")
            if other:
                common = [s for s in seeds if s in other] or None
                if common:
                    b = [runs[s][0]["metrics"][name]["value"] for s in common]
                    seeds_c = common
                else:
                    seeds_c = sorted(other)
                c = [other[s][0]["metrics"][name]["value"] for s in seeds_c]
                cq1, cmed, cq3 = quartiles(c)
                if c_incorrect:
                    v = "incorrect"
                else:
                    v = verdict(b, c, m["better"], m["bound"])
                    if v == "better" and more_failures:
                        v = "unresolved"
                if v == "worse":
                    status = 1
                line += (f" | change med {fmt(cmed)} [{fmt(cq1)}, {fmt(cq3)}] "
                         f"{(cmed - med) / med * 100 if med else 0:+.1f}% "
                         f"-> {v} (bound {m['bound']})")
            else:
                ok = spread(b) <= m["bound"]
                line += f" bound {m['bound']} {'ok' if ok else 'TOO WIDE'}"
                if not ok:
                    status = 1
            print(line)
        print(failures_line("  base", b_failed, b_attempted, b_incorrect))
        if other:
            line = failures_line("  change", c_failed, c_attempted, c_incorrect)
            if more_failures:
                line += " (a larger share than the base: worse)"
                status = 1
            print(line)
        traced = base.get((w, 1), {})
        if traced:
            other_t = change.get((w, 1), {}) if change else {}
            print(f"  per-layer (traced, {len(traced)} base runs"
                  + (f", {len(other_t)} change runs)" if change else ")"))
            for label, t in (("base", traced), ("change", other_t)):
                _, _, incorrect = tally(t)
                if incorrect:
                    print(f"    {label} traced INCORRECT runs, seeds {incorrect}")
                    status = 1
            for m in spec["per_layer"]:
                name = m["name"]
                b = [r[0]["metrics"][name]["value"] for r in traced.values()]
                med = statistics.median(b)
                line = f"    {name:38s} {fmt(med):>12s} {m['unit']}"
                if other_t:
                    c = [r[0]["metrics"][name]["value"] for r in other_t.values()]
                    cmed = statistics.median(c)
                    delta = (cmed - med) / med * 100 if med else 0.0
                    line += f" -> {fmt(cmed):>12s} ({delta:+.1f}%)"
                print(line)
    return status


def run_once(root, out_dir, workload, seed, trace, seconds):
    path = os.path.join(out_dir, f"{workload}-t{trace}-s{seed}.out")
    with open(path, "w") as out:
        rc = subprocess.run(
            [sys.executable, os.path.join(root, "perfbench", "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=root, stdout=out).returncode
    print(f"{path}: exit {rc}", file=sys.stderr)
    return rc


def collect(args):
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    seconds = load_spec()["run_seconds"]
    sides = [("base", os.path.abspath(args.base))]
    if args.change:
        sides.append(("change", os.path.abspath(args.change)))
    for label, _ in sides:
        os.makedirs(os.path.join(args.out, label), exist_ok=True)
    status = 0
    for i, seed in enumerate(seeds):
        order = sides if i % 2 == 0 else sides[::-1]
        for label, root in order:
            rc = run_once(root, os.path.join(args.out, label), args.workload,
                          seed, args.trace, seconds)
            status = status or rc
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--workload", required=True)
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--trace", type=int, default=0, choices=[0, 1])
    c.add_argument("--base", default=ROOT,
                   help="checkout of the base commit (default: this one)")
    c.add_argument("--change", help="checkout of the changed commit")
    r = sub.add_parser("report")
    r.add_argument("base")
    r.add_argument("change", nargs="?")
    args = parser.parse_args()
    return collect(args) if args.command == "collect" else report(args)


if __name__ == "__main__":
    sys.exit(main())
