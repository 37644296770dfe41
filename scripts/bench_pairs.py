#!/usr/bin/env python3
"""Paired parent/change runs of one perfbench workload.

    python3 scripts/bench_pairs.py --parent HEAD~1 --workload chip64 \\
        --pairs 10 [--seconds 8] [--trace-pairs 2] [--out BENCH.json]

Exports REV with `git archive` to .bench_build/parent-<commit>/ and runs
perfbench/run.py alternately there and in this working tree, with
tracing off. Pair i uses seed i, and the side that runs first flips
every pair. Both trees build their perfbench driver before the first
pair.

For every end-to-end metric in BENCHMARK.json it prints each side's
median and quartiles, how many pairs the change won (ties count for
neither side) and a verdict, following the rule for small sandboxes in
the choosing-metrics guide (section 8):

  gain          the change won at least 9/10 of the pairs, and the
                medians differ by more than the parent's quartile spread
  better        the spread is wider than the bound, but every change run
                beat every parent run
  unresolved    either side's quartile spread, relative to its median,
                is wider than the metric's bound
  worse         the change's median is worse than the parent's by more
                than the bound
  within bound  otherwise

--trace-pairs N then runs N more alternating pairs with tracing on
(perfbench/run.py --trace 1), which report the per-layer metrics instead,
and prints each per-layer metric's parent and change medians. These
metrics carry no bound, so they get no verdict: they show where a saving
lands.

--out FILE stores every run (its metrics and perfbench's "#" lines:
context, digests and samples), the traced runs and the summary under the
workload's name, keeping the other workloads already in FILE. The exit
status is 1 when any run reports incorrect output, 0 otherwise.
"""

import argparse
import importlib.util
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def fail(message):
    print(f"bench_pairs.py: {message}", file=sys.stderr)
    sys.exit(2)


def git(*args):
    run = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                         text=True)
    if run.returncode:
        fail(f"git {' '.join(args)}: {run.stderr.strip()}")
    return run.stdout.strip()


def export_parent(rev):
    """The parent tree for @rev, exported once and reused after."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    tree = ROOT / ".bench_build" / f"parent-{commit[:12]}"
    if not (tree / "BENCHMARK.json").is_file():
        tree.mkdir(parents=True, exist_ok=True)
        archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        untar = subprocess.run(["tar", "-x", "-C", str(tree)],
                               stdin=archive.stdout)
        archive.stdout.close()
        if archive.wait() or untar.returncode:
            fail(f"could not export {commit} to {tree}")
    return commit, tree


def build(side, tree):
    """Build the tree's perfbench driver with its own run.py."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_run_{side}", tree / "perfbench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.build()


def run_once(tree, workload, seed, seconds, trace=0):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    run = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE,
                         text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode not in (0, 1) or not lines:
        fail(f"{' '.join(command)} in {tree} exited {run.returncode}")
    result = json.loads(lines[-1])
    return {
        "seed": seed,
        "correct": result["correct"],
        "metrics": {name: m["value"]
                    for name, m in result["metrics"].items()},
        # Paths relative to this checkout, so records compare across
        # machines.
        "lines": [line.replace(f"{ROOT}/", "") for line in lines[:-1]
                  if line.startswith("#")],
    }


def run_pairs(sides, workload, pairs, seconds, trace):
    """@pairs alternating pairs; pair i uses seed i, and the side that
    runs first flips every pair."""
    runs = []
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change",
                                                             "parent")
        for side in order:
            run = run_once(sides[side], workload, pair, seconds, trace)
            run.update(pair=pair, side=side)
            runs.append(run)
            print(f"{'traced ' if trace else ''}pair {pair} {side}: " +
                  ", ".join(f"{k}={v:.4g}"
                            for k, v in run["metrics"].items()),
                  file=sys.stderr)
    return runs


def print_table(rows):
    """Columns padded to width; the last one is left ragged."""
    widths = [max(len(row[i]) for row in rows)
              for i in range(len(rows[0]) - 1)]
    for row in rows:
        print("  ".join([text.ljust(width)
                         for text, width in zip(row, widths)] + [row[-1]]))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def relative(spread, median):
    if median == 0:
        return 0.0 if spread == 0 else float("inf")
    return spread / abs(median)


def summarize(parent, change, bound, lower_better):
    """Medians, quartiles, wins and the section-8 verdict."""
    sign = 1.0 if lower_better else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    gained = sign * (pm - cm)
    if wins >= 0.9 * len(parent) and gained > p3 - p1:
        verdict = "gain"
    elif max(relative(p3 - p1, pm), relative(c3 - c1, cm)) > bound:
        all_better = all(sign * (p - c) > 0
                         for p in parent for c in change)
        verdict = "better" if all_better else "unresolved"
    elif relative(-gained, pm) > bound:
        verdict = "worse"
    else:
        verdict = "within bound"
    return {
        "parent": {"median": pm, "q1": p1, "q3": p3},
        "change": {"median": cm, "q1": c1, "q3": c3},
        "wins": wins,
        "pairs": len(parent),
        "verdict": verdict,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, metavar="REV")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace-pairs", type=int, default=0, metavar="N")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload}; choose from {names}")
    if args.pairs < 1:
        fail("--pairs must be at least 1")
    if args.trace_pairs < 0:
        fail("--trace-pairs must not be negative")
    seconds = args.seconds or benchmark["run_seconds"]

    commit, parent_tree = export_parent(args.parent)
    sides = {"parent": parent_tree, "change": ROOT}
    for side, tree in sides.items():
        build(side, tree)

    runs = run_pairs(sides, args.workload, args.pairs, seconds, 0)
    traced = run_pairs(sides, args.workload, args.trace_pairs, seconds, 1)

    summary = {}
    rows = [("metric", "parent median (q1-q3)", "change median (q1-q3)",
             "wins", "verdict")]
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        values = {side: [r["metrics"][name] for r in runs
                         if r["side"] == side]
                  for side in sides}
        s = summarize(values["parent"], values["change"], metric["bound"],
                      metric["better"] == "lower")
        summary[name] = s

        def cell(q):
            return (f"{q['median']:.4g} ({q['q1']:.4g}-{q['q3']:.4g}) "
                    f"{metric['unit']}")
        rows.append((name, cell(s["parent"]), cell(s["change"]),
                     f"{s['wins']}/{s['pairs']}", s["verdict"]))
    print(f"{args.workload}: {args.pairs} pairs of {seconds:g} s runs, "
          f"parent {commit[:12]} vs working tree")
    print_table(rows)

    per_layer = {}
    rows = [("per-layer metric", "parent median", "change median")]
    for metric in benchmark["per_layer"] if traced else []:
        name = metric["name"]
        values = {side: [r["metrics"][name] for r in traced
                         if r["side"] == side and name in r["metrics"]]
                  for side in sides}
        if not all(values.values()):
            continue
        medians = {side: statistics.median(v) for side, v in values.items()}
        per_layer[name] = medians
        rows.append((name, f"{medians['parent']:.4g} {metric['unit']}",
                     f"{medians['change']:.4g} {metric['unit']}"))
    if traced:
        print(f"{args.workload}: {args.trace_pairs} traced pairs "
              "(no bound, no verdict)")
        print_table(rows)

    incorrect = [r for r in runs + traced if not r["correct"]]
    for r in incorrect:
        print(f"pair {r['pair']} {r['side']}: incorrect output",
              file=sys.stderr)

    if args.out:
        record = json.loads(args.out.read_text()) if args.out.is_file() \
            else {}
        record[args.workload] = {
            "parent": commit,
            "pairs": args.pairs,
            "seconds": seconds,
            "command": " ".join(sys.argv),
            "summary": summary,
            "runs": runs,
        }
        if traced:
            record[args.workload].update(trace_pairs=args.trace_pairs,
                                         per_layer=per_layer,
                                         traced_runs=traced)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    sys.exit(1 if incorrect else 0)


if __name__ == "__main__":
    main()
