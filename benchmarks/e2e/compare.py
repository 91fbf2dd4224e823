"""Judge a performance change with the end-to-end benchmark.

Pairs mode runs this copy of the benchmark against two program trees,
alternating which side goes first, one fresh seed per pair::

    python3 benchmarks/e2e/compare.py --parent ../parent --change . --pairs 10

Each tree is a checkout (its ``src/`` is measured).  A pair in which
either side failed a validity gate is dropped, and the count is shown.
For every (workload, end-to-end metric) it prints both medians and
quartiles, the pairs the change won, and a verdict:

``gain``        at least 10 valid pairs, the change won at least 9/10
                of them, and the medians differ by more than the
                parent's IQR;
``REGRESSION``  the change's median is worse than the parent's by more
                than the metric's bound;
``unresolved``  the runs spread wider than the bound (unless every change
                run beat every parent run);
``ok``          none of the above: no regression within the bound.

With result files instead (``run.py --output``), it checks each one
against the recorded acceptance medians in ``baseline.json``;
``--record`` writes that file from a set of result files.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

BASELINE = os.path.join(HERE, "baseline.json")
WORKLOADS = ("point", "bulk", "build", "queue")
GAIN_SHARE = 0.9
MIN_PAIRS = 10


def run_side(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run of ``workload`` against ``tree``'s program."""
    with tempfile.NamedTemporaryFile(
        suffix=".json", dir=os.path.join(HERE, ".work"), delete=False
    ) as handle:
        output = handle.name
    try:
        completed = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
             "--src", os.path.join(os.path.abspath(tree), "src"), "--output", output],
            capture_output=True, text=True, timeout=600,
        )
        if completed.returncode != 0:
            raise SystemExit(
                f"run failed on {tree} ({workload}, seed {seed}):\n"
                + completed.stdout[-2000:] + completed.stderr[-4000:]
            )
        with open(output) as handle:
            return json.load(handle)["results"][0]
    finally:
        os.unlink(output)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def better(metric: str, a: float, b: float) -> bool:
    """True when value ``a`` is better than ``b``."""
    return a < b if metrics.END_TO_END[metric][1] == "lower" else a > b


def verdict(metric: str, parent, change) -> tuple:
    unit, direction, bound = metrics.END_TO_END[metric]
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if better(metric, c, p))
    worse = (cm - pm) / pm if direction == "lower" else (pm - cm) / pm
    spread = max((p3 - p1) / pm, (c3 - c1) / cm)
    dominates = all(better(metric, c, p) for c in change for p in parent)
    if (
        len(parent) >= MIN_PAIRS
        and wins >= GAIN_SHARE * len(parent)
        and better(metric, cm, pm)
        and abs(cm - pm) > p3 - p1
    ):
        word = "gain"
    elif spread > bound and not dominates:
        word = "unresolved"
    elif worse > bound:
        word = "REGRESSION"
    else:
        word = "ok"
    return (pm, p1, p3, cm, c1, c3, wins, word)


def pairs_mode(args) -> int:
    results = {w: {"parent": [], "change": []} for w in args.workloads}
    dropped = {w: 0 for w in args.workloads}
    for index in range(args.pairs):
        seed = args.seed + index
        sides = [("parent", args.parent), ("change", args.change)]
        if index % 2:
            sides.reverse()
        for workload in args.workloads:
            got = {side: run_side(tree, workload, seed, args.seconds) for side, tree in sides}
            if not all(r["gate"]["valid"] for r in got.values()):
                dropped[workload] += 1
                continue
            for side, result in got.items():
                if result["failed"]:
                    print(f"!! {side} failed {result['failed']} operations "
                          f"on {workload}, seed {seed}")
                results[workload][side].append(result["end_to_end"])
        print(f"# pair {index + 1}/{args.pairs} done (seed {seed})", flush=True)
    status = 0
    print(f"{'workload':8s} {'metric':10s} {'parent [q1, q3]':>30s} "
          f"{'change [q1, q3]':>30s} {'wins':>6s}  verdict")
    for workload in args.workloads:
        kept = len(results[workload]["parent"])
        print(f"# {workload}: {kept} valid pairs, {dropped[workload]} dropped as invalid")
        if not kept:
            continue
        for metric in metrics.END_TO_END:
            parent = [r[metric] for r in results[workload]["parent"]]
            change = [r[metric] for r in results[workload]["change"]]
            pm, p1, p3, cm, c1, c3, wins, word = verdict(metric, parent, change)
            print(f"{workload:8s} {metric:10s} {pm:12.4f} [{p1:.4f}, {p3:.4f}] "
                  f"{cm:12.4f} [{c1:.4f}, {c3:.4f}] {wins:3d}/{kept:<3d} {word}")
            if word == "REGRESSION":
                status = 1
    return status


def load_results(paths, traced: bool = False):
    found = []
    for path in paths:
        with open(path) as handle:
            payload = json.load(handle)
        for result in payload["results"]:
            if bool(result.get("traced")) == traced:
                found.append((payload["header"], result))
    return found


def _summary(found, key: str, names) -> dict:
    """Quartiles of each metric per workload over a set of results."""
    table = {}
    for _, result in found:
        row = table.setdefault(result["workload"], {name: [] for name in names})
        for name in names:
            row[name].append(result[key][name])
    out = {}
    for workload, row in table.items():
        out[workload] = {}
        for name, values in row.items():
            if not any(values):
                continue  # a layer this workload leaves idle
            q1, mid, q3 = quartiles(values)
            out[workload][name] = {
                "q1": q1, "median": mid, "q3": q3, "runs": len(values),
                "spread": (q3 - q1) / mid if mid else 0.0,
            }
    return out


def record_mode(args) -> int:
    found = load_results(args.results)
    traced = load_results(args.results, traced=True)
    baseline = {
        "note": "acceptance runs, one per seed: end-to-end metrics from "
        "untraced runs, per-layer metrics from traced runs",
        "header": {k: v for k, v in found[0][0].items() if k not in ("seed", "started")},
        "workloads": _summary(found, "end_to_end", metrics.END_TO_END),
        "per_layer": _summary(traced, "per_layer", metrics.PER_LAYER),
    }
    with open(BASELINE, "w") as handle:
        json.dump(baseline, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {BASELINE} from {len(found)} results")
    return 0


def check_mode(args) -> int:
    with open(BASELINE) as handle:
        baseline = json.load(handle)
    status = 0
    for header, result in load_results(args.results):
        if header.get("seconds") != baseline["header"].get("seconds"):
            print(f"# note: run measured {header.get('seconds')} s per workload, "
                  f"baseline {baseline['header'].get('seconds')} s")
        workload = result["workload"]
        for metric, value in result["end_to_end"].items():
            unit, direction, bound = metrics.END_TO_END[metric]
            reference = baseline["workloads"][workload][metric]["median"]
            worse = (value - reference) / reference
            if direction == "higher":
                worse = -worse
            word = "WORSE than its bound" if worse > bound else "within its bound"
            if worse > bound:
                status = 1
            change = f"{worse:.1%} worse" if worse > 0 else f"{-worse:.1%} better"
            print(f"{workload:8s} {metric:10s} {value:12.4f} {unit:4s} vs "
                  f"{reference:12.4f}: {change}, {word}")
        if result["failed"]:
            print(f"{workload:8s} failed {result['failed']} of {result['attempted']}")
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="*", help="result files (check mode)")
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--change", help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=int(time.time()) % 100_000,
                        help="first seed (default: fresh)")
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--workload", "--workloads", dest="workloads",
                        default=",".join(WORKLOADS))
    parser.add_argument("--record", action="store_true",
                        help="write baseline.json from the result files")
    args = parser.parse_args(argv)
    args.workloads = [w for w in args.workloads.split(",") if w]
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    if args.parent or args.change:
        if not (args.parent and args.change):
            parser.error("pairs mode needs both --parent and --change")
        if args.pairs < MIN_PAIRS:
            print("# note: fewer than 10 pairs cannot support a gain claim")
        return pairs_mode(args)
    if not args.results:
        parser.error("give --parent/--change, or result files")
    return record_mode(args) if args.record else check_mode(args)


if __name__ == "__main__":
    sys.exit(main())
