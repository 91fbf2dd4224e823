"""End-to-end benchmark of the power-modelling service.

One command runs the workloads, checks every answer and prints every
metric by name with its unit::

    python3 benchmarks/e2e/run.py --workload point --seed 1 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py --seed 1                  # all workloads
    python3 benchmarks/e2e/run.py --seed 1 --trace          # + traced rerun
    python3 benchmarks/e2e/run.py --seed 1 --quick          # a few seconds each

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs with the
self-time wrappers installed and prints the per-layer metrics instead;
a bare ``--trace`` does both runs and also prints the tracing overhead.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the whole result,
with the host header and validity gates, goes to ``--output`` (default
``benchmarks/e2e/.work/results/``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import metrics  # noqa: E402

WORKLOADS = ("point", "bulk", "build", "queue")
QUICK_SECONDS = 2.0
#: A workload still running after this long is abandoned (its processes
#: are stopped on the way out) and the run fails without a result.
WORKLOAD_TIMEOUT_S = 170


def _overran(signum, frame):
    raise common.BenchError(f"workload ran longer than {WORKLOAD_TIMEOUT_S}s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", "--workloads", dest="workloads", action="append",
        help=f"one of {', '.join(WORKLOADS)} (repeatable or comma-separated; "
        "default: all)",
    )
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of every generated input")
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured seconds per workload (default {metrics.RUN_SECONDS})")
    parser.add_argument("--trace", nargs="?", const="both", default="0",
                        choices=("0", "1", "both"),
                        help="0: end-to-end metrics; 1: traced run, per-layer "
                        "metrics; bare --trace: both runs plus the overhead")
    parser.add_argument("--quick", action="store_true",
                        help=f"{QUICK_SECONDS:g} measured seconds per workload")
    parser.add_argument("--output", default=None, help="result JSON path")
    parser.add_argument("--src", default=None,
                        help="measure the program under this src/ directory "
                        "(default: the one in this checkout)")
    args = parser.parse_args(argv)
    names = []
    for item in args.workloads or [",".join(WORKLOADS)]:
        names.extend(name for name in item.split(",") if name)
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {WORKLOADS}")
    args.workloads = names
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else metrics.RUN_SECONDS
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if name in ("point", "bulk"):
        import serving

        spec = serving.POINT if name == "point" else serving.BULK
        result = serving.run(spec, seed, seconds, trace)
    elif name == "build":
        import building

        result = building.run(seed, seconds, trace)
    else:
        import queueing

        result = queueing.run(seed, seconds, trace)
    if trace:
        # The traced run's own end-to-end numbers; set against the
        # untraced run they give the tracing overhead.
        result["per_layer"]["trace.p50_ms"] = result["end_to_end"]["p50_ms"]
        result["per_layer"]["trace.ops_per_s"] = result["end_to_end"]["ops_per_s"]
        # A layer this workload leaves idle reads 0.
        for metric in metrics.PER_LAYER:
            result["per_layer"].setdefault(metric, 0.0)
    result["traced"] = trace
    return result


def print_result(result: dict) -> None:
    name = result["workload"]
    gate = result["gate"]
    validity = "valid" if gate["valid"] else "INVALID: " + "; ".join(gate["invalid_reasons"])
    print(
        f"== {name}{' (traced)' if result['traced'] else ''}: "
        f"{result['attempted']} attempted, {result['failed']} failed, "
        f"steal {gate['steal_share']:.1%}, probe drift {gate['probe_drift']:.1%}, "
        f"lateness p99 {gate['lateness_p99_ms']:.2f} ms — {validity}"
    )
    for metric, value in result["end_to_end"].items():
        unit, better, _ = metrics.END_TO_END[metric]
        print(f"   {metric:34s} {value:14.4f} {unit:9s} ({better} is better)")
    for metric, value in sorted(result["per_layer"].items()):
        unit, _, moves = metrics.PER_LAYER[metric]
        print(f"   {metric:40s} {value:14.4f} {unit:9s} -> {moves}")


def print_overhead(plain: dict, traced: dict) -> None:
    for metric, value in plain["end_to_end"].items():
        other = traced["end_to_end"][metric]
        share = (other - value) / value if value else 0.0
        print(f"   tracing overhead {plain['workload']}.{metric}: {share:+.1%}")


def summary_line(results, per_layer: bool) -> str:
    key = "per_layer" if per_layer else "end_to_end"
    table = metrics.PER_LAYER if per_layer else metrics.END_TO_END
    single = len(results) == 1
    values = {}
    for result in results:
        for metric, value in result[key].items():
            label = metric if single else f"{result['workload']}.{metric}"
            values[label] = {"value": value, "unit": table[metric][0]}
    failed = sum(r["failed"] for r in results)
    return json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": values,
    })


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        common.require_program(args.src)
    except (common.BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    common.prepare_work_dir()
    header = common.host_header()
    header.update(seed=args.seed, seconds=args.seconds, started=time.time())
    print(
        f"# host: nproc={header['nproc']} cc={'yes' if header['cc'] else 'no'} "
        f"python={header['python']} numpy={header['numpy']} cffi={header['cffi']} "
        f"src={header['src_sha256'][:12]} git={(header['git_sha'] or '-')[:12]}"
    )
    passes = {"0": [False], "1": [True], "both": [False, True]}[args.trace]
    results = []
    signal.signal(signal.SIGALRM, _overran)
    try:
        for name in args.workloads:
            by_pass = {}
            for traced in passes:
                signal.alarm(WORKLOAD_TIMEOUT_S)
                try:
                    result = run_workload(name, args.seed, args.seconds, traced)
                finally:
                    signal.alarm(0)
                print_result(result)
                by_pass[traced] = result
                results.append(result)
            if len(by_pass) == 2:
                print_overhead(by_pass[False], by_pass[True])
    except Exception:  # noqa: BLE001 - report, print no result, fail
        traceback.print_exc()
        return 1
    output = args.output or os.path.join(
        common.WORK, "results",
        f"{'-'.join(args.workloads)}-seed{args.seed}-trace{args.trace}.json",
    )
    os.makedirs(os.path.dirname(os.path.abspath(output)), exist_ok=True)
    with open(output, "w") as handle:
        json.dump({"header": header, "results": results}, handle, indent=1)
    print(f"# wrote {output}")
    shown = [r for r in results if r["traced"] == passes[-1]]
    print(summary_line(shown, per_layer=passes[-1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
