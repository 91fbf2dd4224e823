"""Command-line interface: ``python -m repro`` / ``repro-power``.

Subcommands
-----------
``info <circuit|file.blif>``
    Print netlist statistics (inputs, gates, depth, capacitance).
``build <circuit|file.blif>``
    Build an ADD power model and report its size, leaves and build cost.
``evaluate <circuit|file.blif>``
    Run the (sp, st) accuracy sweep against Con/Lin baselines.
``bound <circuit|file.blif>``
    Build a conservative upper-bound model and verify it on samples.
``worst-case <circuit|file.blif>``
    Extract a maximum-power input transition from the exact model.
``activity <circuit|file.blif>``
    Analytic per-net switching activity and average power.
``save-model <circuit|file.blif> <model.json>`` / ``eval-model <model.json>``
    Serialise a model to JSON; evaluate a shipped model without the netlist.
``fuzz``
    Differentially fuzz the whole pipeline against the independent oracle
    (random netlists, every implementation pair cross-checked), shrinking
    any failure to a minimal reproducer; ``--corpus`` replays a saved
    corpus instead of generating.
``stats <circuit|file.blif>`` / ``stats --input <metrics.json>``
    Exercise the build / evaluate / golden-simulation pipeline once and
    print the telemetry report (metric instruments + span profile) — or
    render a previously saved metrics snapshot (``--metrics FILE`` or
    ``cluster-stats --output FILE``) without running anything.
``serve <circuit> [<circuit> ...]``
    Start the power-query service: build (or load from a model store)
    one model per circuit and answer JSON-lines ``evaluate`` queries over
    TCP, micro-batching concurrent requests into single kernel calls.
``query <model> [<2n-bits> ...]``
    Talk to a running server: evaluate transitions, or ``--ping`` /
    ``--models`` / ``--server-stats`` / ``--slowlog`` / ``--shutdown``.
``trace-merge <trace.json|dir> [...] -o merged.json``
    Merge per-process Chrome-trace exports (written by ``--trace-dir``
    deployments) onto one wall-clock-aligned timeline, optionally
    filtered to a single distributed ``trace_id``.
``top``
    Live terminal dashboard of a running cluster: req/s, shed rate,
    per-shard p99 latency and batch occupancy, refreshed from the
    router's pushed metrics snapshots.
``store ls|gc|prefetch|sync``
    Inspect, maintain and replicate a content-addressed model store —
    a local directory or a remote ``obj://host:port`` object store.
``serve-objects`` / ``queue serve|worker|stats``
    The distributed build pipeline: an S3-style object server, the
    build-queue broker, and farm workers that claim jobs under leases
    and publish models through a shared store backend.
``list``
    Show the available Table-1 benchmark circuits.

Every subcommand accepts ``--trace FILE`` (write a Chrome trace-event
timeline, loadable in ``chrome://tracing`` / Perfetto) and
``--metrics FILE`` (write a JSON metrics snapshot); see
:mod:`repro.obs`.

Circuits are referenced by benchmark name (see ``list``), or by a path to
a ``.blif`` or ISCAS-85 ``.isc`` file.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.circuits import available_circuits, load_circuit
from repro.errors import ReproError
from repro.eval import SweepConfig, ascii_table, run_sweep
from repro.models import (
    ConstantModel,
    LinearModel,
    build_add_model,
    constant_bound_from_model,
    generate_training_data,
    verify_upper_bound,
)
from repro.netlist import Netlist, read_blif
from repro.sim import uniform_pairs


def _load(identifier: str) -> Netlist:
    if identifier.endswith(".blif"):
        return read_blif(identifier)
    if identifier.endswith(".isc"):
        from repro.netlist import read_iscas

        return read_iscas(identifier)
    return load_circuit(identifier)


def _cmd_list(_: argparse.Namespace) -> int:
    for name in available_circuits():
        print(name)
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    netlist = _load(args.circuit)
    stats = netlist.stats()
    print(f"name:        {stats.name}")
    print(f"inputs:      {stats.num_inputs}")
    print(f"outputs:     {stats.num_outputs}")
    print(f"gates:       {stats.num_gates}")
    print(f"depth:       {stats.depth}")
    print(f"total load:  {stats.total_load_capacitance_fF:.1f} fF")
    for cell, count in sorted(netlist.counts_by_cell().items()):
        print(f"  {cell:8s} x {count}")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    netlist = _load(args.circuit)
    model = build_add_model(
        netlist, max_nodes=args.max_nodes, strategy=args.strategy
    )
    report = model.report
    assert report is not None
    print(f"macro:        {report.macro_name}")
    print(f"strategy:     {report.strategy}")
    print(f"MAX:          {report.max_nodes}")
    print(f"final nodes:  {report.final_nodes}")
    print(f"peak nodes:   {report.peak_nodes}")
    print(f"approx calls: {report.num_approximations}")
    print(f"build time:   {report.cpu_seconds:.2f} s")
    print(
        f"op-cache:     {report.cache_hits} hits / "
        f"{report.cache_misses} misses "
        f"(hit rate {report.cache_hit_rate:.2f})"
    )
    print(f"avg C (unif): {model.average_capacitance_uniform():.2f} fF")
    print(f"max C:        {model.global_maximum():.2f} fF")
    print(f"leaf count:   {len(model.leaf_values())}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    netlist = _load(args.circuit)
    training = generate_training_data(netlist, length=args.train_length)
    models = {
        "Con": ConstantModel.characterize(netlist, training),
        "Lin": LinearModel.characterize(netlist, training),
        "ADD": build_add_model(netlist, max_nodes=args.max_nodes),
    }
    config = SweepConfig(
        sequence_length=args.sequence_length, kernel=args.kernel
    )
    result = run_sweep(netlist, models, config)
    rows = [
        [name, 100.0 * result.are_average(name)] for name in models
    ]
    print(ascii_table(["model", "ARE avg (%)"], rows))
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    netlist = _load(args.circuit)
    model = build_add_model(
        netlist, max_nodes=args.max_nodes, strategy="max"
    )
    constant = constant_bound_from_model(model)
    initial, final = uniform_pairs(
        netlist.num_inputs, args.samples, seed=2024
    )
    check = verify_upper_bound(model, netlist, initial, final)
    print(f"bound nodes:     {model.size}")
    print(f"global max:      {constant.value_fF:.2f} fF")
    print(f"samples checked: {check.num_samples}")
    print(f"violations:      {check.violations}")
    print(f"mean slack:      {check.mean_slack_fF:.2f} fF")
    print(f"max slack:       {check.max_slack_fF:.2f} fF")
    return 0 if check.conservative else 1


def _cmd_worst_case(args: argparse.Namespace) -> int:
    netlist = _load(args.circuit)
    model = build_add_model(netlist, max_nodes=args.max_nodes)
    initial, final, value = model.worst_case_transition()
    print(f"x_i:        {''.join(str(b) for b in initial)}")
    print(f"x_f:        {''.join(str(b) for b in final)}")
    print(f"C:          {value:.2f} fF")
    if args.max_nodes is None:
        from repro.sim import switching_capacitance

        check = switching_capacitance(netlist, initial, final)
        print(f"gate-level: {check:.2f} fF (exact model: values must match)")
    return 0


def _cmd_activity(args: argparse.Namespace) -> int:
    from repro.sim import exact_activity

    netlist = _load(args.circuit)
    report = exact_activity(netlist, sp=args.sp, st=args.st)
    print(f"inputs sp={args.sp} st={args.st}")
    print(f"average switching capacitance: "
          f"{report.average_capacitance_fF:.2f} fF/cycle")
    busiest = sorted(
        report.rising_probability.items(), key=lambda kv: -kv[1]
    )[: args.top]
    print(f"top {len(busiest)} nets by P(rising):")
    for net, probability in busiest:
        print(f"  {net:16s} {probability:.4f}")
    return 0


def _cmd_save_model(args: argparse.Namespace) -> int:
    from repro.models import save_model

    netlist = _load(args.circuit)
    model = build_add_model(
        netlist, max_nodes=args.max_nodes, strategy=args.strategy
    )
    save_model(model, args.output)
    print(f"wrote {args.output} ({model.size} nodes, strategy {model.strategy})")
    return 0


def _cmd_eval_model(args: argparse.Namespace) -> int:
    from repro.models import read_model

    model = read_model(args.model)
    print(f"macro:    {model.macro_name} ({model.num_inputs} inputs)")
    print(f"strategy: {model.strategy}  nodes: {model.size}")
    print(f"max C:    {model.global_maximum():.2f} fF")
    print(f"avg C:    {model.average_capacitance_uniform():.2f} fF (uniform)")
    if args.transition:
        bits = args.transition
        if len(bits) != 2 * model.num_inputs or set(bits) - {"0", "1"}:
            print(
                f"error: transition must be {2 * model.num_inputs} bits "
                "(x_i then x_f)",
                file=sys.stderr,
            )
            return 2
        initial = [int(b) for b in bits[: model.num_inputs]]
        final = [int(b) for b in bits[model.num_inputs:]]
        print(f"C(x_i, x_f) = "
              f"{model.switching_capacitance(initial, final):.2f} fF")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.testing import (
        FuzzConfig,
        replay_corpus,
        resolve_checks,
        run_fuzz,
        save_case,
    )
    from repro.testing.corpus import default_note, unique_path

    checks = tuple(args.checks.split(",")) if args.checks else None
    resolve_checks(checks)  # fail fast on typos

    if args.corpus is not None and not args.generate:
        failures = replay_corpus(args.corpus, checks)
        total = len(list(Path(args.corpus).glob("*.json")))
        if failures:
            for path, mismatch in failures:
                print(f"FAIL {path}: {mismatch}", file=sys.stderr)
                for key, value in mismatch.witness.items():
                    print(f"      {key} = {value}", file=sys.stderr)
            print(f"{len(failures)} failure(s) in {total} corpus case(s)")
            return 1
        print(f"corpus OK: {total} case(s) replayed, no mismatches")
        return 0

    config = FuzzConfig(
        seed=args.seed,
        iterations=args.iterations,
        time_budget_seconds=args.time_budget,
        max_inputs=args.max_inputs,
        max_gates=args.max_gates,
        checks=checks,
        shrink=not args.no_shrink,
        max_failures=args.max_failures,
    )
    report = run_fuzz(config)
    print(report.summary())
    for failure in report.failures:
        print(
            f"FAIL iteration {failure.iteration} (case seed "
            f"{failure.seed:#010x}): {failure.mismatch}",
            file=sys.stderr,
        )
        for key, value in failure.mismatch.witness.items():
            print(f"      {key} = {value}", file=sys.stderr)
        netlist = failure.case.netlist
        print(
            f"      shrunk to {netlist.num_inputs} inputs / "
            f"{netlist.num_gates} gates (from {failure.original_gates})",
            file=sys.stderr,
        )
        if args.save_failures is not None:
            path = unique_path(
                args.save_failures,
                f"{failure.mismatch.check}-{failure.seed:08x}",
            )
            save_case(
                failure.case,
                path,
                note=default_note(failure.case, failure.mismatch.check),
            )
            print(f"      reproducer written to {path}", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.obs import enable_tracing, disable_tracing, get_metrics, get_tracer
    from repro.obs.report import format_metrics, format_report
    from repro.sim import pair_switching_capacitances, uniform_pairs

    if args.input is not None:
        import json

        with open(args.input, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if payload.get("format") != "repro-metrics":
            print(
                f"error: {args.input} is not a repro-metrics snapshot "
                f"(format={payload.get('format')!r})",
                file=sys.stderr,
            )
            return 2
        title = f"saved metrics snapshot: {args.input}"
        print(title)
        print("=" * len(title))
        print(format_metrics(payload.get("metrics", {})))
        return 0
    if args.circuit is None:
        print(
            "error: provide a circuit, or --input METRICS.json to render "
            "a saved snapshot",
            file=sys.stderr,
        )
        return 2
    netlist = _load(args.circuit)
    registry = get_metrics()
    registry.detailed = True
    installed_tracer = not get_tracer().enabled
    if installed_tracer:
        enable_tracing()
    try:
        # One representative pass through every pipeline layer, so the
        # report covers dd.*, add.build.*, compiled.eval.* and sim.*.
        model = build_add_model(
            netlist, max_nodes=args.max_nodes, strategy=args.strategy
        )
        initial, final = uniform_pairs(
            netlist.num_inputs, args.pairs, seed=2024
        )
        estimates = model.pair_capacitances(initial, final)
        golden = pair_switching_capacitances(netlist, initial, final)
        rollup = get_tracer().aggregate()
        report = model.report
        assert report is not None
        print(report.summary())
        print(
            f"checked {len(estimates)} transitions against the golden "
            f"model: max |ADD - gate-level| = "
            f"{float(np.max(np.abs(estimates - golden))):.4g} fF"
        )
        print()
        print(
            format_report(
                registry.snapshot(),
                rollup,
                title=f"telemetry: {netlist.name}",
            )
        )
    finally:
        if installed_tracer and not getattr(args, "trace", None):
            disable_tracing()
    return 0


def _serve_config(args: argparse.Namespace):
    """The :class:`ServerConfig` of ``repro serve``: given flags over defaults.

    Tuning flags are named after config fields and default to None, so
    each default is declared once, on the config.
    """
    from dataclasses import fields

    from repro.serve import ServerConfig

    given = {
        field.name: getattr(args, field.name)
        for field in fields(ServerConfig)
        if getattr(args, field.name, None) is not None
    }
    if args.no_batching:
        given["batching"] = False
    return ServerConfig(**given)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import ModelStore, PowerQueryServer, open_backend

    netlists = [_load(identifier) for identifier in args.circuits]
    names = [netlist.name for netlist in netlists]
    if len(set(names)) != len(names):
        print("error: served circuits must have distinct names", file=sys.stderr)
        return 2
    build_kwargs = {"max_nodes": args.max_nodes, "strategy": args.strategy}
    if args.store is not None:
        store = ModelStore(open_backend(args.store))
        models = store.get_or_build_many(netlists, **build_kwargs)
    else:
        from repro.models import build_add_models_parallel

        models = build_add_models_parallel(netlists, **build_kwargs)
    server_config = _serve_config(args)
    if args.trace_dir is not None:
        # Collect spans in this process too (single server: the request
        # path; cluster: the router) so a trace file is written at stop.
        from repro.obs import enable_tracing

        enable_tracing()

    if args.workers > 1:
        from repro.serve import Cluster, ClusterConfig

        cluster = Cluster(
            dict(zip(names, models)),
            ClusterConfig(
                host=server_config.host,
                router_port=args.port,
                workers=args.workers,
                replication=args.replication,
                restart_failed=args.restart_failed,
                metrics_push_interval_s=args.push_interval,
                prometheus_port=args.prometheus_port,
                server=server_config,
            ),
        ).start()
        shards = ", ".join(
            f"{shard}:{cluster.shard_port(shard)}"
            for shard in cluster.shard_ids
        )
        prometheus = (
            f", prometheus on :{cluster.prometheus_port}"
            if cluster.prometheus_port is not None
            else ""
        )
        print(
            f"cluster of {args.workers} shards serving {len(models)} "
            f"model(s) [{', '.join(sorted(names))}] — router on "
            f"{cluster.host}:{cluster.router_port}, shards [{shards}], "
            f"replication={args.replication}{prometheus}",
            flush=True,
        )
        try:
            cluster.wait()
        except KeyboardInterrupt:
            pass
        finally:
            # Also runs after a protocol-initiated shutdown op: stop()
            # is idempotent, and it is what writes the router's trace
            # file (and the workers' files on ctrl-C).
            cluster.stop()
        return 0

    server = PowerQueryServer(dict(zip(names, models)), server_config)

    async def _run() -> None:
        await server.start()
        config = server.config
        wait = "auto" if config.max_wait_ms is None else f"{config.max_wait_ms}ms"
        mode = (
            f"micro-batching (max_batch={config.max_batch}, max_wait={wait})"
            if config.batching
            else "unbatched"
        )
        print(
            f"serving {len(models)} model(s) "
            f"[{', '.join(sorted(server.models))}] on "
            f"{server.config.host}:{server.port} — {mode}",
            flush=True,
        )
        await server.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    import json

    from repro.serve import PowerQueryClient, ResponseError

    client = PowerQueryClient(args.host, args.port, timeout=args.timeout)
    try:
        if args.ping:
            print("pong" if client.ping() else "no response")
            return 0
        if args.models:
            for summary in client.models():
                print(
                    f"{summary['name']:16s} inputs={summary['inputs']:3d} "
                    f"nodes={summary['nodes']:6d} strategy={summary['strategy']}"
                )
            return 0
        if args.server_stats:
            print(json.dumps(client.stats(), indent=1, sort_keys=True))
            return 0
        if args.slowlog:
            report = client.slowlog()
            entries = report.get("entries", [])
            print(
                f"slow-query log: threshold={report.get('threshold_ms')}ms "
                f"rate={report.get('rate')} "
                f"capacity={report.get('capacity')} "
                f"sampled_out={report.get('sampled_out')}"
            )
            for entry in entries:
                print(json.dumps(entry, sort_keys=True))
            if not entries:
                print("(empty)")
            return 0
        if args.shutdown:
            client.shutdown()
            print("server stopping")
            return 0
        if args.model is None or not args.transitions:
            print(
                "error: provide MODEL and at least one 2n-bit transition "
                "(or --ping/--models/--server-stats/--shutdown)",
                file=sys.stderr,
            )
            return 2
        summaries = {s["name"]: s for s in client.models()}
        summary = summaries.get(args.model)
        if summary is None:
            print(
                f"error: server holds no model {args.model!r} "
                f"(available: {sorted(summaries)})",
                file=sys.stderr,
            )
            return 2
        width = summary["inputs"]
        pairs = []
        for bits in args.transitions:
            if len(bits) != 2 * width or set(bits) - {"0", "1"}:
                print(
                    f"error: transition must be {2 * width} bits "
                    "(x_i then x_f)",
                    file=sys.stderr,
                )
                return 2
            pairs.append((bits[:width], bits[width:]))
        for (initial, final), value in zip(
            pairs, client.evaluate_pairs(args.model, pairs)
        ):
            print(f"C({initial} -> {final}) = {value:.2f} fF")
        return 0
    except ResponseError as exc:
        print(f"error: server replied {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()


def _cmd_cluster_stats(args: argparse.Namespace) -> int:
    import json

    from repro.serve import ClusterClient, ResponseError

    client = ClusterClient(args.host, args.port, timeout=args.timeout)
    try:
        if args.output is not None:
            stats = client.cluster_stats()
            payload = {
                "format": "repro-metrics",
                "version": 1,
                "source": f"cluster {args.host}:{args.port}",
                "metrics": stats.get("metrics", {}),
                "router_metrics": stats.get("router_metrics", {}),
                "shards": stats.get("shards", {}),
            }
            with open(args.output, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=1, default=str)
                handle.write("\n")
            print(
                f"wrote {args.output} "
                f"({len(payload['metrics'])} merged instruments, "
                f"{len(payload['shards'])} shards) — render it with "
                f"'repro-power stats --input {args.output}'"
            )
            return 0
        if args.json:
            print(json.dumps(client.cluster_stats(), indent=1, sort_keys=True))
            return 0
        health = client.healthz()
        stats = client.cluster_stats()
        print(
            f"cluster {args.host}:{args.port} — status {health['status']}, "
            f"ring v{health['ring_version']}"
        )
        for shard, info in sorted(stats["shards"].items()):
            if not info.get("reachable"):
                print(f"  {shard:4s} port={info['port']:5d}  UNREACHABLE")
                continue
            p99 = info.get("latency_p99_ms")
            print(
                f"  {shard:4s} port={info['port']:5d}  "
                f"requests={info['requests']:8.0f}  "
                f"p99={p99:7.2f}ms  "
                f"up={info['uptime_seconds']:7.1f}s  "
                f"models={len(info['models'])}"
                if p99 is not None
                else f"  {shard:4s} port={info['port']:5d}  "
                f"requests={info['requests']:8.0f}  "
                f"p99=     --  "
                f"up={info['uptime_seconds']:7.1f}s  "
                f"models={len(info['models'])}"
            )
        merged = stats["metrics"]
        for name in sorted(merged):
            state = merged[name]
            if state["type"] == "counter" and state["value"]:
                print(f"  {name:40s} {state['value']:12.0f}")
        for name, state in sorted(stats["router_metrics"].items()):
            if state["value"]:
                print(f"  {name:40s} {state['value']:12.0f}")
        return 0
    except ResponseError as exc:
        print(f"error: router replied {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()


def _cmd_trace_merge(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.obs import merge_chrome_traces

    paths: List[Path] = []
    for item in args.inputs:
        path = Path(item)
        if path.is_dir():
            paths.extend(sorted(path.glob("trace-*.json")))
        elif path.exists():
            paths.append(path)
        else:
            print(f"error: no such trace file {item}", file=sys.stderr)
            return 2
    if not paths:
        print("error: no trace files found", file=sys.stderr)
        return 2
    payloads = []
    for path in paths:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payloads.append(json.load(handle))
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 2
    merged = merge_chrome_traces(payloads, trace_id=args.trace_id)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=1, default=str)
        handle.write("\n")
    events = merged["traceEvents"]
    pids = merged["metadata"]["pids"]
    trace_ids = {
        (event.get("args") or {}).get("trace_id")
        for event in events
        if (event.get("args") or {}).get("trace_id")
    }
    scope = (
        f"trace {args.trace_id}" if args.trace_id
        else f"{len(trace_ids)} distinct trace id(s)"
    )
    print(
        f"merged {len(paths)} file(s) -> {args.output}: "
        f"{len(events)} events from {len(pids)} process(es), {scope}"
    )
    return 0


def format_top(
    stats: dict,
    health: dict,
    previous_stats: Optional[dict] = None,
    dt: Optional[float] = None,
) -> str:
    """One frame of the ``repro-power top`` dashboard (pure, testable).

    Rates (req/s, shed/s) need a ``previous_stats`` report and the
    ``dt`` seconds between the two samples; the first frame shows
    totals only.
    """
    merged = stats.get("metrics", {})

    def counter(snapshot: dict, name: str) -> float:
        return snapshot.get(name, {}).get("value", 0)

    def rate(name: str) -> Optional[float]:
        if previous_stats is None or not dt or dt <= 0:
            return None
        delta = counter(merged, name) - counter(
            previous_stats.get("metrics", {}), name
        )
        return max(0.0, delta / dt)

    total = counter(merged, "serve.requests")
    shed = counter(merged, "serve.shed.requests") + counter(
        merged, "serve.shed.connections"
    )
    rps = rate("serve.requests")
    shed_rate = rate("serve.shed.requests")
    batch = merged.get("serve.batch.rows", {})
    occupancy = (
        batch["sum"] / batch["count"] if batch.get("count") else None
    )
    router = stats.get("router_metrics", {})

    def router_value(name: str) -> Optional[float]:
        series = router.get(name)
        return None if series is None else series.get("value")

    queue_depth = router_value("queue.depth")
    active_leases = router_value("queue.leases.active")
    breakers_open = router_value("serve.breaker.open_count")
    lines = [
        f"cluster status={health.get('status', '?')} "
        f"ring=v{stats.get('ring_version', '?')} "
        f"shards={len(stats.get('shards', {}))} routed",
        "requests={:.0f}  req/s={}  shed={:.0f}  shed/s={}  "
        "batch-occupancy={}".format(
            total,
            f"{rps:.1f}" if rps is not None else "--",
            shed,
            f"{shed_rate:.1f}" if shed_rate is not None else "--",
            f"{occupancy:.1f} rows" if occupancy is not None else "--",
        ),
        "queue-depth={}  active-leases={}  breakers-open={}".format(
            f"{queue_depth:.0f}" if queue_depth is not None else "--",
            f"{active_leases:.0f}" if active_leases is not None else "--",
            f"{breakers_open:.0f}" if breakers_open is not None else "--",
        ),
        "",
        f"{'shard':6s} {'state':8s} {'port':>6s} {'requests':>10s} "
        f"{'p99 ms':>8s} {'uptime s':>9s}",
    ]
    shard_health = health.get("shards", {})
    for shard_id, info in sorted(stats.get("shards", {}).items()):
        port = info.get("port", 0)
        if not info.get("reachable"):
            alive = shard_health.get(shard_id, {}).get("alive")
            state = "no-push" if alive else "DOWN"
            lines.append(
                f"{shard_id:6s} {state:8s} {port:>6d} "
                f"{'-':>10s} {'-':>8s} {'-':>9s}"
            )
            continue
        p99 = info.get("latency_p99_ms")
        lines.append(
            f"{shard_id:6s} {'up':8s} {port:>6d} "
            f"{info.get('requests', 0):>10.0f} "
            + (f"{p99:>8.2f}" if p99 is not None else f"{'-':>8s}")
            + f" {info.get('uptime_seconds', 0.0):>9.1f}"
        )
    for shard_id, info in sorted(shard_health.items()):
        # Shards the router knows about but no longer routes (killed,
        # drained): keep them visible so a failure is impossible to miss.
        if shard_id in stats.get("shards", {}):
            continue
        state = "unrouted" if info.get("alive") else "DOWN"
        lines.append(
            f"{shard_id:6s} {state:8s} {info.get('port', 0):>6d} "
            f"{'-':>10s} {'-':>8s} {'-':>9s}"
        )
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    import time as _time

    from repro.serve import ClusterClient, ResponseError

    client = ClusterClient(args.host, args.port, timeout=args.timeout)
    previous: Optional[tuple] = None
    frames = 0
    try:
        while True:
            stats = client.cluster_stats()
            health = client.healthz()
            now = _time.monotonic()
            if previous is None:
                frame = format_top(stats, health)
            else:
                frame = format_top(
                    stats, health, previous[1], now - previous[0]
                )
            if not args.no_clear:
                print("\x1b[2J\x1b[H", end="")
            print(frame, flush=True)
            previous = (now, stats)
            frames += 1
            if args.iterations and frames >= args.iterations:
                return 0
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0
    except ResponseError as exc:
        print(f"error: router replied {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.serve import ModelStore, open_backend, sync_stores

    store = ModelStore(open_backend(args.store))
    if args.action == "ls":
        entries = store.ls()
        if not entries:
            print("store is empty")
            return 0
        print(
            f"{'key':16s} {'macro':12s} {'strategy':8s} {'MAX':>6s} "
            f"{'nodes':>7s} {'bytes':>9s}"
        )
        for entry in entries:
            max_nodes = "-" if entry.max_nodes is None else str(entry.max_nodes)
            print(
                f"{entry.key[:16]:16s} {entry.macro_name:12s} "
                f"{entry.strategy:8s} {max_nodes:>6s} "
                f"{entry.nodes:7d} {entry.payload_bytes:9d}"
            )
        print(f"total: {len(entries)} entries, {store.disk_bytes()} bytes")
        return 0
    if args.action == "gc":
        max_age = (
            args.max_age_days * 86400.0 if args.max_age_days is not None else None
        )
        removed = store.gc(max_bytes=args.max_bytes, max_age_seconds=max_age)
        for entry in removed:
            print(f"removed {entry.key[:16]} ({entry.macro_name}, "
                  f"{entry.payload_bytes} bytes)")
        print(f"gc: removed {len(removed)} entries, "
              f"{store.disk_bytes()} bytes remain")
        return 0
    if args.action == "sync":
        if args.dest is None:
            print("error: sync needs --dest", file=sys.stderr)
            return 2
        report = sync_stores(store.backend, open_backend(args.dest))
        for line in report.errors:
            print(f"error: {line}", file=sys.stderr)
        print(report.summary())
        return 0 if report.ok else 1
    # prefetch
    if not args.circuits:
        print("error: prefetch needs at least one circuit", file=sys.stderr)
        return 2
    netlists = [_load(identifier) for identifier in args.circuits]
    report = store.prefetch(
        netlists,
        max_nodes=args.max_nodes,
        strategy=args.strategy,
        queue=args.queue,
    )
    for netlist, key in zip(netlists, report.keys):
        print(f"{netlist.name:12s} -> {key[:16]}")
    print(report.summary())
    return 0


def _cmd_serve_objects(args: argparse.Namespace) -> int:
    """Run the S3-style object server until interrupted."""
    import asyncio

    from repro.serve import ObjectStoreConfig, ObjectStoreServer

    server = ObjectStoreServer(
        ObjectStoreConfig(host=args.host, port=args.port, root=args.root)
    )

    async def _run() -> None:
        await server.start()
        where = args.root or "memory"
        print(
            f"object store listening on obj://{args.host}:{server.port} "
            f"(objects in {where})",
            flush=True,
        )
        await server.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_queue(args: argparse.Namespace) -> int:
    """Build-queue service: serve / worker / stats."""
    from repro.obs import get_metrics
    from repro.serve import BuildQueueClient, QueueConfig, run_worker
    from repro.serve.queue import BuildQueueServer

    if args.action == "serve":
        import asyncio

        server = BuildQueueServer(
            QueueConfig(
                host=args.host,
                port=args.port,
                lease_s=args.lease_s,
                max_attempts=args.max_attempts,
                wal_dir=args.wal_dir,
                wal_fsync=args.wal_fsync,
                wal_compact_every=args.wal_compact_every,
            )
        )

        async def _run() -> None:
            await server.start()
            durability = (
                f"WAL {args.wal_dir}"
                + ("" if args.wal_fsync else " [no fsync]")
                if args.wal_dir
                else "in-memory"
            )
            print(
                f"build queue listening on {args.host}:{server.port} "
                f"(lease {args.lease_s:g}s, {args.max_attempts} attempts, "
                f"{durability})",
                flush=True,
            )
            recovered = get_metrics().counter("queue.recovery.jobs").value
            if recovered:
                print(
                    f"recovered {recovered:g} jobs from the journal",
                    flush=True,
                )
            await server.serve_forever()

        try:
            asyncio.run(_run())
        except KeyboardInterrupt:
            pass
        return 0
    if args.queue is None:
        print(f"error: {args.action} needs --queue host:port", file=sys.stderr)
        return 2
    host, _, port = args.queue.rpartition(":")
    if not host or not port.isdigit():
        print(f"error: malformed --queue {args.queue!r}", file=sys.stderr)
        return 2
    if args.action == "worker":
        if args.store is None:
            print("error: worker needs --store", file=sys.stderr)
            return 2
        worker_id = args.id or f"worker-{os.getpid()}"
        print(
            f"worker {worker_id} building from {args.queue} "
            f"into {args.store}",
            flush=True,
        )
        try:
            run_worker(host, int(port), args.store, worker_id)
        except KeyboardInterrupt:
            pass
        return 0
    # stats
    import json as _json

    with BuildQueueClient(host, int(port)) as client:
        print(_json.dumps(client.stats(), indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-power",
        description="Characterization-free RTL power modeling (DATE 1998 reproduction)",
    )
    # Global observability flags, attached to every subcommand (argparse
    # only applies them after the subcommand token when defined through a
    # parent parser, hence not on the root parser).
    obs_flags = argparse.ArgumentParser(add_help=False)
    obs_flags.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a Chrome trace-event timeline of this run",
    )
    obs_flags.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help="write a JSON metrics snapshot of this run",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, **kwargs) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[obs_flags], **kwargs)

    add_command("list", help="list benchmark circuits").set_defaults(
        func=_cmd_list
    )

    info = add_command("info", help="print netlist statistics")
    info.add_argument("circuit", help="benchmark name or BLIF path")
    info.set_defaults(func=_cmd_info)

    build = add_command("build", help="build an ADD power model")
    build.add_argument("circuit", help="benchmark name or BLIF path")
    build.add_argument("--max-nodes", type=int, default=1000)
    build.add_argument(
        "--strategy", choices=("avg", "max", "min"), default="avg"
    )
    build.set_defaults(func=_cmd_build)

    evaluate = add_command(
        "evaluate", help="accuracy sweep vs Con/Lin baselines"
    )
    evaluate.add_argument("circuit", help="benchmark name or BLIF path")
    evaluate.add_argument("--max-nodes", type=int, default=1000)
    evaluate.add_argument("--sequence-length", type=int, default=1500)
    evaluate.add_argument("--train-length", type=int, default=1500)
    evaluate.add_argument(
        "--kernel",
        default=None,
        help="force an evaluation backend for the sweep "
        "(pointer, levelized, bitparallel, codegen)",
    )
    evaluate.set_defaults(func=_cmd_evaluate)

    bound = add_command("bound", help="build and verify an upper bound")
    bound.add_argument("circuit", help="benchmark name or BLIF path")
    bound.add_argument("--max-nodes", type=int, default=1000)
    bound.add_argument("--samples", type=int, default=500)
    bound.set_defaults(func=_cmd_bound)

    worst = add_command(
        "worst-case", help="extract a maximum-power transition"
    )
    worst.add_argument("circuit", help="benchmark name or netlist path")
    worst.add_argument("--max-nodes", type=int, default=None)
    worst.set_defaults(func=_cmd_worst_case)

    activity = add_command(
        "activity", help="analytic switching activity per net"
    )
    activity.add_argument("circuit", help="benchmark name or netlist path")
    activity.add_argument("--sp", type=float, default=0.5)
    activity.add_argument("--st", type=float, default=0.5)
    activity.add_argument("--top", type=int, default=10)
    activity.set_defaults(func=_cmd_activity)

    save = add_command("save-model", help="serialise a model to JSON")
    save.add_argument("circuit", help="benchmark name or netlist path")
    save.add_argument("output", help="output JSON path")
    save.add_argument("--max-nodes", type=int, default=1000)
    save.add_argument(
        "--strategy", choices=("avg", "max", "min"), default="avg"
    )
    save.set_defaults(func=_cmd_save_model)

    evaluate_model = add_command(
        "eval-model", help="inspect / evaluate a shipped model JSON"
    )
    evaluate_model.add_argument("model", help="model JSON path")
    evaluate_model.add_argument(
        "--transition",
        help="2n bits: x_i concatenated with x_f",
        default=None,
    )
    evaluate_model.set_defaults(func=_cmd_eval_model)

    fuzz = add_command(
        "fuzz", help="differentially fuzz the pipeline against the oracle"
    )
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--iterations", type=int, default=200)
    fuzz.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop early after this much wall-clock time",
    )
    fuzz.add_argument("--max-inputs", type=int, default=7)
    fuzz.add_argument("--max-gates", type=int, default=28)
    fuzz.add_argument(
        "--checks",
        default=None,
        help="comma-separated check names (default: all)",
    )
    fuzz.add_argument(
        "--corpus",
        default=None,
        metavar="DIR",
        help="replay this corpus directory instead of generating",
    )
    fuzz.add_argument(
        "--generate",
        action="store_true",
        help="with --corpus pointing at --save-failures: still generate",
    )
    fuzz.add_argument(
        "--save-failures",
        default=None,
        metavar="DIR",
        help="write shrunk reproducers into this directory",
    )
    fuzz.add_argument(
        "--no-shrink", action="store_true", help="report raw failures unshrunk"
    )
    fuzz.add_argument(
        "--max-failures",
        type=int,
        default=5,
        help="stop after this many failures (0 = no limit)",
    )
    fuzz.set_defaults(func=_cmd_fuzz)

    stats = add_command(
        "stats", help="run the pipeline once and print its telemetry"
    )
    stats.add_argument(
        "circuit", nargs="?", default=None,
        help="benchmark name or BLIF path",
    )
    stats.add_argument(
        "--input",
        default=None,
        metavar="FILE",
        help="render a saved metrics snapshot instead of running "
        "(from --metrics or cluster-stats --output)",
    )
    stats.add_argument("--max-nodes", type=int, default=1000)
    stats.add_argument(
        "--strategy", choices=("avg", "max", "min"), default="avg"
    )
    stats.add_argument(
        "--pairs",
        type=int,
        default=256,
        help="transition pairs for the compiled-eval / golden-sim pass",
    )
    stats.set_defaults(func=_cmd_stats)

    serve = add_command(
        "serve", help="serve power queries over JSON-lines TCP"
    )
    serve.add_argument(
        "circuits", nargs="+", help="benchmark names or netlist paths to serve"
    )
    # Tuning flags are named after ServerConfig fields and default to
    # None: an unset flag keeps the config's default (see _serve_config).
    serve.add_argument("--host", default=None)
    serve.add_argument(
        "--port", type=int, default=7090, help="0 picks an ephemeral port"
    )
    serve.add_argument("--max-nodes", type=int, default=1000)
    serve.add_argument(
        "--strategy", choices=("avg", "max", "min"), default="avg"
    )
    serve.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="content-addressed model store to load/build through",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=None,
        help="flush a model's queue at this many rows",
    )
    serve.add_argument(
        "--max-wait-ms",
        type=float,
        default=None,
        help="flush after the oldest request waited this long (default: "
        "next event-loop iteration for a model with a compiled kernel, "
        "2 ms otherwise)",
    )
    serve.add_argument(
        "--request-timeout",
        dest="request_timeout_s",
        type=float,
        default=None,
        help="per-request deadline in seconds",
    )
    serve.add_argument(
        "--no-batching",
        action="store_true",
        help="evaluate each request inline (baseline mode)",
    )
    serve.add_argument(
        "--max-connections",
        type=int,
        default=None,
        help="shed connections beyond this many concurrent clients",
    )
    serve.add_argument(
        "--max-parked-rows",
        type=int,
        default=None,
        help="shed evaluate requests once this many rows are queued",
    )
    serve.add_argument(
        "--kernel",
        default=None,
        help="evaluation backend to pin the served models to "
        "(auto, pointer, levelized, bitparallel, codegen; default auto)",
    )
    serve.add_argument(
        "--fused",
        action="store_true",
        default=None,
        help="fuse codegen-eligible models into one shared kernel and "
        "drain all batchers per flush",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard worker processes; >1 starts a consistent-hash "
        "cluster with a control-plane router on --port",
    )
    serve.add_argument(
        "--replication",
        type=int,
        default=2,
        help="distinct shards each model is routed across (cluster mode)",
    )
    serve.add_argument(
        "--restart-failed",
        action="store_true",
        help="respawn a replacement shard when a worker dies (cluster mode)",
    )
    serve.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="write per-process Chrome-trace exports here at shutdown "
        "(assemble with trace-merge)",
    )
    serve.add_argument(
        "--slowlog-threshold-ms",
        type=float,
        default=None,
        help="record requests slower than this in the slow-query log",
    )
    serve.add_argument(
        "--slowlog-rate",
        type=float,
        default=None,
        help="sampling probability for slow-query log entries (0..1)",
    )
    serve.add_argument(
        "--slowlog-capacity",
        type=int,
        default=None,
        help="slow-query log ring-buffer size",
    )
    serve.add_argument(
        "--prometheus-port",
        type=int,
        default=None,
        help="cluster mode: serve Prometheus text metrics on this port "
        "(0 picks an ephemeral one)",
    )
    serve.add_argument(
        "--push-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="cluster mode: how often shards push metrics snapshots "
        "to the router",
    )
    serve.set_defaults(func=_cmd_serve)

    query = add_command("query", help="query a running power server")
    query.add_argument("model", nargs="?", default=None)
    query.add_argument(
        "transitions",
        nargs="*",
        help="2n bits each: x_i concatenated with x_f",
    )
    query.add_argument("--host", default="127.0.0.1")
    query.add_argument("--port", type=int, default=7090)
    query.add_argument("--timeout", type=float, default=30.0)
    query.add_argument("--ping", action="store_true", help="liveness check")
    query.add_argument(
        "--models", action="store_true", help="list served models"
    )
    query.add_argument(
        "--server-stats",
        action="store_true",
        help="print the server's telemetry snapshot as JSON",
    )
    query.add_argument(
        "--slowlog",
        action="store_true",
        help="print the server's sampled slow-query log",
    )
    query.add_argument(
        "--shutdown", action="store_true", help="stop the server gracefully"
    )
    query.set_defaults(func=_cmd_query)

    cluster_stats = add_command(
        "cluster-stats",
        help="aggregated health + metrics of a sharded serving cluster",
    )
    cluster_stats.add_argument("--host", default="127.0.0.1")
    cluster_stats.add_argument(
        "--port", type=int, default=7090, help="the cluster router port"
    )
    cluster_stats.add_argument("--timeout", type=float, default=30.0)
    cluster_stats.add_argument(
        "--json",
        action="store_true",
        help="print the full aggregated report as JSON",
    )
    cluster_stats.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="write the merged metrics as a repro-metrics snapshot "
        "(render later with 'stats --input')",
    )
    cluster_stats.set_defaults(func=_cmd_cluster_stats)

    trace_merge = add_command(
        "trace-merge",
        help="merge per-process Chrome traces onto one timeline",
    )
    trace_merge.add_argument(
        "inputs",
        nargs="+",
        help="trace-*.json files and/or directories holding them",
    )
    trace_merge.add_argument(
        "-o",
        "--output",
        default="merged_trace.json",
        help="merged Chrome-trace output path",
    )
    trace_merge.add_argument(
        "--trace-id",
        default=None,
        help="keep only events of this distributed trace id",
    )
    trace_merge.set_defaults(func=_cmd_trace_merge)

    top = add_command(
        "top", help="live dashboard of a running serving cluster"
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument(
        "--port", type=int, default=7090, help="the cluster router port"
    )
    top.add_argument("--timeout", type=float, default=30.0)
    top.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="refresh period",
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=0,
        help="stop after this many frames (0 = run until interrupted)",
    )
    top.add_argument(
        "--no-clear",
        action="store_true",
        help="append frames instead of clearing the screen (for logs/CI)",
    )
    top.set_defaults(func=_cmd_top)

    store = add_command(
        "store", help="inspect / maintain a model store directory"
    )
    store.add_argument("action", choices=("ls", "gc", "prefetch", "sync"))
    store.add_argument(
        "circuits", nargs="*", help="circuits to prefetch (prefetch only)"
    )
    store.add_argument(
        "--store",
        required=True,
        metavar="SPEC",
        help="model store: a directory or obj://host:port",
    )
    store.add_argument(
        "--dest",
        default=None,
        metavar="SPEC",
        help="sync: destination store (directory or obj://host:port)",
    )
    store.add_argument(
        "--queue",
        default=None,
        metavar="HOST:PORT",
        help="prefetch: route builds through a build-queue service",
    )
    store.add_argument("--max-nodes", type=int, default=1000)
    store.add_argument(
        "--strategy", choices=("avg", "max", "min"), default="avg"
    )
    store.add_argument(
        "--max-bytes", type=int, default=None, help="gc: keep at most this many bytes"
    )
    store.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        help="gc: drop entries not accessed within this window",
    )
    store.set_defaults(func=_cmd_store)

    serve_objects = add_command(
        "serve-objects", help="run the S3-style object-store server"
    )
    serve_objects.add_argument("--host", default="127.0.0.1")
    serve_objects.add_argument("--port", type=int, default=0)
    serve_objects.add_argument(
        "--root",
        default=None,
        metavar="DIR",
        help="persist objects under this directory (default: in memory)",
    )
    serve_objects.set_defaults(func=_cmd_serve_objects)

    queue = add_command(
        "queue", help="distributed build queue: serve / worker / stats"
    )
    queue.add_argument("action", choices=("serve", "worker", "stats"))
    queue.add_argument("--host", default="127.0.0.1", help="serve: bind host")
    queue.add_argument("--port", type=int, default=0, help="serve: bind port")
    queue.add_argument(
        "--lease-s", type=float, default=10.0, help="serve: job lease seconds"
    )
    queue.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="serve: claims a job may burn before failing",
    )
    queue.add_argument(
        "--wal-dir",
        default=None,
        metavar="DIR",
        help="serve: journal state here and recover it after a crash",
    )
    queue.add_argument(
        "--no-wal-fsync",
        dest="wal_fsync",
        action="store_false",
        default=True,
        help="serve: skip fsync per journal append (faster, less durable)",
    )
    queue.add_argument(
        "--wal-compact-every",
        type=int,
        default=256,
        metavar="N",
        help="serve: fold the journal into a snapshot every N records",
    )
    queue.add_argument(
        "--queue",
        default=None,
        metavar="HOST:PORT",
        help="worker/stats: queue server to talk to",
    )
    queue.add_argument(
        "--store",
        default=None,
        metavar="SPEC",
        help="worker: store backend to publish into",
    )
    queue.add_argument(
        "--id", default=None, help="worker: stable worker identity"
    )
    queue.set_defaults(func=_cmd_queue)
    return parser


def _setup_observability(args: argparse.Namespace):
    """Honour the global ``--trace`` / ``--metrics`` flags before dispatch."""
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    if trace_path is None and metrics_path is None:
        return None

    from repro.obs import enable_detailed_metrics, enable_tracing, get_metrics

    registry = get_metrics()
    registry.reset()  # report this invocation, not import-time leftovers
    enable_detailed_metrics(True)
    tracer = enable_tracing() if trace_path is not None else None
    return tracer


def _write_observability(args: argparse.Namespace, tracer) -> None:
    """Export trace / metrics files after the subcommand ran."""
    import json

    from repro.obs import disable_tracing, enable_detailed_metrics, get_metrics

    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    if tracer is not None and trace_path is not None:
        tracer.write_chrome(trace_path)
        disable_tracing()
    if metrics_path is not None:
        payload = {
            "format": "repro-metrics",
            "version": 1,
            "metrics": get_metrics().snapshot(),
        }
        with open(metrics_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, default=str)
            handle.write("\n")
    enable_detailed_metrics(False)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    observing = (
        getattr(args, "trace", None) is not None
        or getattr(args, "metrics", None) is not None
    )
    tracer = _setup_observability(args)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if observing:
            _write_observability(args, tracer)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
