"""Names, units and bounds of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root repeats the first four columns
(``test_bench.py`` checks that the two agree).  The ``moves`` column is
the prediction written down before measuring: which end-to-end metric,
on which workload, a change in that layer should move.

Every workload reports every metric.  End-to-end metrics are never 0;
a per-layer metric of a layer a workload leaves idle reads 0.
"""

from __future__ import annotations

#: Seconds one run measures (``run.py --seconds`` default).
RUN_SECONDS = 15

#: name -> (unit, better, bound as a share of the parent's median).
#: ``tail_ms`` is the highest latency percentile a run has at least ten
#: samples beyond: p99 for ``point`` and ``bulk``, p90 for ``queue``;
#: ``build`` has one latency per circuit and reports the slowest.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "p50_ms": ("ms", "lower", 0.25),
    "tail_ms": ("ms", "lower", 0.25),
    "ops_per_s": ("1/s", "higher", 0.25),
}

#: name -> (unit, better, moves)
PER_LAYER = {
    # serve.server: diffs of the server's own stats op per phase.
    "serve.queue_wait_ms.p50": ("ms", "lower", "p50_ms on point"),
    "serve.queue_wait_ms.p99": ("ms", "lower", "tail_ms on point"),
    "serve.batch_wait_ms.p50": ("ms", "lower", "p50_ms on point"),
    "serve.batch_wait_ms.p99": ("ms", "lower", "tail_ms on point"),
    "serve.kernel_ms.p50": ("ms", "lower", "ops_per_s on point"),
    "serve.kernel_ms.p99": ("ms", "lower", "tail_ms on point"),
    "serve.serialize_ms.p50": ("ms", "lower", "ops_per_s on bulk"),
    "serve.rows_per_batch": ("count", "higher", "ops_per_s on point"),
    "serve.cpu_us_per_req": ("us", "lower", "ops_per_s on point and bulk"),
    # serve.protocol: traced decode_request / parse_transitions / encode.
    "serve.protocol.decode_us_per_req": ("us", "lower", "ops_per_s on point"),
    "serve.protocol.parse_us_per_req": ("us", "lower", "ops_per_s and p50_ms on bulk"),
    "serve.protocol.encode_us_per_req": ("us", "lower", "ops_per_s and p50_ms on bulk"),
    "serve.protocol.request_bytes": ("bytes", "lower", "p50_ms on bulk"),
    "serve.protocol.response_bytes": ("bytes", "lower", "p50_ms on bulk"),
    # dd.backends / dd.compiled: traced CompiledDD.evaluate_batch.
    "dd.compiled.us_per_call": ("us", "lower", "ops_per_s on point"),
    "dd.compiled.rows_per_call": ("count", "higher", "ops_per_s on point"),
    "dd.backend.share.pointer": ("fraction", "lower", "ops_per_s on point"),
    "dd.backend.share.levelized": ("fraction", "lower", "ops_per_s on point"),
    "dd.backend.share.bitparallel": ("fraction", "lower", "ops_per_s on bulk"),
    "dd.backend.share.codegen": ("fraction", "higher", "ops_per_s on point"),
    "models.addmodel.pack_us_per_call": ("us", "lower", "ops_per_s on bulk"),
    # Server start, traced in the launcher.
    "setup.store_load_s": ("s", "lower", "setup_s on point and bulk"),
    "setup.compile_s": ("s", "lower", "setup_s on point and bulk"),
    "setup.warm_s": ("s", "lower", "setup_s on point and bulk"),
    # Additive breakdown of the open-loop mean latency.
    "serve.breakdown.lateness_ms": ("ms", "lower", "p50_ms on point"),
    "serve.breakdown.client_encode_ms": ("ms", "lower", "p50_ms on bulk"),
    "serve.breakdown.server_decode_parse_ms": ("ms", "lower", "p50_ms on bulk"),
    "serve.breakdown.queue_wait_ms": ("ms", "lower", "p50_ms on point"),
    "serve.breakdown.batch_wait_ms": ("ms", "lower", "p50_ms on point"),
    "serve.breakdown.kernel_ms": ("ms", "lower", "p50_ms on point"),
    "serve.breakdown.serialize_ms": ("ms", "lower", "p50_ms on bulk"),
    "serve.breakdown.client_decode_ms": ("ms", "lower", "p50_ms on bulk"),
    "serve.breakdown.unaccounted_ms": ("ms", "lower", "p50_ms on point"),
    "serve.breakdown.total_ms": ("ms", "lower", "p50_ms on point and bulk"),
    # Model building: traced self times, summed over all processes.
    "netlist.symbolic.sweep_s": ("s", "lower", "ops_per_s on build"),
    "dd.manager.deltas_s": ("s", "lower", "ops_per_s on build"),
    "dd.manager.accumulate_s": ("s", "lower", "ops_per_s on build"),
    "dd.approx.collapse_s": ("s", "lower", "ops_per_s on build"),
    "dd.manager.size_s": ("s", "lower", "ops_per_s on build"),
    "models.addmodel.other_s": ("s", "lower", "ops_per_s on build"),
    "models.serialize.to_dict_s": ("s", "lower", "ops_per_s on build"),
    "models.serialize.from_dict_s": ("s", "lower", "setup_s on build"),
    "serve.store.put_s": ("s", "lower", "ops_per_s on build"),
    "serve.store.get_s": ("s", "lower", "setup_s on build"),
    "models.addmodel.worker_s": ("s", "lower", "ops_per_s on build"),
    "models.addmodel.supervise_s": ("s", "lower", "ops_per_s on build"),
    "models.addmodel.worker_busy_frac": ("fraction", "higher", "ops_per_s on build"),
    "trace.build_self_time_coverage": ("fraction", "higher", "none (tracing check)"),
    # Exact-repeat counts of the build (same on every run of one commit).
    "dd.approx.approximations": ("count", "lower", "ops_per_s on build"),
    "dd.apply.cache_misses": ("count", "lower", "ops_per_s on build"),
    "dd.nodes_final": ("count", "lower", "setup_s on build"),
    "dd.nodes_peak": ("count", "lower", "ops_per_s on build"),
    "build.are_pct": ("%", "lower", "none (accuracy of avg models)"),
    # serve.queue / serve.wal / serve.objectstore.
    "queue.submit_ms.p50": ("ms", "lower", "p50_ms on queue"),
    "queue.submit_ms.p99": ("ms", "lower", "tail_ms on queue"),
    "wal.records_per_job": ("count", "lower", "ops_per_s on queue"),
    "queue.attempts_per_job": ("count", "lower", "ops_per_s on queue"),
    "objectstore.bytes_per_job": ("bytes", "lower", "ops_per_s on queue"),
    "queue.cpu_ms_per_job": ("ms", "lower", "ops_per_s on queue"),
    "objectstore.cpu_ms_per_job": ("ms", "lower", "ops_per_s on queue"),
    "workers.cpu_ms_per_job": ("ms", "lower", "ops_per_s on queue"),
    # The traced run's own end-to-end numbers: against the untraced
    # run's they give the tracing overhead.
    "trace.p50_ms": ("ms", "lower", "none (tracing overhead)"),
    "trace.ops_per_s": ("1/s", "higher", "none (tracing overhead)"),
}
