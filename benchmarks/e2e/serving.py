"""``point`` and ``bulk``: one ``repro serve`` process under seeded load.

The generator is one asyncio loop in the benchmark process with two
connections.  Each run has three phases against the same server:

1. warm-up, open loop at the offered rate (answers checked, not timed);
2. open loop at a fixed offered rate — every request is timed from the
   moment it was *due*, so a stalled server is charged for the requests
   queued behind the stall (no coordinated omission);
3. closed loop with a fixed number of requests in flight — completions
   per second is the saturation throughput.

Every answer is compared bit for bit with the same stored model
evaluated locally.  The server runs with its default configuration;
only the port (ephemeral) and the served circuits are passed.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

import common
from common import (
    Conn, Procs, counter, hist_mean, hist_quantile_ms, mean, quantile, windowed_quantile,
)
from tracing import layer_totals

MAX_NODES = 1000
#: Seeded transitions per served model; requests draw from this pool.
POOL = 2048
#: Warm server starts per run; setup_s is their median.
SETUP_STARTS = 5
#: Share of ``--seconds`` spent in each phase.
WARMUP, OPEN, CLOSED = 0.1, 0.55, 0.35
#: Closed-loop throughput is a high quantile of short-window rates: the
#: rate the server sustains while the shared host is quiet.  Slow
#: periods on such a host last seconds and only ever slow the program
#: down, so a median window would measure the neighbours instead.
RATE_WINDOW_S, RATE_QUANTILE = 0.25, 0.95
BACKENDS = ("pointer", "levelized", "bitparallel", "codegen")
READY = r"serving \d+ model\(s\)"


@dataclass(frozen=True)
class ServingSpec:
    name: str
    circuits: Tuple[str, ...]
    #: Transitions per request (1 = the single-transition request form).
    rows: int
    #: Open-loop offered rate, requests per second.
    rate: float
    #: Closed-loop requests in flight.
    in_flight: int
    #: Zipf exponent of model popularity (0 = uniform).
    zipf: float


POINT = ServingSpec(
    "point",
    ("parity", "cmb", "cm85", "alu2", "x2", "decod", "cm150", "pcle"),
    rows=1, rate=3000.0, in_flight=128, zipf=1.1,
)
BULK = ServingSpec(
    "bulk", ("k2", "x1", "comp", "alu4"),
    rows=64, rate=480.0, in_flight=32, zipf=0.0,
)


class Traffic:
    """Seeded request stream over per-model pools of checked answers."""

    def __init__(self, spec: ServingSpec, models: Dict, seed: int):
        rng = np.random.default_rng(seed)
        self.spec = spec
        self.pools = []
        for name in spec.circuits:
            model = models[name]
            initial = rng.random((POOL, model.num_inputs)) < 0.5
            final = rng.random((POOL, model.num_inputs)) < 0.5
            expected = model.pair_capacitances(initial, final).tolist()
            self.pools.append(
                (name, _bit_strings(initial), _bit_strings(final), expected)
            )
        weights = [1.0 / (k + 1) ** spec.zipf for k in range(len(spec.circuits))]
        total = sum(weights)
        self.cum = [sum(weights[: k + 1]) / total for k in range(len(weights))]
        self.rng = random.Random(seed)

    def next(self) -> Tuple[Dict, object]:
        """One request payload (without id) and its expected result."""
        rng = self.rng
        name, initial, final, expected = self.pools[
            rng.choices(range(len(self.pools)), cum_weights=self.cum)[0]
        ]
        start = rng.randrange(POOL)
        if self.spec.rows == 1:
            return (
                {"op": "evaluate", "model": name,
                 "initial": initial[start], "final": final[start]},
                expected[start],
            )
        rows = [(start + k) % POOL for k in range(self.spec.rows)]
        return (
            {"op": "evaluate", "model": name,
             "pairs": [[initial[j], final[j]] for j in rows]},
            [expected[j] for j in rows],
        )


def _bit_strings(matrix: np.ndarray) -> List[str]:
    text = (matrix.astype(np.uint8) + ord("0")).tobytes().decode("ascii")
    width = matrix.shape[1]
    return [text[k * width : (k + 1) * width] for k in range(matrix.shape[0])]


@dataclass
class Phase:
    """Records of one load phase."""

    closed: bool = False
    active: bool = True
    sent: int = 0
    failed: int = 0
    latency_ms: List[float] = field(default_factory=list)
    lateness_ms: List[float] = field(default_factory=list)
    encode_s: List[float] = field(default_factory=list)
    decode_s: List[float] = field(default_factory=list)
    request_bytes: int = 0
    response_bytes: int = 0
    done_at: List[float] = field(default_factory=list)


class Driver:
    """Open- and closed-loop generator over a few pipelined connections."""

    def __init__(self, traffic: Traffic, conns: List[Conn]):
        self.traffic = traffic
        self.conns = conns
        self.next_id = 0
        self.control: Dict[int, asyncio.Future] = {}
        for conn in conns:
            conn.task = asyncio.ensure_future(self._read(conn))

    def _send(self, conn: Conn, due: float, phase: Phase) -> None:
        payload, expected = self.traffic.next()
        self.next_id += 1
        payload["id"] = self.next_id
        start = time.perf_counter()
        line = (json.dumps(payload, separators=(",", ":")) + "\n").encode()
        encoded = time.perf_counter()
        conn.writer.write(line)
        conn.pending[self.next_id] = (phase, due, start, encoded - start, expected)
        phase.sent += 1
        phase.request_bytes += len(line)

    async def _read(self, conn: Conn) -> None:
        readline = conn.reader.readline
        while True:
            line = await readline()
            if not line:
                return
            now = time.perf_counter()
            reply = json.loads(line)
            rid = reply.get("id")
            entry = conn.pending.pop(rid, None)
            if entry is None:
                future = self.control.pop(rid, None)
                if future is not None and not future.done():
                    future.set_result(reply)
                continue
            phase, due, sent, encode_s, expected = entry
            result = reply.get("result") if reply.get("ok") else None
            if self.traffic.spec.rows == 1:
                good = result is not None and result.get("capacitance_fF") == expected
            else:
                good = result is not None and result.get("capacitances_fF") == expected
            done = time.perf_counter()
            if not good:
                phase.failed += 1
            phase.latency_ms.append((now - due) * 1e3)
            phase.lateness_ms.append((sent - due) * 1e3)
            phase.encode_s.append(encode_s)
            phase.decode_s.append(done - now)
            phase.response_bytes += len(line)
            phase.done_at.append(now)
            if phase.closed and phase.active:
                self._send(conn, done, phase)

    async def call(self, payload: Dict) -> Dict:
        """A control request (stats, shutdown) on the first connection."""
        self.next_id += 1
        payload = dict(payload, id=self.next_id)
        future = asyncio.get_running_loop().create_future()
        self.control[self.next_id] = future
        self.conns[0].writer.write((json.dumps(payload) + "\n").encode())
        reply = await asyncio.wait_for(future, 30.0)
        if not reply.get("ok"):
            raise common.BenchError(f"{payload['op']} failed: {reply.get('error')}")
        return reply["result"]

    async def open_loop(self, rate: float, duration: float) -> Phase:
        phase = Phase()
        start = time.perf_counter() + 0.005
        for i in range(max(1, int(rate * duration))):
            due = start + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            elif i % 32 == 0:
                await asyncio.sleep(0)  # let replies in while catching up
            self._send(self.conns[i % len(self.conns)], due, phase)
        await self._drain(phase)
        return phase

    async def closed_loop(self, in_flight: int, duration: float) -> Tuple[Phase, float]:
        phase = Phase(closed=True)
        start = time.perf_counter()
        for i in range(in_flight):
            self._send(self.conns[i % len(self.conns)], time.perf_counter(), phase)
        await asyncio.sleep(duration)
        phase.active = False
        end = time.perf_counter()
        await self._drain(phase)
        return phase, common.windowed_rate(phase.done_at, start, end, RATE_WINDOW_S, RATE_QUANTILE)

    async def _drain(self, phase: Phase, timeout_s: float = 30.0) -> None:
        deadline = time.perf_counter() + timeout_s
        while len(phase.done_at) < phase.sent and time.perf_counter() < deadline:
            await asyncio.sleep(0.005)
        missing = phase.sent - len(phase.done_at)
        phase.failed += missing  # timed out: never answered


def build_store(spec: ServingSpec, store_dir: str):
    """Build the served models into a fresh store (outside any timing)
    and load them back the way the server will."""
    from repro.circuits import load_circuit
    from repro.serve import ModelStore

    netlists = [load_circuit(name) for name in spec.circuits]
    ModelStore(store_dir).get_or_build_many(
        netlists, max_nodes=MAX_NODES, strategy="avg"
    )
    models = ModelStore(store_dir).get_or_build_many(
        netlists, max_nodes=MAX_NODES, strategy="avg"
    )
    return dict(zip(spec.circuits, models))


def server_argv(spec: ServingSpec, store_dir: str, traced: bool) -> List[str]:
    args = [
        "serve", "--store", store_dir, "--port", "0",
        "--max-nodes", str(MAX_NODES), "--strategy", "avg", *spec.circuits,
    ]
    if traced:
        return [sys.executable, os.path.join(common.HERE, "launcher.py"), *args]
    return common.cli(*args)


def run(spec: ServingSpec, seed: int, seconds: float, trace: bool) -> Dict:
    store_dir = common.fresh_dir(f"{spec.name}-store")
    models = build_store(spec, store_dir)
    traffic = Traffic(spec, models, seed)
    with Procs() as procs:
        starts = []
        server = None
        for attempt in range(SETUP_STARTS):
            server = procs.spawn(
                "server", server_argv(spec, store_dir, trace), READY, timeout_s=120
            )
            starts.append(server.ready_at - server.started)
            if attempt < SETUP_STARTS - 1:
                common.call_once(server.host, server.port, {"op": "shutdown"})
                procs.wait_exit(server)
        gate = common.Gate.open()
        with common.quiet_gc():
            measured = asyncio.run(_drive(spec, traffic, server, seconds))
        procs.wait_exit(server)
    measured["gate"] = gate.close(quantile(measured["open"].lateness_ms, 0.99))
    return _report(spec, measured, common.median(starts), starts, trace, seconds)


async def _drive(spec: ServingSpec, traffic: Traffic, server, seconds: float) -> Dict:
    conns = [
        await Conn.open(server.host, server.port)
        for _ in range(min(2, os.cpu_count() or 1))
    ]
    driver = Driver(traffic, conns)
    try:
        boot = (await driver.call({"op": "stats"}))["metrics"]
        warm = await driver.open_loop(spec.rate, max(0.5, WARMUP * seconds))
        before = (await driver.call({"op": "stats"}))["metrics"]
        opened = await driver.open_loop(spec.rate, OPEN * seconds)
        middle = (await driver.call({"op": "stats"}))["metrics"]
        cpu1 = server.cpu_s()
        closed, ops_per_s = await driver.closed_loop(spec.in_flight, CLOSED * seconds)
        after = (await driver.call({"op": "stats"}))["metrics"]
        cpu2 = server.cpu_s()
        await driver.call({"op": "shutdown"})
    finally:
        for conn in conns:
            await conn.close()
    return {
        "warm": warm,
        "open": opened,
        "closed": closed,
        "ops_per_s": ops_per_s,
        "boot": boot,
        "open_delta": common.snap_diff(before, middle),
        "closed_delta": common.snap_diff(middle, after),
        "closed_cpu_s": cpu2 - cpu1,
    }


def _report(spec: ServingSpec, m: Dict, setup_s: float, starts: List[float],
            traced: bool, seconds: float) -> Dict:
    phases = (m["warm"], m["open"], m["closed"])
    chunks = max(1, int(OPEN * seconds))
    opened, closed = m["open"], m["closed"]
    end_to_end = {
        "setup_s": setup_s,
        "p50_ms": windowed_quantile(opened.latency_ms, 0.50, chunks),
        "tail_ms": windowed_quantile(opened.latency_ms, 0.99, chunks),
        "ops_per_s": m["ops_per_s"],
    }
    result = {
        "workload": spec.name,
        "attempted": sum(p.sent for p in phases),
        "failed": sum(p.failed for p in phases),
        "end_to_end": end_to_end,
        "samples": {"open": len(opened.latency_ms), "closed": len(closed.latency_ms),
                    "tail": "p99", "setup_starts": starts},
        "gate": m["gate"],
        "per_layer": _layers(m) if traced else {},
    }
    return result


def _layers(m: Dict) -> Dict[str, float]:
    d, c, boot = m["open_delta"], m["closed_delta"], m["boot"]
    opened = m["open"]
    requests = max(1.0, counter(d, "serve.eval.requests"))
    batches = max(1.0, counter(d, "serve.eval.batches"))
    decode = layer_totals(d, "serve.protocol.decode")
    parse = layer_totals(d, "serve.protocol.parse")
    encode = layer_totals(d, "serve.protocol.encode")
    pack = layer_totals(d, "models.addmodel.pack")
    kernel = layer_totals(d, "dd.compiled.evaluate")
    by_backend = {b: counter(d, f"eval.backend.{b}.batches") for b in BACKENDS}
    backend_total = max(1.0, sum(by_backend.values()))
    closed_requests = max(1.0, counter(c, "serve.eval.requests"))

    out = {
        "serve.queue_wait_ms.p50": hist_quantile_ms(d, "serve.latency.queue_wait_seconds", 0.50),
        "serve.queue_wait_ms.p99": hist_quantile_ms(d, "serve.latency.queue_wait_seconds", 0.99),
        "serve.batch_wait_ms.p50": hist_quantile_ms(d, "serve.latency.batch_wait_seconds", 0.50),
        "serve.batch_wait_ms.p99": hist_quantile_ms(d, "serve.latency.batch_wait_seconds", 0.99),
        "serve.kernel_ms.p50": hist_quantile_ms(d, "serve.latency.kernel_seconds", 0.50),
        "serve.kernel_ms.p99": hist_quantile_ms(d, "serve.latency.kernel_seconds", 0.99),
        "serve.serialize_ms.p50": hist_quantile_ms(d, "serve.latency.serialize_seconds", 0.50),
        "serve.rows_per_batch": counter(d, "serve.eval.rows") / batches,
        "serve.cpu_us_per_req": m["closed_cpu_s"] / closed_requests * 1e6,
        "serve.protocol.decode_us_per_req": decode["s"] / requests * 1e6,
        "serve.protocol.parse_us_per_req": parse["s"] / requests * 1e6,
        "serve.protocol.encode_us_per_req": encode["s"] / requests * 1e6,
        "serve.protocol.request_bytes": opened.request_bytes / max(1, opened.sent),
        "serve.protocol.response_bytes": opened.response_bytes / max(1, len(opened.done_at)),
        "dd.compiled.us_per_call": kernel["s"] / max(1.0, kernel["calls"]) * 1e6,
        "dd.compiled.rows_per_call": kernel["rows"] / max(1.0, kernel["calls"]),
        "models.addmodel.pack_us_per_call": pack["s"] / max(1.0, pack["calls"]) * 1e6,
        "setup.store_load_s": layer_totals(boot, "setup.store_load")["s"],
        "setup.compile_s": layer_totals(boot, "setup.compile")["s"],
        "setup.warm_s": layer_totals(boot, "setup.warm")["s"],
    }
    for backend, batches_on in by_backend.items():
        out[f"dd.backend.share.{backend}"] = batches_on / backend_total

    # Additive breakdown of the open-loop mean latency.  The server's
    # queue_wait starts before decode and parse, so they are taken out
    # of it; kernel time is weighted by rows, which equals weighting by
    # request because every request of a workload has the same rows.
    decode_parse = (decode["s"] + parse["s"]) / requests
    stages = {
        "lateness": mean(opened.lateness_ms) / 1e3,
        "client_encode": mean(opened.encode_s),
        "server_decode_parse": decode_parse,
        "queue_wait": max(0.0, hist_mean(d, "serve.latency.queue_wait_seconds") - decode_parse),
        "batch_wait": hist_mean(d, "serve.latency.batch_wait_seconds"),
        "kernel": pack["row_s"] / max(1.0, pack["rows"]),
        "serialize": hist_mean(d, "serve.latency.serialize_seconds"),
        "client_decode": mean(opened.decode_s),
    }
    total = mean(opened.latency_ms) / 1e3
    for stage, seconds in stages.items():
        out[f"serve.breakdown.{stage}_ms"] = seconds * 1e3
    out["serve.breakdown.unaccounted_ms"] = (total - sum(stages.values())) * 1e3
    out["serve.breakdown.total_ms"] = total * 1e3
    return out
