"""``queue``: the durable build pipeline, driven as separate processes.

``repro serve-objects --root`` (object store), ``repro queue serve
--wal-dir`` (fsync on, the default) and two ``repro queue worker``
processes.  Jobs are seeded ``random_logic`` netlists of 10 inputs and
24 gates, built exactly (no size budget): the models are trivial, so
the control plane does the work — RPC, journal fsync, object puts with
sha256, claims, heartbeats.

One connection submits, a second long-polls completions in submit
order.  Phases: warm-up; one job at a time, each submitted when the
previous one is done, so a job's latency (submit to the poller seeing
it done) holds no wait behind other jobs; then a closed-loop burst of
submits, one submit in flight, whose jobs per second run from its first
submit to its last completion.  Afterwards
every job's published model is fetched from the object store and
checked against gate-level simulation.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

import common
from common import Conn, Procs, median, quantile

WORKERS = 2
JOB_INPUTS, JOB_GATES = 10, 24
#: About a hundred single jobs per run: p90 is the highest percentile
#: with ten of them beyond it.
TAIL_QUANTILE = 0.9
#: Closed-loop burst size per measured second.
BURST_PER_SECOND = 20
SETUP_STARTS = 3
WARMUP, SINGLE, BURST = 0.1, 0.6, 0.3
CHECK_TRANSITIONS = 32


@dataclass
class Stack:
    objects: common.Proc
    queue: common.Proc
    workers: List[common.Proc]
    setup_s: float

    @property
    def procs(self) -> List[common.Proc]:
        return [self.objects, self.queue, *self.workers]


def start_stack(procs: Procs, tag: str) -> Stack:
    """Start object store + queue, then the workers; time to all ready."""
    start = time.perf_counter()
    root = common.fresh_dir(f"queue-{tag}-objects")
    wal = common.fresh_dir(f"queue-{tag}-wal")
    objects = procs.start("objects", common.cli("serve-objects", "--root", root, "--port", "0"))
    queue = procs.start("queue", common.cli("queue", "serve", "--port", "0", "--wal-dir", wal))
    procs.wait_ready(objects, r"object store listening")
    procs.wait_ready(queue, r"build queue listening")
    workers = [
        procs.start(f"worker{k}", common.cli(
            "queue", "worker", "--queue", f"{queue.host}:{queue.port}",
            "--store", f"obj://{objects.host}:{objects.port}", "--id", f"w{k}",
        ))
        for k in range(WORKERS)
    ]
    for worker in workers:
        procs.wait_ready(worker, r"building from")
    common.call_once(queue.host, queue.port, {"op": "ping"})
    return Stack(objects, queue, workers, time.perf_counter() - start)


def stop_stack(procs: Procs, stack: Stack) -> None:
    for worker in stack.workers:
        procs.stop(worker)
    for server in (stack.queue, stack.objects):
        common.call_once(server.host, server.port, {"op": "shutdown"})
        procs.wait_exit(server)


def job_netlists(seed: int):
    """Seeded netlists with distinct content keys, without end."""
    from repro.circuits.random_logic import random_logic
    from repro.serve.store import store_key

    keys = set()
    index = 0
    while True:
        netlist = random_logic(
            f"job{index}", JOB_INPUTS, JOB_GATES, seed=seed * 1_000_003 + index
        )
        index += 1
        key = store_key(netlist, {})
        if key not in keys:
            keys.add(key)
            yield netlist


class Pipe:
    """A connection whose replies resolve futures by request id."""

    def __init__(self, conn: Conn):
        self.conn = conn
        self.next_id = 0
        self.waiting: Dict[int, asyncio.Future] = {}
        conn.task = asyncio.ensure_future(self._read())

    async def _read(self) -> None:
        while True:
            line = await self.conn.reader.readline()
            if not line:
                return
            reply = json.loads(line)
            future = self.waiting.pop(reply.get("id"), None)
            if future is not None:
                future.set_result((time.perf_counter(), reply))

    def send(self, payload: Dict) -> asyncio.Future:
        self.next_id += 1
        future = asyncio.get_running_loop().create_future()
        self.waiting[self.next_id] = future
        self.conn.writer.write(
            (json.dumps(dict(payload, id=self.next_id), separators=(",", ":")) + "\n").encode()
        )
        return future


@dataclass
class Job:
    netlist: object
    due: float
    sent: float = 0.0
    acked: float = 0.0
    done: float = 0.0
    key: str = ""
    attempts: int = 0
    ok: bool = False


async def _submit(pipe: Pipe, job: Job, keys: asyncio.Queue) -> None:
    job.sent = time.perf_counter()
    job.acked, reply = await pipe.send(
        {"op": "queue.submit", "netlist": job.netlist.canonical_dict(), "config": {}}
    )
    if reply.get("ok"):
        job.key = reply["result"]["key"]
    await keys.put(job)


async def _poll(pipe: Pipe, keys: asyncio.Queue) -> None:
    """Long-poll every submitted job to completion, in submit order."""
    while True:
        job = await keys.get()
        if job is None:
            return
        if not job.key:
            continue
        while True:
            job.done, reply = await pipe.send(
                {"op": "queue.wait", "key": job.key, "timeout_s": 30.0}
            )
            state = reply.get("result") or {}
            if state.get("state") in ("done", "failed") or not reply.get("ok"):
                break
        job.ok = state.get("state") == "done"
        job.attempts = int(state.get("attempts") or 0)


async def _drive(stack: Stack, seed: int, seconds: float) -> Dict:
    host, port = stack.queue.host, stack.queue.port
    submit = Pipe(await Conn.open(host, port))
    poll = Pipe(await Conn.open(host, port))
    keys: asyncio.Queue = asyncio.Queue()
    poller = asyncio.ensure_future(_poll(poll, keys))
    todo = job_netlists(seed)
    phases = {}
    marks = {}

    async def mark() -> tuple:
        _, reply = await submit.send({"op": "stats"})
        return (
            reply["result"],
            [proc.cpu_s() for proc in stack.procs],
            common.proc_write_bytes(stack.objects.pid),
        )

    async def one_at_a_time(name: str, duration: float) -> None:
        jobs = []
        end = time.perf_counter() + duration
        while time.perf_counter() < end:
            job = Job(next(todo), due=time.perf_counter())
            jobs.append(job)
            await _submit(submit, job, keys)
            await _until_done([job])
        phases[name] = jobs

    try:
        await one_at_a_time("warm", max(0.5, WARMUP * seconds))
        marks["before"] = await mark()
        await one_at_a_time("single", SINGLE * seconds)
        burst = []
        for _ in range(max(4, int(BURST_PER_SECOND * BURST * seconds))):
            job = Job(next(todo), due=time.perf_counter())
            burst.append(job)
            await _submit(submit, job, keys)
        await _until_done(burst)
        phases["burst"] = burst
        marks["after"] = await mark()
        await keys.put(None)
        await poller
    finally:
        for pipe in (submit, poll):
            await pipe.conn.close()
    return {"phases": phases, "marks": marks}


async def _until_done(jobs: List[Job], timeout_s: float = 120.0) -> None:
    deadline = time.perf_counter() + timeout_s
    while any(job.key and not job.done for job in jobs):
        if time.perf_counter() > deadline:
            return
        await asyncio.sleep(0.002)


def run(seed: int, seconds: float, trace: bool) -> Dict:
    with Procs() as procs:
        setups = []
        for attempt in range(SETUP_STARTS):
            stack = start_stack(procs, str(attempt))
            setups.append(stack.setup_s)
            if attempt < SETUP_STARTS - 1:
                stop_stack(procs, stack)
        gate = common.Gate.open()
        with common.quiet_gc():
            measured = asyncio.run(_drive(stack, seed, seconds))
        objects_spec = f"obj://{stack.objects.host}:{stack.objects.port}"
        checks = _check(objects_spec, [
            job for jobs in measured["phases"].values() for job in jobs
        ])
        stop_stack(procs, stack)
    phases = measured["phases"]
    single, burst = phases["single"], phases["burst"]
    latency_ms = [(job.done - job.due) * 1e3 for job in single if job.ok]
    lateness = [(job.sent - job.due) * 1e3 for job in single]
    every = [job for jobs in phases.values() for job in jobs]
    burst_s = max(job.done for job in burst) - min(job.sent for job in burst)
    result = {
        "workload": "queue",
        "attempted": len(every) + checks["answers"],
        "failed": sum(1 for job in every if not job.ok) + checks["wrong"],
        "end_to_end": {
            "setup_s": median(setups),
            "p50_ms": quantile(latency_ms, 0.50),
            "tail_ms": quantile(latency_ms, TAIL_QUANTILE),
            "ops_per_s": len(burst) / burst_s,
        },
        "samples": {"single_jobs": len(single), "burst_jobs": len(burst),
                    "tail": f"p{TAIL_QUANTILE * 100:.0f}",
                    "setup_starts": setups},
        "checks": checks,
        "gate": gate.close(quantile(lateness, 0.99)),
        "per_layer": _layers(measured, single + burst) if trace else {},
    }
    return result


def _check(objects_spec: str, jobs: List[Job]) -> Dict:
    """Every published model against gate-level simulation (exact Eq. 4)."""
    from repro.models.serialize import model_from_dict
    from repro.serve.storage import open_backend
    from repro.sim.power_sim import pair_switching_capacitances

    backend = open_backend(objects_spec)
    rng = np.random.default_rng(len(jobs))
    answers = wrong = 0
    try:
        for job in jobs:
            if not job.ok:
                continue
            try:
                entry = json.loads(backend.get(f"objects/{job.key}.json"))
                model = model_from_dict(entry["model"])
            except (OSError, ValueError, KeyError):
                wrong += CHECK_TRANSITIONS
                answers += CHECK_TRANSITIONS
                continue
            initial = rng.random((CHECK_TRANSITIONS, JOB_INPUTS)) < 0.5
            final = rng.random((CHECK_TRANSITIONS, JOB_INPUTS)) < 0.5
            values = model.pair_capacitances(initial, final)
            golden = pair_switching_capacitances(job.netlist, initial, final)
            answers += CHECK_TRANSITIONS
            wrong += int(np.count_nonzero(~np.isclose(values, golden, rtol=1e-9, atol=1e-9)))
    finally:
        close = getattr(backend, "close", None)
        if close is not None:
            close()
    return {"answers": answers, "wrong": wrong}


def _layers(measured: Dict, jobs: List[Job]) -> Dict[str, float]:
    before, cpu0, written0 = measured["marks"]["before"]
    after, cpu1, written1 = measured["marks"]["after"]
    count = max(1, len(jobs))
    cpu = [(b - a) * 1e3 / count for a, b in zip(cpu0, cpu1)]
    submit_ms = [(job.acked - job.sent) * 1e3 for job in jobs]
    return {
        "queue.submit_ms.p50": quantile(submit_ms, 0.50),
        "queue.submit_ms.p99": quantile(submit_ms, 0.99),
        "wal.records_per_job": (after["wal"]["lsn"] - before["wal"]["lsn"]) / count,
        "queue.attempts_per_job": sum(job.attempts for job in jobs) / count,
        "objectstore.bytes_per_job": (written1 - written0) / count,
        "objectstore.cpu_ms_per_job": cpu[0],
        "queue.cpu_ms_per_job": cpu[1],
        "workers.cpu_ms_per_job": sum(cpu[2:]),
    }
