"""Shared plumbing of the end-to-end benchmark.

Everything here is benchmark-side: spawning the program's CLI processes
and waiting for their ready lines, a tiny asyncio JSON-lines client,
per-process CPU time from ``/proc``, the run header and the validity
gates (CPU steal, a fixed CPU probe, generator lateness).  Nothing in
this file knows about a particular workload.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
#: Scratch space for stores, journals, result files and temp files.
WORK = os.path.join(HERE, ".work")

#: Validity gates: a workload whose run crossed any of these is marked
#: ``valid: false`` and ``compare.py`` drops the pair it belongs to.
MAX_STEAL = 0.15
MAX_PROBE_DRIFT = 0.15
MAX_LATENESS_P99_MS = 5.0

CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, failed start)."""


def require_program(src: Optional[str] = None) -> None:
    """Put the program's ``src/`` on the import path and insist it is there.

    By default the benchmark measures the checkout it sits in; ``src``
    points it at another tree (``compare.py`` runs one copy of the
    benchmark against two commits).  An importable ``repro`` from
    anywhere else would measure the wrong code.
    """
    global SRC
    if src is not None:
        SRC = os.path.abspath(src)
    if not os.path.isfile(os.path.join(SRC, "repro", "cli.py")):
        raise BenchError(f"no program under {SRC}: src/repro/cli.py is missing")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    where = os.path.dirname(os.path.abspath(repro.__file__))
    if not where.startswith(SRC + os.sep):
        raise BenchError(f"imported repro from {where}, not from {SRC}")


def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["TMPDIR"] = os.path.join(WORK, "tmp")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def prepare_work_dir() -> None:
    """Create the scratch tree and keep temp files inside the checkout."""
    os.makedirs(os.path.join(WORK, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(WORK, "tmp")
    import tempfile

    tempfile.tempdir = None  # re-read TMPDIR


def fresh_dir(name: str) -> str:
    """An empty directory under the scratch tree."""
    path = os.path.join(WORK, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of unsorted ``values`` (nan if empty)."""
    if not values:
        return math.nan
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(math.floor(pos))
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else math.nan


#: Smallest chunk a windowed percentile is taken over: its p99 then has
#: at least ten samples beyond it.
MIN_CHUNK = 1000


def windowed_quantile(values: Sequence[float], q: float, chunks: int) -> float:
    """Median over up to ``chunks`` consecutive chunks of ``q``-quantiles.

    ``values`` are in time order.  A burst of interference on a shared
    host then moves one chunk's quantile, not the run's; chunks never
    shrink below :data:`MIN_CHUNK` samples.
    """
    chunks = max(1, min(chunks, len(values) // MIN_CHUNK))
    size = len(values) / chunks
    return median([
        quantile(values[int(k * size) : int((k + 1) * size)], q)
        for k in range(chunks)
    ])


def windowed_rate(stamps: Sequence[float], start: float, end: float,
                  window_s: float, q: float = 0.5) -> float:
    """``q``-quantile of events per second over equal windows of
    ``[start, end)``."""
    windows = max(1, int((end - start) / window_s))
    width = (end - start) / windows
    counts = [0] * windows
    for stamp in stamps:
        if start <= stamp < end:
            counts[min(windows - 1, int((stamp - start) / width))] += 1
    return quantile([count / width for count in counts], q)


# ---------------------------------------------------------------------------
# Host header and validity gates
# ---------------------------------------------------------------------------
def src_digest() -> str:
    """sha256 over every file of ``src/`` — names the code under test
    even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".pyc", ".pyo")):
                continue
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def git_sha() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(SRC),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def host_header() -> Dict:
    """Machine and toolchain facts every result carries."""
    import numpy

    try:
        import cffi

        cffi_version = cffi.__version__
    except ImportError:
        cffi_version = None
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "cc": shutil.which("cc") or shutil.which("gcc") or shutil.which("clang"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cffi": cffi_version,
        "machine": platform.machine(),
        "kernel": platform.release(),
    }


def cpu_ticks() -> Optional[List[int]]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (None off Linux)."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    return [int(value) for value in fields[1:]]


def steal_share(before: Optional[List[int]], after: Optional[List[int]]) -> float:
    """Share of CPU time the hypervisor stole between two readings."""
    if not before or not after or len(before) < 8:
        return 0.0
    delta = [a - b for a, b in zip(after, before)]
    total = sum(delta[:8])  # user..steal; guest time is inside user
    return delta[7] / total if total > 0 else 0.0


def cpu_probe() -> float:
    """Seconds for a fixed pure-Python loop.

    Best of ten short repetitions: on a shared host single repetitions
    vary by tens of percent from one moment to the next, the minimum
    by a few percent.
    """
    best = math.inf
    for _ in range(10):
        start = time.perf_counter()
        total = 0
        for value in range(100_000):
            total += value * value % 7
        best = min(best, time.perf_counter() - start)
    return best


@dataclass
class Gate:
    """Steal and probe readings bracketing one workload."""

    ticks: Optional[List[int]] = None
    probe_before: float = 0.0

    @classmethod
    def open(cls) -> "Gate":
        return cls(ticks=cpu_ticks(), probe_before=cpu_probe())

    def close(self, lateness_p99_ms: float) -> Dict:
        steal = steal_share(self.ticks, cpu_ticks())
        probe_after = cpu_probe()
        drift = abs(probe_after - self.probe_before) / self.probe_before
        reasons = []
        if steal > MAX_STEAL:
            reasons.append(f"steal {steal:.0%} > {MAX_STEAL:.0%}")
        if drift > MAX_PROBE_DRIFT:
            reasons.append(f"probe drift {drift:.0%} > {MAX_PROBE_DRIFT:.0%}")
        if lateness_p99_ms > MAX_LATENESS_P99_MS:
            reasons.append(
                f"lateness p99 {lateness_p99_ms:.2f} ms > {MAX_LATENESS_P99_MS} ms"
            )
        return {
            "valid": not reasons,
            "invalid_reasons": reasons,
            "steal_share": steal,
            "probe_before_s": self.probe_before,
            "probe_after_s": probe_after,
            "probe_drift": drift,
            "lateness_p99_ms": lateness_p99_ms,
        }


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------
def proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of one live process."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            data = handle.read()
    except OSError:
        return 0.0
    fields = data[data.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def proc_write_bytes(pid: int) -> int:
    """Bytes one live process has sent to the storage layer."""
    try:
        with open(f"/proc/{pid}/io") as handle:
            for line in handle:
                if line.startswith("write_bytes:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


@dataclass
class Proc:
    """One started program process and the address its ready line named."""

    name: str
    popen: subprocess.Popen
    started: float
    ready_at: float = 0.0
    host: str = ""
    port: int = 0
    lines: List[str] = field(default_factory=list)

    @property
    def pid(self) -> int:
        return self.popen.pid

    def cpu_s(self) -> float:
        return proc_cpu_s(self.popen.pid)


class Procs:
    """Every process the benchmark starts; ``close`` stops and reaps all."""

    def __init__(self) -> None:
        self.procs: List[Proc] = []

    def spawn(
        self,
        name: str,
        argv: Sequence[str],
        ready: str,
        timeout_s: float = 60.0,
    ) -> Proc:
        """Start ``argv`` and block until stdout prints a line matching
        ``ready``; a ``host:port`` in that line is parsed when present."""
        proc = self.start(name, argv)
        self.wait_ready(proc, ready, timeout_s)
        return proc

    def start(self, name: str, argv: Sequence[str]) -> Proc:
        """Start without waiting (pair with :meth:`wait_ready`)."""
        started = time.perf_counter()
        popen = subprocess.Popen(
            list(argv),
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        proc = Proc(name=name, popen=popen, started=started)
        self.procs.append(proc)
        return proc

    @staticmethod
    def wait_ready(proc: Proc, ready: str, timeout_s: float = 60.0) -> None:
        pattern = re.compile(ready)
        deadline = time.monotonic() + timeout_s
        assert proc.popen.stdout is not None
        while time.monotonic() < deadline:
            line = proc.popen.stdout.readline()
            if not line:
                raise BenchError(
                    f"{proc.name} exited ({proc.popen.wait()}) before ready:\n"
                    + "".join(proc.lines[-20:])
                )
            proc.lines.append(line)
            if pattern.search(line):
                proc.ready_at = time.perf_counter()
                address = re.search(r"(\d+\.\d+\.\d+\.\d+):(\d+)", line)
                if address:
                    proc.host, proc.port = address.group(1), int(address.group(2))
                return
        raise BenchError(f"{proc.name} printed no ready line in {timeout_s:.0f}s")

    def stop(self, proc: Proc, timeout_s: float = 10.0) -> int:
        """SIGINT, then SIGKILL after ``timeout_s``; reaps the process."""
        popen = proc.popen
        if popen.poll() is None:
            popen.send_signal(signal.SIGINT)
            try:
                popen.wait(timeout_s)
            except subprocess.TimeoutExpired:
                popen.kill()
                popen.wait()
        if popen.stdout is not None:
            popen.stdout.close()
        if proc in self.procs:
            self.procs.remove(proc)
        return popen.returncode

    def wait_exit(self, proc: Proc, timeout_s: float = 15.0) -> int:
        """Wait for a process told to shut down; kill it if it lingers."""
        try:
            proc.popen.wait(timeout_s)
        except subprocess.TimeoutExpired:
            pass
        return self.stop(proc)

    def close(self) -> None:
        for proc in list(self.procs):
            self.stop(proc, timeout_s=5.0)

    def __enter__(self) -> "Procs":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def cli(*args: str) -> List[str]:
    """argv running the program's CLI from this checkout."""
    return [sys.executable, "-m", "repro.cli", *args]


# ---------------------------------------------------------------------------
# Asyncio JSON-lines client
# ---------------------------------------------------------------------------
class Conn:
    """One pipelined JSON-lines connection.

    Requests carry integer ids and the owner's reader task matches
    replies to them (``pending``: id -> whatever the owner recorded at
    send time), so many requests may be in flight.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self.pending: Dict[int, object] = {}
        self.task: Optional[asyncio.Task] = None

    @classmethod
    async def open(cls, host: str, port: int) -> "Conn":
        reader, writer = await asyncio.open_connection(
            host, port, limit=64 * 1024 * 1024
        )
        return cls(reader, writer)

    async def call(self, payload: Dict) -> Dict:
        """One request/reply round trip (not pipelined)."""
        self.writer.write((json.dumps(payload) + "\n").encode())
        line = await self.reader.readline()
        if not line:
            raise BenchError("connection closed mid-call")
        reply = json.loads(line)
        if not reply.get("ok"):
            raise BenchError(f"{payload.get('op')} failed: {reply.get('error')}")
        return reply["result"]

    async def close(self) -> None:
        if self.task is not None:
            self.task.cancel()
            try:
                await self.task
            except (asyncio.CancelledError, ConnectionError):
                pass
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass


@contextlib.contextmanager
def quiet_gc():
    """Keep the generator's own garbage collector out of the timings.

    The generator holds large request pools; a full collection in the
    middle of a phase would stall it and be charged to the program.
    Existing objects are frozen, collection is off until the block ends.
    """
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


def call_once(host: str, port: int, payload: Dict) -> Dict:
    """A single blocking request on a fresh connection."""

    async def _go() -> Dict:
        conn = await Conn.open(host, port)
        try:
            return await conn.call(payload)
        finally:
            await conn.close()

    return asyncio.run(_go())


# ---------------------------------------------------------------------------
# Metrics snapshots (the program's own ``stats`` op)
# ---------------------------------------------------------------------------
def snap_diff(before: Dict, after: Dict) -> Dict:
    """What happened between two ``stats`` metric snapshots."""
    from repro.obs.metrics import MetricsRegistry

    return MetricsRegistry.diff(before, after)


def counter(delta: Dict, name: str) -> float:
    state = delta.get(name)
    return float(state["value"]) if state else 0.0


def hist_quantile_ms(delta: Dict, name: str, q: float) -> float:
    from repro.obs.metrics import histogram_quantile

    state = delta.get(name)
    if not state or not state.get("count"):
        return 0.0
    value = histogram_quantile(state, q)
    return 0.0 if value is None else value * 1e3


def hist_mean(delta: Dict, name: str) -> float:
    state = delta.get(name)
    if not state or not state.get("count"):
        return 0.0
    return state["sum"] / state["count"]
