"""Micro-batching asyncio server for power queries.

:class:`PowerQueryServer` holds a set of named, pre-compiled
:class:`~repro.models.addmodel.AddPowerModel`\\ s and answers the JSON-lines
protocol of :mod:`repro.serve.protocol` over TCP.  Its defining feature is
the request path: concurrent ``evaluate`` requests for the *same* model are
not evaluated one by one — they are parked in a per-model
:class:`_Batcher` and flushed as **one** kernel call once either
``max_batch`` rows have accumulated or the batch window has passed.  By
default (``max_wait_ms = None``) the window follows the model's kernel.
A model served by a compiled codegen kernel flushes on the next
event-loop iteration: every request read in the same burst of socket
reads shares the call, and a lone request waits for nothing.  A model
on an uncompiled kernel (levelized numpy, ~90 µs a call: a host without
a C compiler, or a kernel still compiling) holds the batch open for
:data:`UNCOMPILED_WAIT_MS`, so fewer, larger calls share that cost.  A
number for ``max_wait_ms`` fixes the window for every model.

Kernels: under ``kernel="auto"`` each model's compiled C kernel is loaded
from the per-user kernel cache (:func:`repro.dd.backends.kernel_cache_dir`)
before the server reports ready.  A model whose kernel is not cached is
served on the levelized numpy kernel while a worker thread compiles it;
the compiled kernel is swapped in with one reference assignment, so the
event loop never waits for ``cc`` (model reloads take the same path).
``stop()`` drops queued compiles and waits for an in-flight one, which
then publishes its cache entry; a cancelled :meth:`serve_forever`
(ctrl-C) runs ``stop()`` too.  The end-to-end benchmark
(``benchmarks/e2e``, workloads ``point`` and ``bulk``) measures the
serving path layer by layer.

Operational behaviour:

- **per-request timeouts** — every request carries a deadline; a flush
  answers expired requests with a structured ``timeout`` error instead of
  evaluating them;
- **structured errors** — malformed lines, unknown models, bad bit
  strings and internal failures all map to typed error responses, and a
  protocol error never tears down the connection;
- **graceful shutdown** — ``stop()`` (or the ``shutdown`` op) stops
  accepting connections, flushes every parked request, answers it, and
  closes the streams.

The server is single-loop asyncio: evaluation happens inline on the event
loop (the compiled kernels release the GIL, and a batch costs tens of
microseconds), which keeps the request path free of cross-thread
handoff.  For tests, the CLI and benchmarks, :func:`start_in_thread` runs
a server on a private loop in a daemon thread and returns a handle.
"""

from __future__ import annotations

import asyncio
import os
import random
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import wait as wait_futures
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.dd.backends import codegen_loaded
from repro.models.addmodel import AddPowerModel
from repro.obs.metrics import LATENCY_BUCKETS, get_metrics
from repro.obs.trace import (
    TraceContext,
    get_tracer,
    use_trace_context,
)
from repro.serve import protocol
from repro.serve.protocol import Deadline, ProtocolError
from repro.testing import faults

_MET = get_metrics()
_CONNECTIONS = _MET.counter("serve.connections")
_REQUESTS = _MET.counter("serve.requests")
_ERRORS = _MET.counter("serve.errors")
_TIMEOUTS = _MET.counter("serve.timeouts")
_SHED_CONNECTIONS = _MET.counter("serve.shed.connections")
_SHED_REQUESTS = _MET.counter("serve.shed.requests")
_SHED_ROWS = _MET.counter("serve.shed.rows")
_EVAL_REQUESTS = _MET.counter("serve.eval.requests")
_EVAL_ROWS = _MET.counter("serve.eval.rows")
_EVAL_BATCHES = _MET.counter("serve.eval.batches")
_FUSED_BATCHES = _MET.counter("serve.eval.fused_batches")
_FUSED_SEGMENTS = _MET.counter("serve.eval.fused_segments")
_RELOADS = _MET.counter("serve.reloads")
_BATCH_ROWS = _MET.histogram(
    "serve.eval.batch_rows", (1, 2, 4, 8, 16, 32, 64, 128, 256, 1024)
)
_REQUEST_SECONDS = _MET.histogram(
    "serve.request.seconds",
    (1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0),
)
# Per-request latency anatomy: where did an evaluate's wall time go?
# queue_wait = dispatch -> parked in a batcher, batch_wait = parked ->
# flush start, kernel = the batch's kernel call, serialize = slicing +
# encoding + writing this request's reply.  Log-bucketed so quantile
# estimates carry a constant relative error across four decades.
_QUEUE_WAIT = _MET.histogram("serve.latency.queue_wait_seconds", LATENCY_BUCKETS)
_BATCH_WAIT = _MET.histogram("serve.latency.batch_wait_seconds", LATENCY_BUCKETS)
_KERNEL_SECONDS = _MET.histogram("serve.latency.kernel_seconds", LATENCY_BUCKETS)
_SERIALIZE_SECONDS = _MET.histogram(
    "serve.latency.serialize_seconds", LATENCY_BUCKETS
)
_SLOWLOG_ENTRIES = _MET.counter("serve.slowlog.entries")

#: Batch window (ms) of a model without a compiled codegen kernel, under
#: the default ``max_wait_ms=None``.
UNCOMPILED_WAIT_MS = 2.0


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of one :class:`PowerQueryServer`."""

    host: str = "127.0.0.1"
    #: 0 = pick an ephemeral port (read it back from ``server.port``).
    port: int = 0
    #: Flush a model's queue as soon as this many rows are parked.
    max_batch: int = 256
    #: ... or when the oldest parked request has waited this long.  None
    #: picks per model and per flush: 0 (the next event-loop iteration)
    #: while the model has a compiled codegen kernel, else
    #: :data:`UNCOMPILED_WAIT_MS`.
    max_wait_ms: Optional[float] = None
    #: Requests not answered within this budget get a ``timeout`` error.
    request_timeout_s: float = 30.0
    #: False = evaluate each request inline as it arrives (the unbatched
    #: baseline the serving benchmark compares against).
    batching: bool = True
    #: Admission control: refuse connections beyond this many concurrent
    #: clients with an ``unavailable`` reply (None = unlimited).
    max_connections: Optional[int] = None
    #: Admission control: shed evaluate requests once this many rows are
    #: parked across all batchers (None = unlimited).
    max_parked_rows: Optional[int] = None
    #: Evaluation backend the served models are pinned and pre-warmed to
    #: ("auto" lets the compiled layer pick; see :mod:`repro.dd.backends`).
    #: Under "auto" cached codegen kernels load at start-up and misses
    #: compile in a background thread.
    kernel: str = "auto"
    #: Fuse every codegen-eligible model into one shared library and
    #: drain *all* batchers in one foreign call per flush.  Falls back to
    #: per-model evaluation at startup if fusion is impossible.
    fused: bool = False
    #: Chaos hook: when set (cluster shard workers pass their shard
    #: index), every dispatched request consults the ``serve.shard.down``
    #: fault site with this token and hard-exits the process when it
    #: fires — simulating a shard dying mid-load.  None (the default)
    #: never consults the site, so standalone servers are immune.
    shard_fault_token: Optional[int] = None
    #: Requests slower than this end-to-end land in the slow-query log.
    slowlog_threshold_ms: float = 100.0
    #: Sampling probability for over-threshold requests (1.0 = keep all;
    #: lower it when a systemic slowdown would otherwise churn the ring
    #: buffer faster than anyone can read it).
    slowlog_rate: float = 1.0
    #: Ring-buffer capacity of the slow-query log.
    slowlog_capacity: int = 128
    #: When set, the server writes its Chrome-trace export (if tracing
    #: is enabled in this process) into this directory at shutdown as
    #: ``trace-<pid>-<port>.json`` — one file per process, assembled by
    #: ``repro trace-merge``.
    trace_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kernel != "auto":
            from repro.dd import backends as _backends

            _backends.get_backend(self.kernel)  # unknown name fails fast
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_ms is not None and self.max_wait_ms < 0:
            raise ValueError(
                f"max_wait_ms must be >= 0, got {self.max_wait_ms}"
            )
        if self.request_timeout_s <= 0:
            raise ValueError(
                f"request_timeout_s must be > 0, got {self.request_timeout_s}"
            )
        if self.max_connections is not None and self.max_connections < 1:
            raise ValueError(
                f"max_connections must be >= 1 or None, "
                f"got {self.max_connections}"
            )
        if self.max_parked_rows is not None and self.max_parked_rows < 1:
            raise ValueError(
                f"max_parked_rows must be >= 1 or None, "
                f"got {self.max_parked_rows}"
            )
        if self.slowlog_threshold_ms < 0:
            raise ValueError(
                f"slowlog_threshold_ms must be >= 0, "
                f"got {self.slowlog_threshold_ms}"
            )
        if not 0.0 <= self.slowlog_rate <= 1.0:
            raise ValueError(
                f"slowlog_rate must be in [0, 1], got {self.slowlog_rate}"
            )
        if self.slowlog_capacity < 1:
            raise ValueError(
                f"slowlog_capacity must be >= 1, got {self.slowlog_capacity}"
            )


@dataclass
class _Pending:
    """One parked evaluate request."""

    request_id: object
    writer: asyncio.StreamWriter
    initial: np.ndarray  # (P, n) bool
    final: np.ndarray  # (P, n) bool
    single: bool  # answer with a scalar instead of a list
    arrived: float
    deadline: float
    #: When the request was parked (== arrived for unbatched requests);
    #: parked - arrived is its queue wait, flush - parked its batch wait.
    parked: float = 0.0
    #: Distributed-trace identity of the request's wire hop, if any.
    #: On the non-recording hot path this is the *raw* traceparent
    #: header (str) — decoded lazily by the slow-query log.
    trace_ctx: "Union[TraceContext, str, None]" = None


class SlowQueryLog:
    """Sampled ring buffer of over-threshold requests' latency anatomy.

    A request whose end-to-end time exceeds the threshold is (with
    probability ``rate``) recorded as a structured entry — model, rows,
    the queue/batch/kernel/serialize decomposition, and the trace ids
    when the request was traced — into a bounded deque, so a burst of
    slow queries costs O(capacity) memory and the newest evidence wins.
    """

    def __init__(self, config: "ServerConfig"):
        self.threshold_s = config.slowlog_threshold_ms / 1e3
        self.rate = config.slowlog_rate
        self.capacity = config.slowlog_capacity
        self._entries: deque = deque(maxlen=config.slowlog_capacity)
        # Deterministic sampling stream, decoupled from user-visible rngs.
        self._rng = random.Random(0x510)
        self.sampled_out = 0

    def consider(
        self,
        item: "_Pending",
        model: AddPowerModel,
        rows: int,
        total_s: float,
        queue_s: float,
        batch_s: float,
        kernel_s: float,
        serialize_s: float,
    ) -> None:
        if total_s < self.threshold_s:
            return
        if self.rate < 1.0 and self._rng.random() >= self.rate:
            self.sampled_out += 1
            return
        entry = {
            "ts": time.time(),
            "request_id": item.request_id,
            "model": model.macro_name,
            "rows": rows,
            "total_ms": round(total_s * 1e3, 3),
            "queue_wait_ms": round(queue_s * 1e3, 3),
            "batch_wait_ms": round(batch_s * 1e3, 3),
            "kernel_ms": round(kernel_s * 1e3, 3),
            "serialize_ms": round(serialize_s * 1e3, 3),
        }
        ctx = item.trace_ctx
        if isinstance(ctx, str):  # deferred parse off the hot path
            ctx = TraceContext.from_traceparent(ctx)
        if isinstance(ctx, TraceContext):
            entry["trace_id"] = ctx.trace_id
            entry["span_id"] = ctx.span_id
        self._entries.append(entry)
        _SLOWLOG_ENTRIES.inc()

    def report(self) -> Dict:
        """The ``slowlog`` op's payload: knobs + entries, oldest first."""
        return {
            "threshold_ms": self.threshold_s * 1e3,
            "rate": self.rate,
            "capacity": self.capacity,
            "sampled_out": self.sampled_out,
            "entries": list(self._entries),
        }


class _Batcher:
    """Accumulates evaluate requests for one model between flushes."""

    __slots__ = ("model", "pending", "rows", "timer")

    def __init__(self, model: AddPowerModel):
        self.model = model
        self.pending: List[_Pending] = []
        self.rows = 0
        self.timer: Optional[asyncio.TimerHandle] = None


class PowerQueryServer:
    """Serve ``evaluate`` queries against a set of named power models."""

    def __init__(
        self,
        models: Dict[str, AddPowerModel],
        config: ServerConfig = ServerConfig(),
    ):
        if not models:
            raise ValueError("a PowerQueryServer needs at least one model")
        self.models = dict(models)
        self.config = config
        self.port: Optional[int] = None
        self.started_at: Optional[float] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._batchers: Dict[str, _Batcher] = {}
        #: Rows parked across every batcher (admission-control budget).
        self._parked_rows = 0
        self._writers: set = set()
        #: Writers with a flush-path drain task in flight (at most one each).
        self._draining: set = set()
        self._stop_event: Optional[asyncio.Event] = None
        self._stopping = False
        self.slowlog = SlowQueryLog(config)
        #: Single worker thread compiling codegen kernels (created on
        #: first use), and the compiles it was handed.
        self._compiler: Optional[ThreadPoolExecutor] = None
        self._compiles: list = []
        self._uncompiled = self._warm_models()
        #: Cross-model fused kernel (None = fusion off or unavailable).
        self._fused = self._build_fused() if config.fused else None

    def _warm_models(self) -> list:
        """Pin and warm every model; return the diagrams left to compile.

        Warming pre-pays the O(model size) flattening and a backend's
        one-time setup so the first query runs at full speed.  Under
        ``kernel="auto"`` it loads cached codegen kernels; the diagrams
        whose kernel missed the cache are returned for
        :meth:`_compile_in_background`.
        """
        from repro.dd.backends import get_backend

        codegen = get_backend("codegen")
        uncompiled = []
        for model in self.models.values():
            model.eval_kernel = self.config.kernel
            try:
                warmed = model.warm_eval_backend()
            except Exception:  # noqa: BLE001 - warm is an optimisation
                continue  # the query path degrades per batch instead
            compiled = model.compiled()
            if (
                self.config.kernel == "auto"
                and warmed != "codegen"
                and codegen.supports(compiled)
            ):
                uncompiled.append(compiled)
        return uncompiled

    def _compile_in_background(self, diagrams: list) -> None:
        """Compile codegen kernels off the event loop, one at a time.

        Each compile installs its kernel into the diagram's backend state
        in one assignment, after which ``auto`` selects it; until then
        (and for good, if the compile fails) the model is served on the
        levelized kernel.
        """
        if not diagrams or self._stopping:
            return
        from repro.dd.backends import get_backend

        if self._compiler is None:
            self._compiler = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-codegen"
            )
        warm = get_backend("codegen").warm
        self._compiles = [
            future for future in self._compiles if not future.done()
        ] + [
            self._compiler.submit(warm, compiled, persist=True)
            for compiled in diagrams
        ]

    def wait_for_kernels(self, timeout: Optional[float] = None) -> bool:
        """Block until every background compile so far has finished.

        True when none is still running.  Safe to call from any thread
        other than the server's event loop (tests, benchmarks).
        """
        _, running = wait_futures(list(self._compiles), timeout=timeout)
        return not running

    def _build_fused(self):
        """Fuse every codegen-eligible model; None if fusion is impossible.

        Ineligible models simply stay outside the fusion (their flushes
        keep using the per-model path), so one oversized model does not
        cost the others the fused fast path.  A failed compilation
        disables fusion entirely — the server still works, per model.
        """
        from repro.dd.backends import FusedKernel, get_backend

        codegen = get_backend("codegen")
        eligible = {
            name: model.compiled()
            for name, model in self.models.items()
            if codegen.supports(model.compiled())
        }
        if not eligible:
            return None
        try:
            return FusedKernel(eligible)
        except Exception as exc:  # noqa: BLE001 - fusion is an optimisation
            tracer = get_tracer()
            if tracer.enabled:
                tracer.event(
                    "serve.fused.disabled",
                    error=f"{type(exc).__name__}: {exc}",
                )
            return None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections."""
        self._stop_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._on_connection,
            host=self.config.host,
            port=self.config.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.started_at = time.time()
        self._compile_in_background(self._uncompiled)
        self._uncompiled = []

    async def serve_forever(self) -> None:
        """Run until :meth:`request_stop` (or the ``shutdown`` op) fires."""
        if self._server is None:
            await self.start()
        assert self._stop_event is not None
        try:
            await self._stop_event.wait()
        finally:
            # Also on cancellation (ctrl-C under asyncio.run): stop()
            # drops queued compiles, so exit never waits for them.
            await self.stop()

    def request_stop(self) -> None:
        """Ask the server loop to shut down (safe from within handlers)."""
        if self._stop_event is not None:
            self._stop_event.set()

    def reload_models(self, models: Dict[str, AddPowerModel]) -> None:
        """Swap the served model set without dropping a single request.

        Must run on the server's event loop (cluster workers schedule it
        via ``call_soon_threadsafe``).  Everything parked is flushed and
        answered against the *old* models first — a batch never mixes
        model generations — then the new set replaces the old atomically
        between requests, is pinned/warmed like at construction time, and
        the fused kernel is rebuilt if fusion is on.  Connections stay
        open throughout; only requests naming a model absent from the new
        set start failing (with ``unknown_model``, as for any bad name).
        Kernels missing from the kernel cache compile in the background,
        exactly as at start-up, so a reload never stalls the loop on cc.
        """
        if not models:
            raise ValueError("reload_models needs at least one model")
        for name in list(self._batchers):
            self._flush(name)
        self._batchers.clear()
        self._parked_rows = 0
        self.models = dict(models)
        self._compile_in_background(self._warm_models())
        self._fused = self._build_fused() if self.config.fused else None
        _RELOADS.inc()

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, flush, answer, drain, close."""
        if self._stopping:
            return
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Answer everything still parked, then *drain* before closing.
        # The flush writes replies from this coroutine with no connection
        # loop left to await them; without an explicit drain the event
        # loop can exit with those replies still sitting in transport
        # buffers, silently dropping in-flight batched requests that
        # raced ``stop()`` against a pending micro-batch flush.
        for name in list(self._batchers):
            self._flush(name)
        writers = list(self._writers)
        if writers:
            try:
                await asyncio.wait_for(
                    asyncio.gather(
                        *(self._drain_writer(writer) for writer in writers),
                        return_exceptions=True,
                    ),
                    timeout=5.0,
                )
            except asyncio.TimeoutError:  # pragma: no cover - stuck client
                pass
        for writer in writers:
            try:
                writer.close()
            except Exception:  # pragma: no cover - already-broken transport
                pass
        self._writers.clear()
        if self._compiler is not None:
            # Queued compiles are dropped; the running one (bounded by
            # the compiler timeout) finishes and publishes its cache
            # entry, so no cc process outlives the server.
            await asyncio.to_thread(
                self._compiler.shutdown, wait=True, cancel_futures=True
            )
        self._write_trace_file()

    def _write_trace_file(self) -> None:
        """Export this process's spans for ``repro trace-merge`` pickup."""
        if not self.config.trace_dir:
            return
        tracer = get_tracer()
        if not tracer.enabled or not hasattr(tracer, "write_chrome"):
            return
        try:
            os.makedirs(self.config.trace_dir, exist_ok=True)
            tracer.write_chrome(
                os.path.join(
                    self.config.trace_dir,
                    f"trace-{os.getpid()}-{self.port}.json",
                )
            )
        except OSError:  # noqa: BLE001 - telemetry must not fail shutdown
            pass

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        limit = self.config.max_connections
        if limit is not None and len(self._writers) >= limit:
            # Admission control: answer with a structured shed instead of
            # letting the connection join the writer set.
            _SHED_CONNECTIONS.inc()
            self._send(
                writer,
                protocol.error_response(
                    None,
                    "unavailable",
                    f"connection limit reached ({limit} clients)",
                ),
            )
            try:
                await writer.drain()
                writer.close()
            except (ConnectionError, RuntimeError):  # pragma: no cover
                pass
            return
        _CONNECTIONS.inc()
        self._writers.add(writer)
        try:
            while not self._stopping:
                try:
                    line = await reader.readline()
                except asyncio.CancelledError:
                    # Loop teardown during shutdown cancels handlers still
                    # parked on readline; exit cleanly so the cancellation
                    # doesn't surface as a stream-callback traceback.
                    break
                except (
                    asyncio.LimitOverrunError,
                    ValueError,
                ):  # oversized line: answer and drop the connection
                    self._send(
                        writer,
                        protocol.error_response(
                            None, "protocol", "request line too long"
                        ),
                    )
                    break
                except ConnectionError:
                    break
                if not line:
                    break  # client closed
                if line.strip() == b"":
                    continue
                if faults.fires("serve.connection.reset"):
                    # Chaos hook: drop the client mid-request the way a
                    # flaky network would — abort, no FIN, no reply.
                    writer.transport.abort()
                    break
                await self._dispatch(line, writer)
                try:
                    await writer.drain()
                except ConnectionError:
                    break
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
            except Exception:  # pragma: no cover
                pass

    def _schedule_drain(self, writers) -> None:
        """Backpressure for responses written outside a read loop.

        Timer-driven flushes and ``stop()`` answer requests from a plain
        callback, bypassing the connection loop's ``await drain()``; a
        stalled client pipelining many evaluate requests could otherwise
        grow its write buffer without bound.  Schedule one drain task
        per distinct writer (skipping writers that already have one).
        """
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:  # pragma: no cover - stop() outside the loop
            return
        for writer in writers:
            if writer.is_closing() or writer in self._draining:
                continue
            self._draining.add(writer)
            loop.create_task(self._drain_writer(writer))

    async def _drain_writer(self, writer: asyncio.StreamWriter) -> None:
        try:
            await writer.drain()
        except (ConnectionError, RuntimeError):  # pragma: no cover
            pass
        finally:
            self._draining.discard(writer)

    def _send(self, writer: asyncio.StreamWriter, response: Dict) -> None:
        if writer.is_closing():
            return
        if not response.get("ok", False):
            _ERRORS.inc()
        try:
            writer.write(protocol.encode(response))
        except ConnectionError:  # pragma: no cover - racing disconnect
            pass

    async def _dispatch(
        self, line: bytes, writer: asyncio.StreamWriter
    ) -> None:
        if self.config.shard_fault_token is not None and faults.fires(
            "serve.shard.down", token=self.config.shard_fault_token
        ):
            # Chaos hook: the shard dies the way a crashed/OOM-killed
            # worker would — no reply, no graceful close, no cleanup.
            os._exit(23)
        _REQUESTS.inc()
        arrived = time.perf_counter()
        request_id = None
        try:
            request = protocol.decode_request(line)
            request_id = request.get("id")
            op = request["op"]
            tracer = get_tracer()
            if not tracer.record:
                # Untraced, or propagation-only: the raw header (when
                # present) travels *unparsed* to the slow-query log via
                # ``_Pending.trace_ctx`` and is only decoded for the
                # rare sampled entry — the always-on hot path neither
                # parses nor allocates.
                self._dispatch_op(
                    op,
                    request,
                    request_id,
                    writer,
                    arrived,
                    request.get("traceparent"),
                )
            else:
                context = TraceContext.from_traceparent(
                    request.get("traceparent")
                )
                if context is None:
                    self._dispatch_op(
                        op, request, request_id, writer, arrived, None
                    )
                else:
                    # Honour the caller's trace: while this context is
                    # active, every span the tracer opens (the request
                    # span here, per-model flush spans later via
                    # _Pending) is stamped with the caller's trace_id,
                    # parented on its wire hop.
                    with use_trace_context(context):
                        with tracer.span("serve.request", op=op):
                            self._dispatch_op(
                                op,
                                request,
                                request_id,
                                writer,
                                arrived,
                                context,
                            )
        except ProtocolError as exc:
            self._send(
                writer,
                protocol.error_response(request_id, exc.error_type, str(exc)),
            )
        except Exception as exc:  # noqa: BLE001 - answer, don't crash the loop
            self._send(
                writer,
                protocol.error_response(
                    request_id, "internal", f"{type(exc).__name__}: {exc}"
                ),
            )

    def _dispatch_op(
        self,
        op: str,
        request: Dict,
        request_id,
        writer: asyncio.StreamWriter,
        arrived: float,
        context: "Union[TraceContext, str, None]" = None,
    ) -> None:
        if op == "evaluate":
            self._handle_evaluate(request, writer, arrived, context)
        elif op == "ping":
            self._send(writer, protocol.ok_response(request_id, "pong"))
        elif op == "models":
            self._send(
                writer,
                protocol.ok_response(
                    request_id,
                    [
                        protocol.model_summary(name, model)
                        for name, model in sorted(self.models.items())
                    ],
                ),
            )
        elif op == "stats":
            self._send(
                writer, protocol.ok_response(request_id, self._stats())
            )
        elif op == "slowlog":
            self._send(
                writer,
                protocol.ok_response(request_id, self.slowlog.report()),
            )
        elif op == "healthz":
            self._send(
                writer, protocol.ok_response(request_id, self._healthz())
            )
        elif op == "shutdown":
            self._send(writer, protocol.ok_response(request_id, "stopping"))
            self.request_stop()
        else:
            raise ProtocolError("bad_request", f"unknown op {op!r}")

    # ------------------------------------------------------------------
    # Evaluate path
    # ------------------------------------------------------------------
    def _handle_evaluate(
        self,
        request: Dict,
        writer: asyncio.StreamWriter,
        arrived: float,
        context: "Union[TraceContext, str, None]" = None,
    ) -> None:
        if self._stopping:
            raise ProtocolError("unavailable", "server is shutting down")
        name = protocol.require_field(request, "model")
        model = self.models.get(name)
        if model is None:
            raise ProtocolError(
                "unknown_model",
                f"no model {name!r} (serving: {sorted(self.models)})",
            )
        initial, final = protocol.parse_transitions(request, model.num_inputs)
        single = "pairs" not in request
        rows = int(initial.shape[0])
        budget = self.config.max_parked_rows
        if (
            budget is not None
            and self.config.batching
            and self.config.max_batch > 1
            and self._parked_rows + rows > budget
        ):
            _SHED_REQUESTS.inc()
            _SHED_ROWS.inc(rows)
            raise ProtocolError(
                "unavailable",
                f"overloaded: {self._parked_rows} rows parked "
                f"(budget {budget}); retry later",
            )
        _EVAL_REQUESTS.inc()
        # An end-to-end deadline on the envelope caps this server's own
        # parking budget: never hold a request past the moment its
        # caller stops listening.  ``_Pending.deadline`` is on the
        # perf_counter clock, so the wire remainder is rebased here.
        timeout_s = self.config.request_timeout_s
        wire_deadline = Deadline.from_request(request)
        if wire_deadline is not None:
            remaining = wire_deadline.remaining_s()
            if remaining <= 0.0:
                raise ProtocolError(
                    "timeout", "end-to-end deadline expired on arrival"
                )
            timeout_s = min(timeout_s, remaining)
        pending = _Pending(
            request_id=request.get("id"),
            writer=writer,
            initial=initial,
            final=final,
            single=single,
            arrived=arrived,
            deadline=arrived + timeout_s,
            parked=time.perf_counter(),
            trace_ctx=context,
        )
        if not self.config.batching or self.config.max_batch <= 1:
            self._evaluate([pending], model)
            return
        batcher = self._batchers.get(name)
        if batcher is None:
            batcher = self._batchers[name] = _Batcher(model)
        batcher.pending.append(pending)
        batcher.rows += rows
        self._parked_rows += rows
        if batcher.rows >= self.config.max_batch:
            self._flush(name)
        elif batcher.timer is None:
            loop = asyncio.get_running_loop()
            batcher.timer = loop.call_later(
                self._batch_window_ms(name, model) / 1000.0, self._flush, name
            )

    def _batch_window_ms(self, name: str, model: AddPowerModel) -> float:
        """How long a model's new batch stays open before it flushes."""
        wait_ms = self.config.max_wait_ms
        if wait_ms is not None:
            return wait_ms
        if (self._fused is not None and name in self._fused) or codegen_loaded(
            model.compiled()
        ):
            return 0.0
        return UNCOMPILED_WAIT_MS

    def _flush(self, name: str) -> None:
        """Answer every request parked for one model in a single kernel call.

        With fusion active, any flush trigger drains *every* batcher: the
        fused library answers all models' parked rows in one foreign
        call, so riding along is cheaper than waiting for their own
        timers.
        """
        if self._fused is not None:
            self._flush_fused()
            return
        pending = self._drain(name)
        if pending:
            self._evaluate(pending, self._batchers[name].model)

    def _drain(self, name: str) -> List[_Pending]:
        """Detach one batcher's parked requests (cancelling its timer)."""
        batcher = self._batchers.get(name)
        if batcher is None or not batcher.pending:
            return []
        if batcher.timer is not None:
            batcher.timer.cancel()
            batcher.timer = None
        self._parked_rows = max(0, self._parked_rows - batcher.rows)
        pending, batcher.pending, batcher.rows = batcher.pending, [], 0
        return pending

    def _flush_fused(self) -> None:
        """Drain all batchers and answer them with one fused kernel call.

        Models outside the fusion (codegen-ineligible) are evaluated on
        the per-model path in the same flush; a fused-call failure also
        degrades every segment to the per-model path, so requests are
        always answered.
        """
        assert self._fused is not None
        drained = [
            (name, pending)
            for name in list(self._batchers)
            for pending in [self._drain(name)]
            if pending
        ]
        if not drained:
            return
        writers = {item.writer for _, pending in drained for item in pending}
        try:
            segments: List[Tuple[str, List[_Pending], np.ndarray]] = []
            leftover: List[Tuple[List[_Pending], AddPowerModel]] = []
            for name, pending in drained:
                model = self.models[name]
                if name not in self._fused:
                    leftover.append((pending, model))
                    continue
                live = self._filter_live(pending)
                if not live:
                    continue
                initial = np.concatenate([item.initial for item in live])
                final = np.concatenate([item.final for item in live])
                segments.append((name, live, model._pack_batch(initial, final)))
            if segments:
                faults.maybe_delay("serve.eval.slow")
                tracer = get_tracer()
                total = sum(packed.shape[0] for _, _, packed in segments)
                all_live = [
                    item for _, live, _ in segments for item in live
                ]
                attrs = self._batch_trace_attrs(tracer, all_live)
                flush_start = time.perf_counter()
                try:
                    with tracer.span(
                        "serve.eval.fused",
                        segments=len(segments),
                        rows=total,
                        **attrs,
                    ):
                        outs = self._fused.evaluate_many(
                            [(name, packed) for name, _, packed in segments]
                        )
                except Exception:  # noqa: BLE001 - degrade, don't drop
                    for name, live, _ in segments:
                        leftover.append((live, self.models[name]))
                else:
                    kernel_s = time.perf_counter() - flush_start
                    _KERNEL_SECONDS.observe(kernel_s)
                    _FUSED_BATCHES.inc()
                    _FUSED_SEGMENTS.inc(len(segments))
                    for (name, live, packed), values in zip(segments, outs):
                        _EVAL_BATCHES.inc()
                        _EVAL_ROWS.inc(int(packed.shape[0]))
                        _BATCH_ROWS.observe(len(live))
                        self._respond(
                            live, values, self.models[name],
                            flush_start, kernel_s,
                        )
            for pending, model in leftover:
                self._evaluate_now(pending, model)
        finally:
            self._schedule_drain(writers)

    def _evaluate(self, pending: List[_Pending], model: AddPowerModel) -> None:
        try:
            self._evaluate_now(pending, model)
        finally:
            # Inline (unbatched) evaluation is drained by the connection
            # loop itself; timer/shutdown flushes have no awaiting loop,
            # so push the backpressure from here.
            self._schedule_drain({item.writer for item in pending})

    def _filter_live(self, pending: List[_Pending]) -> List[_Pending]:
        """Answer expired requests with a timeout error; return the rest."""
        now = time.perf_counter()
        live: List[_Pending] = []
        for item in pending:
            if now > item.deadline:
                _TIMEOUTS.inc()
                self._send(
                    item.writer,
                    protocol.error_response(
                        item.request_id,
                        "timeout",
                        f"request expired after "
                        f"{self.config.request_timeout_s:.3f}s in queue",
                    ),
                )
            else:
                live.append(item)
        return live

    @staticmethod
    def _batch_trace_attrs(tracer, live: List[_Pending]) -> Dict:
        """``trace_ids`` attr for batch-level spans (flush, kernel calls).

        A batch serves several traces at once, so batch spans carry the
        whole id set; :func:`repro.obs.trace.merge_chrome_traces` matches
        either a span's own ``trace_id`` or membership in ``trace_ids``.
        """
        if not tracer.record:
            return {}
        ids = set()
        for item in live:
            ctx = item.trace_ctx
            if isinstance(ctx, str):
                # Queued before recording was switched on: the header
                # is still raw — parse it now.
                ctx = TraceContext.from_traceparent(ctx)
            if isinstance(ctx, TraceContext):
                ids.add(ctx.trace_id)
        return {"trace_ids": sorted(ids)} if ids else {}

    def _evaluate_now(
        self, pending: List[_Pending], model: AddPowerModel
    ) -> None:
        live = self._filter_live(pending)
        if not live:
            return
        # Chaos hook: a slow kernel evaluation (big batch, cold cache).
        faults.maybe_delay("serve.eval.slow")
        initial = np.concatenate([item.initial for item in live])
        final = np.concatenate([item.final for item in live])
        tracer = get_tracer()
        attrs = self._batch_trace_attrs(tracer, live)
        flush_start = time.perf_counter()
        with tracer.span(
            "serve.batch.flush",
            model=model.macro_name,
            requests=len(live),
            **attrs,
        ):
            try:
                with tracer.span(
                    "serve.eval",
                    model=model.macro_name,
                    rows=initial.shape[0],
                    **attrs,
                ):
                    values = model.pair_capacitances(initial, final)
            except Exception as exc:  # noqa: BLE001 - typed error per request
                for item in live:
                    self._send(
                        item.writer,
                        protocol.error_response(
                            item.request_id,
                            "internal",
                            f"evaluation failed: {type(exc).__name__}: {exc}",
                        ),
                    )
                return
            kernel_s = time.perf_counter() - flush_start
            _KERNEL_SECONDS.observe(kernel_s)
            _EVAL_BATCHES.inc()
            _EVAL_ROWS.inc(int(initial.shape[0]))
            _BATCH_ROWS.observe(len(live))
            self._respond(live, values, model, flush_start, kernel_s)

    def _respond(
        self,
        live: List[_Pending],
        values: np.ndarray,
        model: AddPowerModel,
        flush_start: float,
        kernel_s: float,
    ) -> None:
        """Slice one batch result back into per-request replies.

        Also the accounting point of the latency anatomy: each answered
        request's queue/batch/serialize segments are observed here, its
        total recorded, and over-threshold requests offered to the
        slow-query log.
        """
        offset = 0
        for item in live:
            count = item.initial.shape[0]
            chunk = values[offset : offset + count]
            offset += count
            if item.single:
                result = {"capacitance_fF": float(chunk[0])}
            else:
                result = {"capacitances_fF": [float(v) for v in chunk]}
            serialize_start = time.perf_counter()
            self._send(item.writer, protocol.ok_response(item.request_id, result))
            done = time.perf_counter()
            queue_s = max(0.0, item.parked - item.arrived)
            batch_s = max(0.0, flush_start - item.parked)
            serialize_s = done - serialize_start
            total_s = done - item.arrived
            _QUEUE_WAIT.observe(queue_s)
            _BATCH_WAIT.observe(batch_s)
            _SERIALIZE_SECONDS.observe(serialize_s)
            _REQUEST_SECONDS.observe(total_s)
            self.slowlog.consider(
                item, model, count, total_s,
                queue_s, batch_s, kernel_s, serialize_s,
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _stats(self) -> Dict:
        snapshot = _MET.snapshot()
        return {
            "models": sorted(self.models),
            "uptime_seconds": (
                time.time() - self.started_at if self.started_at else 0.0
            ),
            "config": {
                "max_batch": self.config.max_batch,
                "max_wait_ms": self.config.max_wait_ms,
                "batching": self.config.batching,
                "request_timeout_s": self.config.request_timeout_s,
                "max_connections": self.config.max_connections,
                "max_parked_rows": self.config.max_parked_rows,
                "kernel": self.config.kernel,
                "fused": self.config.fused,
                "slowlog_threshold_ms": self.config.slowlog_threshold_ms,
                "slowlog_rate": self.config.slowlog_rate,
            },
            "fused_models": sorted(self._fused.keys) if self._fused else [],
            "metrics": {
                name: state
                for name, state in snapshot.items()
                if name.startswith(
                    ("serve.", "compiled.eval", "eval.", "build.", "faults.")
                )
            },
        }

    def _healthz(self) -> Dict:
        """Liveness/saturation summary for probes and load balancers."""

        snapshot = _MET.snapshot()

        def count(name: str) -> int:
            state = snapshot.get(name)
            return int(state["value"]) if state else 0

        return {
            "status": "stopping" if self._stopping else "ok",
            "uptime_seconds": (
                time.time() - self.started_at if self.started_at else 0.0
            ),
            "models": len(self.models),
            "connections": len(self._writers),
            "parked_rows": self._parked_rows,
            "parked_requests": sum(
                len(batcher.pending) for batcher in self._batchers.values()
            ),
            "limits": {
                "max_connections": self.config.max_connections,
                "max_parked_rows": self.config.max_parked_rows,
            },
            "shed": {
                "connections": count("serve.shed.connections"),
                "requests": count("serve.shed.requests"),
                "rows": count("serve.shed.rows"),
            },
            "degraded_builds": count("build.degraded.count"),
            "timeouts": count("serve.timeouts"),
        }


# ---------------------------------------------------------------------------
# Thread-hosted servers (tests, CLI foreground helpers, benchmarks)
# ---------------------------------------------------------------------------
@dataclass
class ServerHandle:
    """A server running on a private event loop in a daemon thread."""

    server: PowerQueryServer
    thread: threading.Thread
    loop: asyncio.AbstractEventLoop
    host: str = field(init=False)
    port: int = field(init=False)

    def __post_init__(self) -> None:
        self.host = self.server.config.host
        assert self.server.port is not None
        self.port = self.server.port

    def stop(self, timeout: float = 10.0) -> None:
        """Request a graceful shutdown and join the server thread."""
        try:
            self.loop.call_soon_threadsafe(self.server.request_stop)
        except RuntimeError:  # loop already closed
            pass
        self.thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_in_thread(
    models: Dict[str, AddPowerModel],
    config: ServerConfig = ServerConfig(),
    ready_timeout: float = 30.0,
) -> ServerHandle:
    """Run a :class:`PowerQueryServer` in a daemon thread; returns a handle.

    The handle exposes the bound ``host``/``port`` and a blocking
    :meth:`ServerHandle.stop`.  Exceptions during startup propagate to
    the caller.
    """
    server = PowerQueryServer(models, config)
    ready = threading.Event()
    box: Dict[str, object] = {}

    async def _main() -> None:
        try:
            await server.start()
        except Exception as exc:  # noqa: BLE001 - surface to caller
            box["error"] = exc
            ready.set()
            return
        box["loop"] = asyncio.get_running_loop()
        ready.set()
        await server.serve_forever()

    thread = threading.Thread(
        target=lambda: asyncio.run(_main()), name="power-query-server", daemon=True
    )
    thread.start()
    if not ready.wait(ready_timeout):
        raise TimeoutError("power-query server did not start in time")
    if "error" in box:
        thread.join(1.0)
        raise box["error"]  # type: ignore[misc]
    return ServerHandle(server=server, thread=thread, loop=box["loop"])  # type: ignore[arg-type]
