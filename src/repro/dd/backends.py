"""Pluggable evaluation backends for :class:`~repro.dd.compiled.CompiledDD`.

`evaluate_batch` is a dispatch point, not an implementation: every way of
traversing a compiled diagram lives here as an :class:`EvalBackend`
registered by name.  Four backends ship with the library:

``pointer``
    The masked pointer-chasing numpy kernel — works on *every* diagram
    (no levelized plan required) and serves as the semantic reference.
``levelized``
    The two-pass-per-level numpy kernel over the pre-doubled slot table.
    The default workhorse; also the fallback target when fancier
    backends cannot run.
``bitparallel``
    Packs 64 patterns into each uint64 lane and traverses the levelized
    plan with bitwise ops — the same truth-table bitmask trick the
    differential oracle uses, applied to the level cut.  The traversal
    keeps one uint64 mask row per live slot ("which patterns sit in
    this slot"); descending a level is two AND-interleaves plus a
    grouped-OR scatter along a precomputed gather order.  For diagrams
    with at most :data:`TAB_MAX_SUPPORT` support variables the backend
    runs that traversal **once over the entire input cube** (the
    oracle's periodic variable masks enumerate all ``2^L`` assignments,
    64 per word), decodes the final masks into a value table, and then
    serves every batch by packing each row's support bits into a table
    index — a couple of streaming passes per batch regardless of
    diagram depth.  Wider-support diagrams pack the batch's own
    patterns into lanes and traverse per batch.
``codegen``
    Emits the levelized plan as C (level pairs fused into radix-4
    tables to halve the dependent-load chain, block-of-8 row unrolling
    so ~8 independent L1 load chains overlap), compiles it with the
    system C compiler and loads it with ctypes.  Long-lived callers (the
    power-query server, :class:`FusedKernel`) persist compiled libraries
    in a per-user kernel cache (:func:`kernel_cache_dir`) keyed by a
    digest of the plan arrays, the emitter and the compiler, so a later
    process loads them without emitting C or running ``cc``; every other
    compile stays in its process.  The
    same emitter produces **fused** libraries: one shared object holding
    several models' kernels plus an ``eval_fused`` entry point, so the
    serving micro-batcher evaluates many models in one foreign call
    (:class:`FusedKernel`).  When no C compiler is available an optional
    numba path is tried; failing both, evaluation falls back to the
    levelized kernel (gracefully — the ``eval.codegen.compile_fail``
    fault site provokes exactly this path in tests).

Selection
---------
``kernel="auto"`` resolves through :func:`select_backend`: an explicit
``REPRO_EVAL_BACKEND`` environment override wins (unknown names raise
:class:`~repro.errors.BackendError`), then a warm codegen kernel, then
bit-parallel for large batches on thin plans, then levelized, with
pointer as the universal fallback.  "Warm" means loaded: ``auto`` never
compiles on the evaluation path.  :meth:`CodegenBackend.load_cached`
installs a cached kernel without compiling; long-lived callers (the
power-query server) compile the misses off their hot path.  The chosen
backend is logged once per compiled diagram (and again on change)
through ``repro.obs``.

Telemetry
---------
Every dispatched batch bumps ``eval.backend.<name>.batches`` and
``eval.backend.<name>.rows``; auto-selections bump
``eval.backend.selected.<name>``; codegen compilations run under an
``eval.codegen.compile`` tracer span and count in
``eval.codegen.compiles``, kernels loaded from the disk cache count in
``eval.codegen.cache_hits``, and fallbacks count in
``eval.codegen.fallbacks``.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import math
import os
import shutil
import signal
import subprocess
import tempfile
import time
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.errors import BackendError, DDError
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dd.compiled import CompiledDD

try:  # numba is optional and absent in the default environment
    from numba import njit as _njit
except ImportError:
    _njit = None

#: Environment variable overriding ``kernel="auto"`` selection.
ENV_BACKEND = "REPRO_EVAL_BACKEND"

#: Refuse to emit C for plans with more slot-table entries than this —
#: the generated source would be megabytes and compile time would dwarf
#: any evaluation win.
CODEGEN_SLOT_LIMIT = 200_000

#: Auto policy: bit-parallel needs enough rows to fill uint64 lanes.
BITPARALLEL_MIN_ROWS = 4_096
#: Tabulate the full input cube when the support is at most this wide
#: (``2^16`` doubles = a 512 KiB table, built once per diagram).
TAB_MAX_SUPPORT = 16

_MET = get_metrics()
_CODEGEN_FALLBACKS = _MET.counter("eval.codegen.fallbacks")
_CODEGEN_COMPILES = _MET.counter("eval.codegen.compiles")
_CODEGEN_CACHE_HITS = _MET.counter("eval.codegen.cache_hits")
_FUSED_CALLS = _MET.counter("eval.codegen.fused_calls")
_FUSED_SEGMENTS = _MET.counter("eval.codegen.fused_segments")

# Per-backend batch/row counters, created on first use so registering a
# custom backend needs no metrics boilerplate.
_BATCH_COUNTERS: Dict[str, tuple] = {}


def record_batch(name: str, rows: int) -> None:
    """Bump ``eval.backend.<name>.{batches,rows}`` for one batch."""
    pair = _BATCH_COUNTERS.get(name)
    if pair is None:
        pair = _BATCH_COUNTERS[name] = (
            _MET.counter(f"eval.backend.{name}.batches"),
            _MET.counter(f"eval.backend.{name}.rows"),
        )
    pair[0].inc()
    pair[1].inc(rows)


# ---------------------------------------------------------------------------
# Backend interface and registry
# ---------------------------------------------------------------------------
class EvalBackend:
    """One strategy for evaluating a compiled diagram on a batch.

    Implementations receive matrices already canonicalised by
    :func:`repro.dd.compiled.coerce_matrix` (bool, C-contiguous) with all
    support columns present and at least one row, and must return a
    ``(P,)`` float64 array bit-for-bit equal to the scalar walk.
    Per-diagram prepared state belongs in ``compiled._backend_state``
    under the backend's name, never on the backend object itself (one
    registered instance serves every diagram concurrently).
    """

    name: str = "abstract"

    def supports(self, compiled: "CompiledDD") -> bool:
        """Whether this backend can evaluate ``compiled`` at all."""
        return True

    def warm(self, compiled: "CompiledDD") -> None:
        """Build per-diagram state ahead of the first batch (optional)."""

    def evaluate(self, compiled: "CompiledDD", matrix: np.ndarray) -> np.ndarray:
        raise NotImplementedError


_REGISTRY: Dict[str, EvalBackend] = {}


def register(backend: EvalBackend) -> EvalBackend:
    """Register ``backend`` under its name (replacing any previous one)."""
    _REGISTRY[backend.name] = backend
    return backend


def registered_names() -> Tuple[str, ...]:
    """Sorted names of all registered backends."""
    return tuple(sorted(_REGISTRY))


def get_backend(name: str) -> EvalBackend:
    """The backend registered as ``name``; typed error when unknown."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise BackendError(
            f"unknown evaluation backend {name!r} "
            f"(registered: {', '.join(registered_names())})"
        ) from None


def warm_backend(compiled: "CompiledDD", name: str) -> EvalBackend:
    """Resolve ``name`` and prepare its per-diagram state eagerly.

    Used by the serving layer to move codegen compilation (and the
    bit-parallel plan build) out of the first request's latency.
    """
    backend = get_backend(name)
    if backend.supports(compiled):
        backend.warm(compiled)
    return backend


def select_backend(compiled: "CompiledDD", rows: int) -> EvalBackend:
    """The ``kernel="auto"`` policy.

    1. ``REPRO_EVAL_BACKEND`` forces a backend by name (unknown names
       raise); a forced backend the diagram cannot use degrades to the
       best supported one rather than erroring, because the override is
       global across models of very different shapes.
    2. A diagram with no levelized plan can only be pointer-chased.
    3. A warm codegen kernel is already paid for — use it.
    4. Large batches on thin plans go bit-parallel.
    5. Everything else: levelized.
    """
    override = os.environ.get(ENV_BACKEND)
    if override:
        try:
            backend = get_backend(override)
        except BackendError as exc:
            raise BackendError(f"{ENV_BACKEND}={override!r}: {exc}") from None
        if backend.supports(compiled):
            _log_selection(compiled, backend, rows, forced=True)
            return backend
    if compiled._lev_children is None:
        backend = _REGISTRY["pointer"]
    elif codegen_loaded(compiled):
        backend = _REGISTRY["codegen"]
    elif rows >= BITPARALLEL_MIN_ROWS and len(compiled.support) <= TAB_MAX_SUPPORT:
        backend = _REGISTRY["bitparallel"]
    else:
        backend = _REGISTRY["levelized"]
    _log_selection(compiled, backend, rows, forced=False)
    return backend


def codegen_loaded(compiled: "CompiledDD") -> bool:
    """Whether a compiled codegen kernel is installed for ``compiled``."""
    state = compiled._backend_state.get("codegen")
    return state is not None and state["library"] is not None


def _log_selection(
    compiled: "CompiledDD", backend: EvalBackend, rows: int, forced: bool
) -> None:
    """Log an auto-selection once per diagram (and again on change)."""
    state = compiled._backend_state
    if state.get("_selected") == backend.name:
        return
    state["_selected"] = backend.name
    _MET.counter(f"eval.backend.selected.{backend.name}").inc()
    tracer = get_tracer()
    if tracer.enabled:
        tracer.event(
            "eval.backend.selected",
            backend=backend.name,
            rows=rows,
            forced=forced,
            nodes=compiled.num_nodes,
        )


# ---------------------------------------------------------------------------
# Reference backends (thin wrappers over the CompiledDD numpy kernels)
# ---------------------------------------------------------------------------
class PointerBackend(EvalBackend):
    """Masked pointer chasing — the universal reference kernel."""

    name = "pointer"

    def evaluate(self, compiled: "CompiledDD", matrix: np.ndarray) -> np.ndarray:
        return compiled._evaluate_pointer(matrix)


class LevelizedBackend(EvalBackend):
    """Two vectorised passes per support level over the slot table."""

    name = "levelized"

    def supports(self, compiled: "CompiledDD") -> bool:
        return compiled._lev_children is not None

    def evaluate(self, compiled: "CompiledDD", matrix: np.ndarray) -> np.ndarray:
        return compiled._evaluate_levelized(matrix)


# ---------------------------------------------------------------------------
# Bit-parallel backend
# ---------------------------------------------------------------------------
#: Word patterns of the first six cube variables — bit ``p`` of variable
#: ``t``'s mask is ``(p >> t) & 1``, exactly the truth-table masks the
#: differential oracle builds for its operand variables.
_CUBE_BASE = (
    0xAAAAAAAAAAAAAAAA,
    0xCCCCCCCCCCCCCCCC,
    0xF0F0F0F0F0F0F0F0,
    0xFF00FF00FF00FF00,
    0xFFFF0000FFFF0000,
    0xFFFFFFFF00000000,
)

#: Row-chunk size for the streaming lane pack: one chunk of the input
#: matrix stays cache-resident while all its support columns are sliced
#: out, instead of streaming the whole matrix once per column.
_PACK_CHUNK = 8_192


def _cube_lanes(num_levels: int, num_words: int) -> np.ndarray:
    """Packed input lanes enumerating the full ``2^L`` assignment cube."""
    lanes = np.empty((num_levels, num_words), dtype=np.uint64)
    for t in range(num_levels):
        if t < 6:
            lanes[t] = np.uint64(_CUBE_BASE[t])
        else:
            period = 1 << (t - 6)
            block = np.zeros(2 * period, dtype=np.uint64)
            block[period:] = ~np.uint64(0)
            lanes[t] = np.tile(block, num_words // (2 * period))
    return lanes


class BitParallelBackend(EvalBackend):
    """64 patterns per uint64 lane over the levelized plan.

    Traversal state per level is a ``(width, num_words)`` uint64 matrix:
    row ``s`` is the mask of patterns currently sitting in slot ``s``.
    One level of descent:

    - branch masks: ``masks[s] & ~bits`` and ``masks[s] & bits``
      (``bits`` = packed lanes of this level's input column), written as
      two contiguous ``(width, num_words)`` blocks;
    - scatter to successors: each next-level slot ORs together its
      source rows.  Group sizes are tiny (mean ~2), so the scatter is a
      base row-gather plus one ``|=`` pass per extra source rank — all
      precomputed into index arrays at plan-build time (measured ~6x
      faster than ``bitwise_or.reduceat`` on these shapes).

    Each pattern occupies exactly one slot per level, so the final masks
    partition the lanes; OR-ing the mask rows whose slot index has bit
    ``b`` set yields packed bit-planes of the terminal slot *index*,
    which unpack directly into a value-table gather.

    Diagrams with support of at most :data:`TAB_MAX_SUPPORT` variables
    are **tabulated**: the traversal runs once over the whole input cube
    (periodic constant lanes, no per-batch packing), the decoded values
    are cached as a ``2^L`` table, and batches are served by packing
    each row's support bits into an index — via a uint16 pair gather
    when the support pairs up with the interleaved (initial, final)
    column layout, which power-model diagrams almost always satisfy.
    """

    name = "bitparallel"

    def supports(self, compiled: "CompiledDD") -> bool:
        return compiled._lev_tables is not None

    def warm(self, compiled: "CompiledDD") -> None:
        state = self._plan(compiled)
        if len(compiled.support) <= TAB_MAX_SUPPORT:
            self._table(compiled, state)

    @staticmethod
    def _plan(compiled: "CompiledDD") -> dict:
        state = compiled._backend_state.get("bitparallel")
        if state is None:
            levels = []
            for table in compiled._lev_tables:
                width = len(table) // 2
                order = np.argsort(table, kind="stable")
                sorted_targets = table[order]
                next_width = int(sorted_targets[-1]) + 1
                # Every next-level slot is referenced at least once
                # (slots are created on first reference), so each group
                # is non-empty and ``starts`` indexes its first source.
                starts = np.searchsorted(sorted_targets, np.arange(next_width))
                sizes = np.diff(np.append(starts, len(table)))
                # Interleaved source row 2s+b lives at row b*width+s of
                # the two contiguous branch blocks.
                remap = (order & 1) * width + (order >> 1)
                base = remap[starts]
                extras = []
                for k in range(1, int(sizes.max())):
                    targets = np.flatnonzero(sizes > k)
                    extras.append((targets, remap[starts[targets] + k]))
                levels.append((width, base, extras))
            state = {"levels": levels, "table": None, "index_plan": None}
            compiled._backend_state["bitparallel"] = state
        return state

    @staticmethod
    def _traverse(state: dict, lanes: np.ndarray, num_words: int, count: int) -> np.ndarray:
        masks = np.empty((1, num_words), dtype=np.uint64)
        masks[0, :] = ~np.uint64(0)
        tail = count - (num_words - 1) * 64
        if tail < 64:  # zero the lanes past the last real pattern
            masks[0, -1] = np.uint64((1 << tail) - 1)
        for t, (width, base, extras) in enumerate(state["levels"]):
            bits = lanes[t]
            contrib = np.empty((2, width, num_words), dtype=np.uint64)
            np.bitwise_and(masks, ~bits, out=contrib[0])
            np.bitwise_and(masks, bits, out=contrib[1])
            flat = contrib.reshape(2 * width, num_words)
            nxt = flat[base]
            for targets, sources in extras:
                nxt[targets] |= flat[sources]
            masks = nxt
        return masks

    @staticmethod
    def _decode(compiled: "CompiledDD", masks: np.ndarray, count: int) -> np.ndarray:
        values = compiled._lev_final_values
        final_width = masks.shape[0]
        if final_width == 1:
            return np.full(count, values[0], dtype=np.float64)
        num_bits = (final_width - 1).bit_length()
        slot_ids = np.arange(final_width)
        packed_index = np.empty((num_bits, masks.shape[1]), dtype=np.uint64)
        for b in range(num_bits):
            np.bitwise_or.reduce(
                masks[(slot_ids >> b) & 1 == 1], axis=0, out=packed_index[b]
            )
        planes = np.unpackbits(
            packed_index.view(np.uint8), axis=1, bitorder="little", count=count
        )
        index = planes[0].astype(np.int32)
        for b in range(1, num_bits):
            index |= planes[b].astype(np.int32) << b
        return values[index]

    def _table(self, compiled: "CompiledDD", state: dict) -> np.ndarray:
        table = state["table"]
        if table is None:
            num_levels = len(compiled.support)
            count = 1 << num_levels
            num_words = max(1, count >> 6)
            lanes = _cube_lanes(num_levels, num_words)
            masks = self._traverse(state, lanes, num_words, count)
            table = self._decode(compiled, masks, count)
            state["table"] = table
        return table

    @staticmethod
    def _index_plan(compiled: "CompiledDD", state: dict, num_columns: int) -> dict:
        plan = state["index_plan"]
        if plan is None:
            support = compiled.support
            num_levels = len(support)
            packed_width = 8 if num_levels <= 8 else 16
            pairs = (
                num_levels % 2 == 0
                and num_columns % 2 == 0
                and bool((support[0::2] % 2 == 0).all())
                and bool((support[1::2] == support[0::2] + 1).all())
            )
            if pairs:
                columns = (support[0::2] // 2).astype(np.intp)
                pad = (packed_width - num_levels) // 2
            else:
                columns = support.astype(np.intp)
                pad = packed_width - num_levels
            if pad:  # repeat a real column; the stray high bits are masked
                columns = np.concatenate([columns, np.repeat(columns[:1], pad)])
            plan = {
                "pairs": pairs,
                "columns": columns,
                "view": "<u1" if packed_width == 8 else "<u2",
                "mask": (1 << num_levels) - 1 if pad else None,
            }
            state["index_plan"] = plan
        return plan

    def _indices(self, compiled: "CompiledDD", state: dict, matrix: np.ndarray) -> np.ndarray:
        """Each row's support bits packed into a table index."""
        plan = self._index_plan(compiled, state, matrix.shape[1])
        if plan["pairs"]:
            gathered = np.take(matrix.view(np.uint16), plan["columns"], axis=1)
            flat_bits = gathered.view(np.uint8).ravel()
        else:
            flat_bits = np.take(matrix, plan["columns"], axis=1).ravel()
        index = np.packbits(flat_bits, bitorder="little").view(plan["view"])
        if plan["mask"] is not None:
            index &= plan["mask"]
        return index

    def evaluate(self, compiled: "CompiledDD", matrix: np.ndarray) -> np.ndarray:
        state = self._plan(compiled)
        if len(compiled.support) <= TAB_MAX_SUPPORT:
            table = self._table(compiled, state)
            return np.take(table, self._indices(compiled, state, matrix))
        rows = matrix.shape[0]
        num_words = (rows + 63) >> 6
        support = compiled.support
        # Pack each support column into uint64 lanes: pattern p lands in
        # bit (p % 64) of word (p // 64), little-endian bit order.  The
        # chunked transpose keeps each slice of the row-major matrix
        # cache-resident across all column extractions.
        padded = np.zeros((len(support), num_words * 64), dtype=bool)
        for start in range(0, rows, _PACK_CHUNK):
            end = min(rows, start + _PACK_CHUNK)
            padded[:, start:end] = matrix[start:end].T[support]
        lanes = np.packbits(padded, axis=1, bitorder="little").view(np.uint64)
        masks = self._traverse(state, lanes, num_words, rows)
        return self._decode(compiled, masks, rows)


# ---------------------------------------------------------------------------
# Codegen backend (C via cc, loaded with ctypes; optional numba path)
# ---------------------------------------------------------------------------
#: Rows evaluated per unrolled block: this many independent root-to-leaf
#: chains are in flight at once, hiding the slot table's L1 load latency.
_CODEGEN_BLOCK = 8

#: A ``cc`` run that takes longer than this is killed (with every process
#: it started) and the compilation fails with :class:`BackendError`, so a
#: hung toolchain degrades to levelized instead of hanging the caller.
CODEGEN_COMPILE_TIMEOUT_S = 120.0

_COMPILE_FLAGS = ("-O3", "-shared", "-fPIC")

#: Libraries the kernel cache keeps: each publish removes the oldest
#: entries beyond this many.
KERNEL_CACHE_MAX_ENTRIES = 256

#: Process-wide cache of loaded libraries, keyed like the disk cache.
_LIBRARY_CACHE: Dict[str, "_CodegenLibrary"] = {}

_C_LONG = np.dtype(f"i{ctypes.sizeof(ctypes.c_long)}")


def _find_cc() -> str | None:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _toolchain() -> Tuple[str, bytes]:
    """The C compiler and the identity every cache key starts with."""
    compiler = _find_cc()
    if compiler is None:
        raise BackendError("codegen backend found no C compiler (cc/gcc/clang)")
    return compiler, _toolchain_identity(compiler)


@functools.lru_cache(maxsize=None)
def _toolchain_identity(compiler: str) -> bytes:
    """Digest of the emitter (this module's source), the compile flags and
    the compiler binary (resolved path, size, mtime): an edit to any of
    them turns every old cache entry into a miss.  Once per process."""
    real = os.path.realpath(compiler)
    info = os.stat(real)
    identity = hashlib.sha256()
    with open(__file__, "rb") as handle:
        identity.update(handle.read())
    identity.update(
        repr((real, info.st_size, info.st_mtime_ns, _COMPILE_FLAGS)).encode()
    )
    return identity.digest()


def kernel_cache_dir() -> str | None:
    """The per-user directory compiled kernels persist in, or None.

    ``$XDG_CACHE_HOME/repro/kernels`` (default ``~/.cache/repro/kernels``),
    created with mode 0700.  Loading a library from it executes its code,
    so a directory this user does not own, or that others may write to,
    is refused (None): kernels are then compiled privately per process.
    """
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    path = os.path.join(base, "repro", "kernels")
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        info = os.stat(path)
    except OSError:
        return None
    if info.st_uid != os.getuid() or info.st_mode & 0o022:
        return None
    return path


def _cache_key(plans: Sequence[dict], fused: bool, identity: bytes) -> str:
    """Digest of the plan arrays (plus toolchain identity) of one library.

    Hashing the arrays the emitter reads, rather than the C source it
    would write, keeps the cache-hit path free of source emission.
    """
    digest = hashlib.sha256(identity)
    digest.update(b"fused" if fused else b"single")
    for plan in plans:
        arrays = [np.asarray(plan["cols"], dtype=np.int32)]
        arrays += [np.asarray(t, dtype=np.int32) for t in plan["tables"]]
        arrays.append(np.asarray(plan["final_values"], dtype=np.float64))
        digest.update(np.int64(len(arrays)).tobytes())
        for array in arrays:
            digest.update(np.int64(array.size).tobytes())
            digest.update(array.tobytes())
    return digest.hexdigest()


def _c_double(value: float) -> str:
    """A C literal reproducing ``value`` bit-for-bit (hex float form)."""
    if math.isnan(value):
        return "0.0"  # only ever emitted for unreachable slots
    if math.isinf(value):
        return "INFINITY" if value > 0 else "-INFINITY"
    return float(value).hex()


def _plan_of(compiled: "CompiledDD") -> dict:
    """The codegen-relevant arrays of one compiled diagram."""
    return {
        "tables": compiled._lev_tables,
        "final_values": compiled._lev_final_values,
        "cols": compiled.support,
        # Flat radix-2 plan, for the numba fallback path only.
        "children": compiled._lev_children,
        "values": compiled._lev_values,
    }


def _fuse_radix4(tables: Sequence[np.ndarray], cols: np.ndarray):
    """Fuse level pairs into radix-4 tables with absolute slot ids.

    Two radix-2 levels become one table indexed by ``4*slot + 2*b0 +
    b1`` — one dependent load where the plain plan takes two, which
    halves the latency chain that dominates table-walk throughput.  A
    trailing odd level keeps radix 2.  Entries hold absolute,
    pre-multiplied indices into the concatenated table (``offset of
    next group + next_radix * local slot``); the *last* group's entries
    are final slot ids, indexing the terminal-value array directly.

    Returns ``(flat int32 table, [(radix, column indices), ...])``.
    """
    groups = []
    i = 0
    while i < len(tables):
        if i + 1 < len(tables):
            first, second = tables[i], tables[i + 1]
            fused = second[
                2 * np.repeat(first, 2) + np.tile([0, 1], len(first))
            ]
            groups.append((fused, 4, (int(cols[i]), int(cols[i + 1]))))
            i += 2
        else:
            groups.append((tables[i], 2, (int(cols[i]),)))
            i += 1
    offsets = np.concatenate(
        [[0], np.cumsum([len(t) for t, _, _ in groups])]
    )
    flat = np.empty(int(offsets[-1]), dtype=np.int32)
    for g, (table, _, _) in enumerate(groups):
        lo, hi = offsets[g], offsets[g + 1]
        if g < len(groups) - 1:
            flat[lo:hi] = hi + groups[g + 1][1] * table
        else:
            flat[lo:hi] = table
    return flat, [(radix, cl) for _, radix, cl in groups]


def _emit_eval(index: int, plan: dict, lines: List[str]) -> None:
    """Append one ``eval_<index>`` kernel plus its tables to ``lines``."""
    flat, steps = _fuse_radix4(plan["tables"], plan["cols"])
    ch = ",".join(map(str, flat.tolist()))
    vals = ",".join(_c_double(v) for v in plan["final_values"].tolist())
    b = _CODEGEN_BLOCK
    lines.append(f"static const int32_t CH_{index}[] = {{{ch}}};")
    lines.append(f"static const double VALS_{index}[] = {{{vals}}};")
    lines.append(
        f"void eval_{index}(const unsigned char *m, long rows, "
        "long stride, double *out)"
    )
    lines.append("{")
    lines.append("    long r = 0;")
    # Block of independent rows: the fully unrolled level steps advance
    # every chain one step per group, so the dependent CH loads of
    # different rows overlap in the load pipeline instead of
    # serialising.
    lines.append(f"    for (; r + {b} <= rows; r += {b}) {{")
    for k in range(b):
        lines.append(
            f"        const unsigned char *p{k} = m + (r + {k}) * stride;"
        )
    lines.append(
        "        " + " ".join(f"int32_t s{k} = 0;" for k in range(b))
    )
    for radix, cl in steps:
        for k in range(b):
            if radix == 4:
                lines.append(
                    f"        s{k} = CH_{index}[s{k} + 2 * p{k}[{cl[0]}] "
                    f"+ p{k}[{cl[1]}]];"
                )
            else:
                lines.append(f"        s{k} = CH_{index}[s{k} + p{k}[{cl[0]}]];")
    for k in range(b):
        lines.append(f"        out[r + {k}] = VALS_{index}[s{k}];")
    lines.append("    }")
    lines.append("    for (; r < rows; r++) {")
    lines.append("        const unsigned char *p = m + r * stride;")
    lines.append("        int32_t s = 0;")
    for radix, cl in steps:
        if radix == 4:
            lines.append(
                f"        s = CH_{index}[s + 2 * p[{cl[0]}] + p[{cl[1]}]];"
            )
        else:
            lines.append(f"        s = CH_{index}[s + p[{cl[0]}]];")
    lines.append(f"        out[r] = VALS_{index}[s];")
    lines.append("    }")
    lines.append("}")


def _emit_source(plans: Sequence[dict], fused: bool) -> str:
    """C source of one library holding ``eval_<i>`` per plan.

    Every kernel has the signature ``void eval_<i>(const unsigned char
    *m, long rows, long stride, double *out)``; a fused library adds
    ``void eval_fused(long nseg, const int32_t *ids, const unsigned char
    **mats, const long *rows, const long *strides, double **outs)``.
    """
    lines = ["#include <stdint.h>", "#include <math.h>", ""]
    for index, plan in enumerate(plans):
        _emit_eval(index, plan, lines)
    if fused:
        lines.append(
            "void eval_fused(long nseg, const int32_t *ids, "
            "const unsigned char **mats, const long *rows, "
            "const long *strides, double **outs)"
        )
        lines.append("{")
        lines.append("    for (long i = 0; i < nseg; i++) {")
        lines.append("        switch (ids[i]) {")
        for index in range(len(plans)):
            lines.append(
                f"        case {index}: eval_{index}(mats[i], rows[i], "
                f"strides[i], outs[i]); break;"
            )
        lines.append("        }")
        lines.append("    }")
        lines.append("}")
    return "\n".join(lines) + "\n"


class _CodegenLibrary:
    """A shared object holding one or more eval kernels, loaded by ctypes.

    ctypes releases the GIL for the duration of each foreign call, and
    the fixed signatures above need no declaration parsing at load time.
    Raises ``OSError`` (unloadable file) or ``AttributeError`` (missing
    entry point) when ``path`` is not a library this module emitted.
    """

    def __init__(self, path: str, count: int, fused: bool):
        lib = ctypes.CDLL(path)
        self._kernels = []
        for index in range(count):
            fn = getattr(lib, f"eval_{index}")
            fn.argtypes = (ctypes.c_void_p, ctypes.c_long, ctypes.c_long, ctypes.c_void_p)
            fn.restype = None
            self._kernels.append(fn)
        self._fused = None
        if fused:
            self._fused = lib.eval_fused
            self._fused.argtypes = (ctypes.c_long,) + (ctypes.c_void_p,) * 5
            self._fused.restype = None
        self.count = count
        self.fused = fused

    def call(self, index: int, matrix: np.ndarray) -> np.ndarray:
        rows, stride = matrix.shape
        out = np.empty(rows, dtype=np.float64)
        if rows:
            self._kernels[index](matrix.ctypes.data, rows, stride, out.ctypes.data)
        return out

    def call_fused(
        self, segments: Sequence[Tuple[int, np.ndarray]]
    ) -> List[np.ndarray]:
        """Evaluate ``[(kernel index, matrix), ...]`` in one foreign call."""
        outs = [np.empty(m.shape[0], dtype=np.float64) for _, m in segments]
        ids = np.array([i for i, _ in segments], dtype=np.int32)
        rows = np.array([m.shape[0] for _, m in segments], dtype=_C_LONG)
        strides = np.array([m.shape[1] for _, m in segments], dtype=_C_LONG)
        mats = np.array([m.ctypes.data for _, m in segments], dtype=np.uintp)
        optrs = np.array([o.ctypes.data for o in outs], dtype=np.uintp)
        self._fused(
            len(segments),
            ids.ctypes.data,
            mats.ctypes.data,
            rows.ctypes.data,
            strides.ctypes.data,
            optrs.ctypes.data,
        )
        return outs


def _load_library(
    plans: Sequence[dict], fused: bool, persist: bool = False, compile: bool = True
) -> "_CodegenLibrary | None":
    """The library for ``plans``: from this process, the disk cache, or cc.

    Only ``persist=True`` callers use the per-user kernel cache: they load
    a published entry, and their compiles publish one.  Other compiles
    build in a private temp directory and are kept by this process alone,
    so one-off runs (fuzzing, sweeps, tests) leave nothing on disk.  With
    ``compile=False`` only caches are consulted (None on a miss), so the
    caller never waits for a compiler.  Raises :class:`BackendError`
    when no toolchain is available or the compiler fails; the
    ``eval.codegen.compile_fail`` fault site fires first, so chaos tests
    can provoke the fallback path on demand.
    """
    from repro.testing.faults import maybe_fail

    maybe_fail("eval.codegen.compile_fail")
    compiler, identity = _toolchain()
    key = _cache_key(plans, fused, identity)
    library = _LIBRARY_CACHE.get(key)
    if library is not None:
        return library
    cache_dir = kernel_cache_dir() if persist else None
    if cache_dir is not None:
        library = _load_cached(cache_dir, key, len(plans), fused)
    if library is None:
        if not compile:
            return None
        library = _compile(plans, fused, compiler, cache_dir, key)
    _LIBRARY_CACHE[key] = library
    return library


def _load_cached(
    cache_dir: str, key: str, count: int, fused: bool
) -> "_CodegenLibrary | None":
    """Load one published cache entry; None on a miss or a damaged entry.

    An entry is ``<key>.so`` plus ``<key>.so.sha256`` holding the
    library's digest; a library whose bytes do not match (truncated,
    torn, overwritten) is never loaded, so it is recompiled instead.
    """
    path = os.path.join(cache_dir, key + ".so")
    try:
        with open(path + ".sha256") as handle:
            expected = handle.read().strip()
        with open(path, "rb") as handle:
            actual = hashlib.sha256(handle.read()).hexdigest()
    except OSError:
        return None
    if actual != expected:
        return None
    try:
        library = _CodegenLibrary(path, count, fused)
    except (OSError, AttributeError):
        return None
    _CODEGEN_CACHE_HITS.inc()
    return library


def _run_compiler(compiler: str, c_path: str, so_path: str) -> None:
    """One ``cc`` run, bounded by :data:`CODEGEN_COMPILE_TIMEOUT_S`.

    The compiler runs in its own session so that a timeout kills its
    whole process group (``cc1``, ``as``, ``ld``), not just ``cc`` itself.
    """
    proc = subprocess.Popen(
        [compiler, *_COMPILE_FLAGS, "-o", so_path, c_path],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=CODEGEN_COMPILE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:  # pragma: no cover - group already gone
            pass
        proc.communicate()
        raise BackendError(
            f"codegen C compilation timed out after "
            f"{CODEGEN_COMPILE_TIMEOUT_S:g}s"
        ) from None
    if proc.returncode != 0:
        raise BackendError(
            "codegen C compilation failed: "
            + stderr.decode(errors="replace")[:500]
        )


def _prune_cache(cache_dir: str) -> None:
    """Bound the kernel cache: keep the newest published libraries.

    Removes every library beyond :data:`KERNEL_CACHE_MAX_ENTRIES` (oldest
    first, with its digest file) and the scratch directories of compiles
    killed before their ``finally`` ran.  A scratch directory is removed
    only when it is older than twice the compiler timeout, so a compile
    still running elsewhere keeps its own.
    """
    now = time.time()
    libraries = []
    try:
        with os.scandir(cache_dir) as entries:
            for entry in entries:
                try:
                    mtime = entry.stat(follow_symlinks=False).st_mtime
                except OSError:
                    continue
                if entry.name.startswith("repro-codegen-"):
                    if now - mtime > 2 * CODEGEN_COMPILE_TIMEOUT_S:
                        shutil.rmtree(entry.path, ignore_errors=True)
                elif entry.name.endswith(".so"):
                    libraries.append((mtime, entry.path))
    except OSError:
        return
    libraries.sort(reverse=True)
    for _, path in libraries[KERNEL_CACHE_MAX_ENTRIES:]:
        # Digest first: a library without one is a miss, never loaded.
        for stale in (path + ".sha256", path):
            try:
                os.unlink(stale)
            except OSError:
                pass


def _compile(
    plans: Sequence[dict],
    fused: bool,
    compiler: str,
    cache_dir: str | None,
    key: str,
) -> _CodegenLibrary:
    """Compile ``plans``, publish the entry to ``cache_dir``, and load it.

    The build happens in a scratch directory inside the cache directory
    (same file system), and the library and its digest are published by
    atomic rename, so concurrent servers never see a partial entry, and
    the cache is then pruned (:func:`_prune_cache`).  The scratch
    directory is removed whatever happens; with no cache directory the
    library is loaded from a private temp directory before that removal
    (the loaded mapping outlives the file).
    """
    source = _emit_source(plans, fused)
    with get_tracer().span(
        "eval.codegen.compile", kernels=len(plans), fused=fused
    ) as span:
        workdir = tempfile.mkdtemp(prefix="repro-codegen-", dir=cache_dir)
        try:
            c_path = os.path.join(workdir, "kernel.c")
            so_path = os.path.join(workdir, "kernel.so")
            with open(c_path, "w") as handle:
                handle.write(source)
            _run_compiler(compiler, c_path, so_path)
            if cache_dir is not None:
                with open(so_path, "rb") as handle:
                    digest = hashlib.sha256(handle.read()).hexdigest()
                published = os.path.join(cache_dir, key + ".so")
                os.replace(so_path, published)
                with open(c_path, "w") as handle:
                    handle.write(digest + "\n")
                os.replace(c_path, published + ".sha256")
                so_path = published
                _prune_cache(cache_dir)
            library = _CodegenLibrary(so_path, len(plans), fused)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        span.set("source_bytes", len(source))
    _CODEGEN_COMPILES.inc()
    return library


def _numba_kernel(plan: dict):  # pragma: no cover - numba not installed
    """JIT the scalar levelized walk when C is unavailable but numba is."""
    children = plan["children"]
    values = plan["values"]
    cols = plan["cols"].astype(np.int64)

    @_njit(cache=False)
    def kernel(matrix, out):
        for r in range(matrix.shape[0]):
            state = 0
            for t in range(cols.shape[0]):
                if matrix[r, cols[t]]:
                    state += 1
                state = children[state]
            out[r] = values[state]

    return kernel


class CodegenBackend(EvalBackend):
    """The levelized plan compiled to native code.

    Per-diagram state (under ``_backend_state["codegen"]``):

    ``library``
        A :class:`_CodegenLibrary` (or a numba kernel wrapper), or None
        after a failed compilation — the failure is remembered so every
        subsequent batch falls back to levelized without re-invoking the
        compiler.
    """

    name = "codegen"

    def supports(self, compiled: "CompiledDD") -> bool:
        return (
            compiled._lev_tables is not None
            and len(compiled._lev_children) <= CODEGEN_SLOT_LIMIT
        )

    def warm(self, compiled: "CompiledDD", persist: bool = False) -> None:
        """Compile (or load) this diagram's kernel ahead of its first batch.

        ``persist=True`` goes through the per-user kernel cache: a
        published kernel is loaded, and a fresh compile is published for
        the next process.  Long-lived servers pass it; other callers keep
        their kernels in this process only.
        """
        self._ensure(compiled, persist)

    def load_cached(self, compiled: "CompiledDD") -> bool:
        """Install this diagram's kernel from a cache, never compiling.

        True when a codegen kernel is ready (already warm, or loaded from
        the process or disk cache).  False on a miss or any failure, with
        the state left cold so a later :meth:`warm` can compile — which
        is how a server loads every cached kernel before it reports ready
        and compiles the misses off its event loop.
        """
        state = compiled._backend_state.get("codegen")
        if state is not None:
            return state["library"] is not None
        if not self.supports(compiled):
            return False
        try:
            library = _load_library(
                [_plan_of(compiled)], fused=False, persist=True, compile=False
            )
        except Exception:  # noqa: BLE001 - a cold cache is never an error
            return False
        if library is None:
            return False
        compiled._backend_state["codegen"] = {"library": library, "numba": None}
        return True

    @staticmethod
    def _ensure(compiled: "CompiledDD", persist: bool = False) -> dict:
        state = compiled._backend_state.get("codegen")
        if state is not None:
            return state
        state = {"library": None, "numba": None}
        try:
            state["library"] = _load_library(
                [_plan_of(compiled)], fused=False, persist=persist
            )
        except Exception as exc:  # noqa: BLE001 - any failure => fallback
            if _njit is not None:  # pragma: no cover - numba not installed
                try:
                    state["numba"] = _numba_kernel(_plan_of(compiled))
                except Exception:
                    state["numba"] = None
            if state["numba"] is None:
                _CODEGEN_FALLBACKS.inc()
                tracer = get_tracer()
                if tracer.enabled:
                    tracer.event(
                        "eval.codegen.fallback",
                        error=f"{type(exc).__name__}: {exc}",
                    )
        compiled._backend_state["codegen"] = state
        return state

    def evaluate(self, compiled: "CompiledDD", matrix: np.ndarray) -> np.ndarray:
        state = self._ensure(compiled)
        library = state["library"]
        if library is not None:
            return library.call(0, matrix)
        if state["numba"] is not None:  # pragma: no cover - numba absent
            out = np.empty(matrix.shape[0], dtype=np.float64)
            state["numba"](matrix, out)
            return out
        # Graceful degradation: compilation failed (toolchain missing or
        # the compile_fail fault site fired) — serve the batch anyway.
        return compiled._evaluate_levelized(matrix)


# ---------------------------------------------------------------------------
# Multi-model fusion
# ---------------------------------------------------------------------------
class FusedKernel:
    """Several models' codegen kernels in one shared object.

    Built from ``{key: CompiledDD}`` (a power-query server passes model
    names), it evaluates a heterogeneous list of ``(key, matrix)``
    segments with a single foreign call — one GIL release, one dispatch
    loop in C — instead of one Python->kernel round trip per model.

    Construction compiles eagerly and raises :class:`BackendError` if
    any diagram is codegen-ineligible or the toolchain is missing, so
    callers decide up front whether to fuse or fall back per model.
    """

    def __init__(self, diagrams: Dict[str, "CompiledDD"]):
        if not diagrams:
            raise BackendError("FusedKernel needs at least one diagram")
        codegen = get_backend("codegen")
        items = list(diagrams.items())
        for key, compiled in items:
            if not codegen.supports(compiled):
                raise BackendError(
                    f"model {key!r} is not codegen-eligible "
                    "(no levelized plan or plan over the slot limit)"
                )
        self._index = {key: i for i, (key, _) in enumerate(items)}
        self._diagrams = dict(items)
        self._library = _load_library(
            [_plan_of(compiled) for _, compiled in items], fused=True, persist=True
        )

    @property
    def keys(self) -> Tuple[str, ...]:
        return tuple(self._index)

    def __contains__(self, key: str) -> bool:
        return key in self._index

    def evaluate_many(
        self, segments: Iterable[Tuple[str, np.ndarray]]
    ) -> List[np.ndarray]:
        """Evaluate ``[(key, (P_i, n_i) matrix), ...]`` in one call."""
        from repro.dd.compiled import coerce_matrix

        prepared = []
        for key, matrix in segments:
            index = self._index.get(key)
            if index is None:
                raise BackendError(f"model {key!r} is not part of this fusion")
            matrix = np.asarray(matrix)
            if matrix.ndim != 2:
                raise DDError("assignments must be a (P, num_vars) matrix")
            compiled = self._diagrams[key]
            if matrix.shape[1] < compiled.min_width():
                raise DDError(
                    f"assignments for {key!r} lack variable column "
                    f"{compiled.min_width() - 1}"
                )
            prepared.append((index, coerce_matrix(matrix)))
        if not prepared:
            return []
        outs = self._library.call_fused(prepared)
        _FUSED_CALLS.inc()
        _FUSED_SEGMENTS.inc(len(prepared))
        total_rows = sum(m.shape[0] for _, m in prepared)
        record_batch("codegen", total_rows)
        return outs


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------
register(PointerBackend())
register(LevelizedBackend())
register(BitParallelBackend())
register(CodegenBackend())

__all__ = [
    "BITPARALLEL_MIN_ROWS",
    "CODEGEN_COMPILE_TIMEOUT_S",
    "CODEGEN_SLOT_LIMIT",
    "ENV_BACKEND",
    "KERNEL_CACHE_MAX_ENTRIES",
    "TAB_MAX_SUPPORT",
    "BitParallelBackend",
    "CodegenBackend",
    "EvalBackend",
    "FusedKernel",
    "LevelizedBackend",
    "PointerBackend",
    "codegen_loaded",
    "get_backend",
    "kernel_cache_dir",
    "record_batch",
    "register",
    "registered_names",
    "select_backend",
    "warm_backend",
]
