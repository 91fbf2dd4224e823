"""Compiled (array-form) decision diagrams for batch evaluation.

Once a BDD/ADD is built, evaluating it is a pure table-indexing problem:
every node is a ``(var, lo, hi)`` triple and a root-to-leaf walk only
chases pointers.  :class:`CompiledDD` freezes the diagram rooted at one
node into contiguous numpy arrays (nodes relabeled to dense ids) so a
whole ``(P, num_vars)`` pattern batch is routed with vectorised gathers
instead of one Python loop iteration per pattern per level.

Evaluation strategies are pluggable :class:`~repro.dd.backends.EvalBackend`
implementations (see :mod:`repro.dd.backends`); this module provides the
compiled diagram itself plus the two numpy reference kernels every other
backend is differenced against:

- the **levelized plan** (default): at compile time the diagram is
  unrolled over its sorted support levels, inserting pass-through slots
  for skipped variables so every row takes exactly ``|support|`` steps.
  Slot ids are pre-doubled, which folds the branch select into the table
  index, so one level costs just two vectorised passes over the batch —
  ``state += bit; state = children[state]`` — with no masking, no
  compaction and no per-row Python;
- the **pointer-chasing kernel** (fallback for diagrams whose levelized
  table would be degenerate): follows ``lo``/``hi`` edges directly with
  an active-row mask, ``O(P · depth)`` element operations.

The registry adds a **bit-parallel** backend (64 patterns per uint64
lane) and a **codegen** backend (the levelized plan emitted as C,
compiled with cc and loaded with ctypes); ``evaluate_batch(kernel=...)``
accepts any registered backend name, ``"auto"`` applies the policy of
:func:`repro.dd.backends.select_backend`.

The node store of a :class:`~repro.dd.manager.DDManager` is append-only
(existing nodes are never mutated), so a compiled form stays valid for
the lifetime of the manager and can be cached freely.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import time

import numpy as np

from repro.errors import BackendError, DDError
from repro.obs.metrics import get_metrics
from repro.obs.trace import get_tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.dd.manager import DDManager

# Telemetry instruments: one counter bump per *batch* (never per row),
# so the default-off overhead stays in the noise.
_MET = get_metrics()
_COMPILE_COUNT = _MET.counter("compiled.compile.count")
_COMPILE_NODES = _MET.histogram(
    "compiled.compile.nodes", (8, 32, 128, 512, 2_048, 8_192, 32_768, 131_072)
)
_EVAL_BATCHES = _MET.counter("compiled.eval.batches")
_EVAL_ROWS = _MET.counter("compiled.eval.rows")
_EVAL_LEVELIZED = _MET.counter("compiled.eval.levelized_batches")
_EVAL_POINTER = _MET.counter("compiled.eval.pointer_batches")
_EVAL_SECONDS = _MET.histogram(
    "compiled.eval.seconds",
    (1e-5, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.5, 1.0, 10.0),
)
_EVAL_ROWS_PER_SEC = _MET.gauge("compiled.eval.rows_per_sec", kind="last")

#: Abandon the levelized plan when its slot table would exceed this many
#: entries (a pathological wide-cut diagram); the pointer kernel still
#: evaluates such diagrams correctly.
LEVELIZED_SLOT_LIMIT = 4_000_000


def coerce_matrix(matrix: np.ndarray) -> np.ndarray:
    """Canonicalise a pattern batch to a C-contiguous 0/1 bool matrix.

    Returns the input object itself when it is already clean (bool dtype,
    C-contiguous) — the serving hot path must not pay a copy per batch —
    and otherwise exactly one converted copy: ``!= 0`` maps any integer
    or float dtype (int8 wire payloads included) onto {False, True}, and
    sliced / transposed / Fortran-ordered views are compacted so the
    kernels can index without numpy's implicit casts.  A ``(0, n)``
    empty batch passes through with dtype and layout normalised but no
    special casing.
    """
    if matrix.dtype != np.bool_:
        matrix = matrix != 0
    if not matrix.flags.c_contiguous:
        matrix = np.ascontiguousarray(matrix)
    return matrix


class CompiledDD:
    """One diagram root flattened into dense, contiguous numpy tables.

    Attributes
    ----------
    var, lo, hi:
        Per-node int32 arrays.  Terminals self-loop (``lo == hi == id``)
        and carry a dummy variable index 0, so the traversal kernel needs
        no special casing: once a row hits a leaf, further steps keep it
        there.
    values:
        Per-node float64 array; terminal value at leaves, NaN elsewhere.
    is_leaf:
        Per-node bool mask of terminals.
    root:
        Dense id of the compiled root.
    depth:
        Longest root-to-leaf path (decision nodes on it) — the maximum
        number of kernel steps any row can need.
    support:
        Sorted int32 array of variable indices the function depends on.
    """

    __slots__ = (
        "var",
        "lo",
        "hi",
        "values",
        "is_leaf",
        "root",
        "depth",
        "support",
        "_lev_children",
        "_lev_values",
        "_lev_tables",
        "_lev_final_values",
        "_backend_state",
    )

    def __init__(
        self,
        var: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        values: np.ndarray,
        is_leaf: np.ndarray,
        root: int,
        depth: int,
        support: np.ndarray,
    ):
        self.var = var
        self.lo = lo
        self.hi = hi
        self.values = values
        self.is_leaf = is_leaf
        self.root = root
        self.depth = depth
        self.support = support
        self._lev_children: np.ndarray | None = None
        self._lev_values: np.ndarray | None = None
        self._lev_tables: list[np.ndarray] | None = None
        self._lev_final_values: np.ndarray | None = None
        # Per-backend prepared state (bit-parallel gather plans, compiled
        # codegen kernels, the last auto-selection logged) — owned by
        # :mod:`repro.dd.backends`, keyed by backend name.
        self._backend_state: dict = {}
        self._build_levelized()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def compile(cls, manager: "DDManager", root: int) -> "CompiledDD":
        """Flatten the diagram rooted at ``root`` into array form."""
        with get_tracer().span("compiled.compile") as span:
            compiled = cls._compile(manager, root)
            span.set("nodes", compiled.num_nodes)
            span.set("depth", compiled.depth)
        _COMPILE_COUNT.inc()
        _COMPILE_NODES.observe(compiled.num_nodes)
        return compiled

    @classmethod
    def _compile(cls, manager: "DDManager", root: int) -> "CompiledDD":
        order = list(manager.iter_nodes(root))
        index = {node: k for k, node in enumerate(order)}
        count = len(order)
        var = np.zeros(count, dtype=np.int32)
        lo = np.zeros(count, dtype=np.int32)
        hi = np.zeros(count, dtype=np.int32)
        values = np.full(count, np.nan, dtype=np.float64)
        is_leaf = np.zeros(count, dtype=bool)
        for node, k in index.items():
            if manager.is_terminal(node):
                is_leaf[k] = True
                values[k] = manager.value(node)
                lo[k] = hi[k] = k
            else:
                var[k] = manager.top_var(node)
                lo[k] = index[manager.lo(node)]
                hi[k] = index[manager.hi(node)]
        # Longest path: children always sit on strictly larger levels, so
        # sorting by level descending (terminals use a dummy level but are
        # depth 0 anyway) visits children before parents.
        levels = np.where(is_leaf, np.iinfo(np.int32).max, var)
        depth_of = np.zeros(count, dtype=np.int64)
        for k in np.argsort(-levels, kind="stable"):
            if not is_leaf[k]:
                depth_of[k] = 1 + max(depth_of[lo[k]], depth_of[hi[k]])
        support = np.unique(var[~is_leaf]).astype(np.int32)
        return cls(
            var,
            lo,
            hi,
            values,
            is_leaf,
            index[root],
            int(depth_of[index[root]]),
            support,
        )

    # ------------------------------------------------------------------
    # Levelized plan
    # ------------------------------------------------------------------
    def _build_levelized(self) -> None:
        """Unroll the diagram over its sorted support levels.

        At each level ``t`` (variable ``support[t]``) the set of *live*
        nodes is the cut of the diagram at that level: nodes testing the
        level's variable branch to their children, every other live node
        (a deeper node or a terminal) passes through unchanged.  Each
        live node gets a level-local slot; slot ids are stored
        pre-doubled so ``children[slot + bit]`` resolves the next level's
        (doubled, globally offset) slot in a single gather.  After the
        last level every live node is a terminal; ``_lev_values`` maps
        the final slots to their terminal values.
        """
        var, lo, hi, is_leaf = self.var, self.lo, self.hi, self.is_leaf
        if not self.support.size:
            return
        live: dict = {int(self.root): 0}
        tables = []
        total = 0
        for v in self.support:
            succ: dict = {}
            table = np.empty(2 * len(live), dtype=np.int32)
            for node, slot in live.items():
                if not is_leaf[node] and var[node] == v:
                    children = (int(lo[node]), int(hi[node]))
                else:
                    children = (node, node)
                for bit, child in enumerate(children):
                    nxt = succ.get(child)
                    if nxt is None:
                        nxt = succ[child] = len(succ)
                    table[2 * slot + bit] = nxt
            tables.append(table)
            live = succ
            total += len(table)
            if total + 2 * len(live) > LEVELIZED_SLOT_LIMIT:
                return  # degenerate width; keep the pointer kernel
        # Flatten: slot s of level t becomes global doubled id
        # offset[t] + 2*s, so table entries only need the next offset.
        flat = np.empty(total, dtype=np.int32)
        offset = 0
        for table in tables:
            end = offset + len(table)
            flat[offset:end] = end + 2 * table
            offset = end
        # Final ids land in [total, total + 2*len(live)); only that tail
        # of the value table is ever gathered.
        values = np.full(total + 2 * len(live), np.nan, dtype=np.float64)
        final_values = np.empty(len(live), dtype=np.float64)
        for node, slot in live.items():
            values[total + 2 * slot] = values[total + 2 * slot + 1] = self.values[node]
            final_values[slot] = self.values[node]
        self._lev_children = flat
        self._lev_values = values
        # Per-level *local* tables plus per-final-slot values: the
        # bit-parallel backend needs level granularity (one OR-scatter per
        # level) and the codegen backend needs the plan re-emittable, so
        # both views of the same plan are kept.
        self._lev_tables = tables
        self._lev_final_values = final_values

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Nodes in the compiled diagram (terminals included)."""
        return len(self.var)

    def min_width(self) -> int:
        """Smallest assignment width this diagram can be evaluated on."""
        return int(self.support[-1]) + 1 if self.support.size else 0

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate_batch(self, assignments, kernel: str = "auto") -> np.ndarray:
        """Evaluate a ``(P, num_vars)`` 0/1 batch; returns ``(P,)`` floats.

        All support columns are validated before any work happens, so a
        too-narrow matrix (or an unknown backend name) raises without
        producing partial results.

        ``kernel`` selects the traversal strategy: any name registered in
        :mod:`repro.dd.backends` (``"levelized"``, ``"pointer"``,
        ``"bitparallel"``, ``"codegen"``) forces that backend — used by
        the differential-testing harness to cross-check implementations
        on identical inputs — and ``"auto"`` (default) applies the
        selection policy of :func:`repro.dd.backends.select_backend`,
        honouring the ``REPRO_EVAL_BACKEND`` environment override.
        Unknown names raise :class:`~repro.errors.BackendError`.
        """
        from repro.dd import backends as _backends

        forced = None if kernel == "auto" else _backends.get_backend(kernel)
        matrix = np.asarray(assignments)
        if matrix.ndim != 2:
            raise DDError("assignments must be a (P, num_vars) matrix")
        if self.support.size and matrix.shape[1] <= int(self.support[-1]):
            raise DDError(
                f"assignments lack variable column {int(self.support[-1])}"
            )
        rows = matrix.shape[0]
        if rows == 0:
            return np.empty(0, dtype=np.float64)
        if not self.support.size:
            return np.full(rows, self.values[self.root], dtype=np.float64)
        if forced is not None:
            backend = forced
            if not backend.supports(self):
                raise BackendError(
                    f"backend {backend.name!r} cannot evaluate this diagram "
                    "(no levelized plan: width over the slot limit)"
                )
        else:
            backend = _backends.select_backend(self, rows)
        # Canonicalise dtype and layout once per batch (the serving hot
        # path calls this with whatever the wire format produced); the
        # backends then index without numpy's implicit casts/copies.
        matrix = coerce_matrix(matrix)
        started = time.perf_counter()
        result = backend.evaluate(self, matrix)
        elapsed = time.perf_counter() - started
        if backend.name == "levelized":
            _EVAL_LEVELIZED.inc()
        elif backend.name == "pointer":
            _EVAL_POINTER.inc()
        _backends.record_batch(backend.name, rows)
        _EVAL_BATCHES.inc()
        _EVAL_ROWS.inc(rows)
        _EVAL_SECONDS.observe(elapsed)
        if elapsed > 0.0:
            _EVAL_ROWS_PER_SEC.set(rows / elapsed)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.event(
                "compiled.eval",
                rows=rows,
                kernel=backend.name,
                seconds=elapsed,
            )
        return result

    def _evaluate_levelized(self, matrix: np.ndarray) -> np.ndarray:
        """Two vectorised passes per support level, no masking.

        ``state`` holds pre-doubled slot ids, so selecting a branch is
        ``state += bit`` and descending one level is one table gather.
        Rows that reach a terminal early ride pass-through slots to the
        bottom, which keeps the kernel branch-free.
        """
        rows = matrix.shape[0]
        # (L, P) bit matrix, one contiguous row per support level
        # (evaluate_batch already canonicalised the input to bool).
        bits = matrix.T[self.support].astype(np.int32)
        children = self._lev_children
        state = np.zeros(rows, dtype=np.int32)  # root slot: global id 0
        scratch = np.empty(rows, dtype=np.int32)
        for t in range(len(self.support)):
            np.add(state, bits[t], out=state)
            np.take(children, state, out=scratch)
            state, scratch = scratch, state
        return self._lev_values[state]

    def _evaluate_pointer(self, matrix: np.ndarray) -> np.ndarray:
        """Masked pointer-chasing fallback, ``O(P · depth)`` element ops.

        Rows that reach a leaf drop out of the active set, so shallow
        paths are not charged for the full depth.
        """
        rows = matrix.shape[0]
        bits = matrix  # canonical bool, courtesy of evaluate_batch
        var, lo, hi, is_leaf = self.var, self.lo, self.hi, self.is_leaf
        state = np.full(rows, self.root, dtype=np.int32)
        active = np.arange(rows)
        if is_leaf[self.root]:
            active = active[:0]
        while active.size:
            current = state[active]
            chosen = bits[active, var[current]]
            current = np.where(chosen, hi[current], lo[current])
            state[active] = current
            active = active[~is_leaf[current]]
        return self.values[state]

    def evaluate(self, assignment) -> float:
        """Single-row convenience wrapper around :meth:`evaluate_batch`."""
        return float(self.evaluate_batch(np.asarray(assignment)[None, :])[0])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledDD(nodes={self.num_nodes}, depth={self.depth}, "
            f"support={self.support.size})"
        )


def compile_dd(manager: "DDManager", root: int) -> CompiledDD:
    """Functional alias for :meth:`CompiledDD.compile`."""
    return CompiledDD.compile(manager, root)
