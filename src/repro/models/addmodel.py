"""The paper's contribution: analytical ADD-based power models.

:func:`build_add_model` implements the iterative symbolic construction of
Figure 6: for each gate ``g_j`` of the golden netlist it forms the BDD
product ``g_j'(x_i) * g_j(x_f)`` (a rising-output indicator), scales it by
the gate's load ``C_j``, and accumulates the result into the switching-
capacitance ADD ``C(x_i, x_f)``.  Whenever an intermediate ADD exceeds the
size budget ``MAX``, it is compressed by node collapsing
(:func:`repro.dd.approx.approximate`) with the chosen strategy:

- ``avg``  — average-preserving approximation (accurate average power);
- ``max``  — conservative approximation (pattern-dependent upper bound);
- ``min``  — conservative lower bound (dual extension);
- ``None`` max_nodes — exact model, bit-true to gate-level simulation.

No simulation is involved anywhere: the model is *characterization-free*.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import time
from collections import deque
from multiprocessing import connection as _mp_connection
from dataclasses import dataclass, field
from typing import Dict, List, Literal, Optional, Sequence, Tuple, Union

import numpy as np

from repro.dd.approx import Strategy, WeightFn, approximate, node_weights
from repro.dd.compiled import CompiledDD
from repro.dd.manager import DDManager
from repro.dd.ordering import Scheme, TransitionSpace, fanin_dfs_input_order
from repro.dd.stats import compute_stats, function_stats
from repro.errors import (
    BuildTimeoutError,
    ModelError,
    WorkerCrashError,
)
from repro.models.base import PowerModel
from repro.netlist.netlist import Netlist
from repro.netlist.symbolic import build_node_functions
from repro.obs.metrics import SIZE_BUCKETS, TIME_BUCKETS, get_metrics
from repro.obs.report import BuildTelemetry
from repro.obs.trace import get_tracer
from repro.testing import faults

_LOG = logging.getLogger("repro.models.addmodel")

_MET = get_metrics()
_BUILD_COUNT = _MET.counter("add.build.count")
_BUILD_GATES = _MET.counter("add.build.gates")
_BUILD_APPROX = _MET.counter("add.build.approximations")
_BUILD_SECONDS = _MET.histogram("add.build.seconds", TIME_BUCKETS)
_BUILD_NODES_FINAL = _MET.histogram("add.build.nodes_final", SIZE_BUCKETS)
_BUILD_NODES_PEAK = _MET.gauge("add.build.nodes_peak")
_CACHE_HITS = _MET.counter("dd.apply.cache_hits")
_CACHE_MISSES = _MET.counter("dd.apply.cache_misses")
_CACHE_EVICTIONS = _MET.counter("dd.apply.cache_evictions")
_MANAGER_MEMORY = _MET.gauge("dd.manager.memory_bytes_peak")
_WORKER_CRASHES = _MET.counter("build.worker.crashes")
_WORKER_TIMEOUTS = _MET.counter("build.worker.timeouts")
_WORKER_RETRIES = _MET.counter("build.worker.retries")
_INPROCESS_FALLBACKS = _MET.counter("build.inprocess_fallbacks")
_POOL_FALLBACKS = _MET.counter("build.pool_fallbacks")
_DEGRADED_BUILDS = _MET.counter("build.degraded.count")


def markov_node_weights(
    manager: DDManager,
    root: int,
    space: TransitionSpace,
    sp: float,
    st: float,
) -> Dict[int, float]:
    """Per-node visit mass under independent per-bit Markov input statistics.

    The uniform :func:`repro.dd.approx.node_weights` weighs every branch
    1/2; here ``x_i`` branches carry probability ``sp`` and ``x_f``
    branches the chain's conditional toggle probabilities, so a node's
    weight is the fraction of *operating* transitions that reach it.
    Requires the interleaved variable order (the ``x_f`` conditional
    needs its ``x_i`` partner to sit directly above).
    """
    if space.scheme != "interleaved":
        raise ModelError("markov weights require the interleaved order")
    p01 = st / (2.0 * (1.0 - sp)) if sp < 1.0 else 0.0
    p10 = st / (2.0 * sp) if sp > 0.0 else 0.0
    n = space.num_inputs
    xi_position = {space.xi(k): k for k in range(n)}

    nodes = [u for u in manager.iter_nodes(root) if not manager.is_terminal(u)]
    nodes.sort(key=manager.top_var)
    # Mass per (node, pending-xi-bit) state; -1 = no pending conditioning.
    mass: Dict[tuple, float] = {(root, -1): 1.0}
    weights: Dict[int, float] = {u: 0.0 for u in nodes}
    for node in nodes:
        var = manager.top_var(node)
        lo, hi = manager.lo(node), manager.hi(node)
        for pending in (-1, 0, 1):
            amount = mass.pop((node, pending), 0.0)
            if amount == 0.0:
                continue
            weights[node] += amount
            if var in xi_position:
                xf_var = space.xf(xi_position[var])
                lo_state = 0 if manager.top_var(lo) == xf_var else -1
                hi_state = 1 if manager.top_var(hi) == xf_var else -1
                branches = (
                    (lo, lo_state, 1.0 - sp),
                    (hi, hi_state, sp),
                )
            else:
                if pending == 1:
                    p_one = 1.0 - p10
                elif pending == 0:
                    p_one = p01
                else:
                    p_one = sp
                branches = ((lo, -1, 1.0 - p_one), (hi, -1, p_one))
            for child, state, probability in branches:
                if not manager.is_terminal(child):
                    key = (child, state)
                    mass[key] = mass.get(key, 0.0) + amount * probability
    return weights


def mixture_weight_fn(
    space: TransitionSpace,
    components: Sequence[tuple] = ((0.5, 0.5), (0.5, 0.15), (0.5, 0.05)),
) -> WeightFn:
    """Weight callback for :func:`repro.dd.approx.approximate`.

    Averages node masses over several ``(sp, st)`` operating points, so
    collapse selection minimises the approximation error across the whole
    statistics range instead of only the uniform point.  The default
    mixture of the uniform point and a low-activity point is what keeps
    the Fig.-7a error curve flat at small ``st`` (where the true power is
    tiny and uniform weighting would sacrifice exactly that region).
    """

    def compute(manager: DDManager, root: int) -> Dict[int, float]:
        combined: Dict[int, float] = {}
        share = 1.0 / len(components)
        for sp, st in components:
            for node, weight in markov_node_weights(
                manager, root, space, sp, st
            ).items():
                combined[node] = combined.get(node, 0.0) + share * weight
        return combined

    return compute


#: Compat alias: the per-build record moved to the telemetry subsystem as
#: :class:`repro.obs.report.BuildTelemetry`.  Existing imports
#: (``from repro.models import BuildReport``) keep working unchanged.
BuildReport = BuildTelemetry


class AddPowerModel(PowerModel):
    """Pattern-dependent RTL power model backed by one ADD.

    Evaluation is a root-to-leaf walk — linear in the number of inputs,
    the "negligible time" run-time cost the paper advertises.
    """

    def __init__(
        self,
        macro_name: str,
        space: TransitionSpace,
        root: int,
        strategy: str = "avg",
        report: Optional[BuildReport] = None,
        input_names: Optional[Sequence[str]] = None,
    ):
        """``input_names`` fixes the *external* pattern convention (the
        netlist's primary-input order); the transition space may hold the
        same inputs in a different (DD-ordering-heuristic) order."""
        external = list(input_names) if input_names is not None else list(space.input_names)
        if sorted(external) != sorted(space.input_names):
            raise ModelError(
                "input_names must be a permutation of the space's inputs"
            )
        super().__init__(macro_name, external)
        self.space = space
        self.manager = space.manager
        self.root = root
        self.strategy = strategy
        self.report = report
        position = {name: k for k, name in enumerate(space.input_names)}
        # External input index -> position inside the transition space.
        self._space_position = [position[name] for name in external]
        # DD variable columns of each external input's initial and final
        # bit: the weave of :meth:`_pack_batch`, fixed for the model's life.
        self._xi_cols = np.array(
            [space.xi(pos) for pos in self._space_position], dtype=np.intp
        )
        self._xf_cols = np.array(
            [space.xf(pos) for pos in self._space_position], dtype=np.intp
        )
        #: Weight callback used for any further shrinking of this model.
        self.weight_fn: Optional[WeightFn] = None
        #: Default evaluation backend for :meth:`pair_capacitances` calls
        #: that do not force one ("auto" defers to the compiled layer's
        #: selection policy; see :mod:`repro.dd.backends`).
        self.eval_kernel: str = "auto"
        #: Content hash of the netlist this model was built from (see
        #: :meth:`repro.netlist.netlist.Netlist.content_hash`); rides
        #: through serialisation so the model store can verify that a
        #: cached payload matches the netlist it is being requested for.
        self.source_hash: Optional[str] = None
        # Lazily-built array form of the ADD, keyed by the root it was
        # compiled from so reapproximating (rebinding self.root) invalidates.
        self._compiled: Optional[CompiledDD] = None
        self._compiled_root: Optional[int] = None

    # ------------------------------------------------------------------
    # PowerModel interface
    # ------------------------------------------------------------------
    def switching_capacitance(
        self, initial: Sequence[int], final: Sequence[int]
    ) -> float:
        if len(initial) != self.num_inputs or len(final) != self.num_inputs:
            raise ModelError(
                f"patterns must have {self.num_inputs} bits"
            )
        packed = [0] * (2 * self.num_inputs)
        for k, pos in enumerate(self._space_position):
            packed[self.space.xi(pos)] = int(initial[k])
            packed[self.space.xf(pos)] = int(final[k])
        return self.manager.evaluate(self.root, packed)

    def compiled(self) -> CompiledDD:
        """Array form of the model's ADD (lazy; cached until the root changes)."""
        if self._compiled is None or self._compiled_root != self.root:
            self._compiled = CompiledDD.compile(self.manager, self.root)
            self._compiled_root = self.root
        return self._compiled

    def _pack_batch(self, initial, final) -> np.ndarray:
        """Weave (P, n) initial/final batches into (P, 2n) DD assignments."""
        initial = self._check_width(initial)
        final = self._check_width(final)
        if initial.shape != final.shape:
            raise ModelError("initial and final batches differ in shape")
        packed = np.empty((initial.shape[0], 2 * self.num_inputs), dtype=bool)
        packed[:, self._xi_cols] = initial
        packed[:, self._xf_cols] = final
        return packed

    def pair_capacitances(self, initial, final, kernel: Optional[str] = None) -> np.ndarray:
        """Model capacitance for a batch of ``(initial, final)`` pattern pairs.

        ``kernel`` selects the compiled evaluation backend (see
        :meth:`CompiledDD.evaluate_batch`); ``None`` defers to the model's
        :attr:`eval_kernel` default.  Forcing a named backend always
        compiles, even for tiny batches, so backends can be differenced
        against each other in tests.
        """
        if kernel is None:
            kernel = self.eval_kernel
        packed = self._pack_batch(initial, final)
        # Tiny batches before the first compilation are not worth the
        # O(model size) flattening; everything else goes through the
        # compiled pointer-chasing kernel (O(P · depth) numpy ops).
        if kernel == "auto" and self._compiled is None and packed.shape[0] < 16:
            evaluate = self.manager.evaluate
            root = self.root
            return np.array([evaluate(root, row) for row in packed], dtype=float)
        return self.compiled().evaluate_batch(packed, kernel=kernel)

    def warm_eval_backend(self, kernel: Optional[str] = None) -> str:
        """Pre-pay a backend's one-time setup cost (compile / pack tables).

        Long-lived consumers (the power-query server, sweep runners) call
        this once at load time so the first real batch is served at full
        speed.  Returns the name of the backend that was warmed.  With
        ``kernel=None`` the model's :attr:`eval_kernel` is warmed.
        ``"auto"`` never compiles: it loads the model's codegen kernel
        when the kernel cache holds it (returning ``"codegen"``), and
        otherwise warms the backend the selection policy would pick for
        a large batch.
        """
        from repro.dd import backends as _backends

        if kernel is None:
            kernel = self.eval_kernel
        compiled = self.compiled()
        if kernel == "auto":
            codegen = _backends.get_backend("codegen")
            if codegen.load_cached(compiled):
                return codegen.name
            backend = _backends.select_backend(compiled, rows=1 << 20)
        else:
            backend = _backends.get_backend(kernel)
        backend.warm(compiled)
        return backend.name

    # ------------------------------------------------------------------
    # Analytic queries (no simulation needed)
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Node count of the model (leaves included), the paper's size metric."""
        return self.manager.size(self.root)

    @property
    def is_upper_bound(self) -> bool:
        """True if built with the conservative ``max`` strategy."""
        return self.strategy == "max"

    @property
    def is_lower_bound(self) -> bool:
        """True if built with the conservative ``min`` strategy."""
        return self.strategy == "min"

    def global_maximum(self) -> float:
        """Largest capacitance the model can report.

        For a ``max``-strategy model this is a conservative worst case
        over *all* transitions — the paper's constant bound baseline.
        """
        return function_stats(self.manager, self.root).max

    def global_minimum(self) -> float:
        """Smallest capacitance the model can report."""
        return function_stats(self.manager, self.root).min

    def average_capacitance_uniform(self) -> float:
        """Exact average under uniform independent inputs (Eq. 6 at the root)."""
        return function_stats(self.manager, self.root).avg

    def expected_capacitance(self, sp: float, st: float) -> float:
        """Closed-form expected capacitance under ``(sp, st)`` input statistics.

        Assumes independent per-bit stationary Markov inputs (the
        distribution :func:`repro.sim.sequences.markov_sequence` draws
        from) and walks the ADD once, weighting branches with the chain's
        marginal and conditional probabilities.  An analytical average-
        power predictor with *no* simulation — an extension enabled by the
        white-box model.
        """
        if self.space.scheme != "interleaved":
            raise ModelError(
                "expected_capacitance requires the interleaved variable order"
            )
        from repro.sim.sequences import feasible_st_range

        low, high = feasible_st_range(sp)
        if not low <= st <= high + 1e-12:
            raise ModelError(f"st={st} infeasible for sp={sp}")
        p01 = st / (2.0 * (1.0 - sp)) if sp < 1.0 else 0.0
        p10 = st / (2.0 * sp) if sp > 0.0 else 0.0
        manager = self.manager
        n = self.num_inputs
        # xi variable index -> input position k (to locate its xf partner).
        xi_position = {self.space.xi(k): k for k in range(n)}

        memo: Dict[tuple, float] = {}

        def walk(node: int, pending_bit: int) -> float:
            """Expected value below ``node``.

            ``pending_bit`` is -1 if no xi-branch is awaiting its xf
            partner, else the 0/1 value just taken by the partner xi
            variable of the *next* xf level.
            """
            key = (node, pending_bit)
            hit = memo.get(key)
            if hit is not None:
                return hit
            if manager.is_terminal(node):
                result = manager.value(node)
            else:
                var = manager.top_var(node)
                lo, hi = manager.lo(node), manager.hi(node)
                if var in xi_position:
                    k = xi_position[var]
                    xf_var = self.space.xf(k)
                    lo_pending = 0 if manager.top_var(lo) == xf_var else -1
                    hi_pending = 1 if manager.top_var(hi) == xf_var else -1
                    result = (1.0 - sp) * walk(lo, lo_pending) + sp * walk(
                        hi, hi_pending
                    )
                else:
                    if pending_bit == 1:
                        p_one = 1.0 - p10
                    elif pending_bit == 0:
                        p_one = p01
                    else:
                        # xi partner skipped: function independent of it,
                        # so the marginal P(xf = 1) = sp applies.
                        p_one = sp
                    result = (1.0 - p_one) * walk(lo, -1) + p_one * walk(hi, -1)
            memo[key] = result
            return result

        # A root testing an xf variable has its xi partner skipped, so the
        # marginal branch (pending = -1) is the right entry state.
        return walk(self.root, -1)

    def leaf_values(self) -> List[float]:
        """Sorted distinct capacitance levels the model distinguishes."""
        return sorted(self.manager.leaves(self.root))

    def to_dot(self, name: str | None = None) -> str:
        """Graphviz DOT rendering of the model's ADD (Fig. 3b-style)."""
        from repro.dd.dot import to_dot

        safe = (name or self.macro_name).replace("-", "_")
        return to_dot(self.manager, self.root, safe)

    def worst_case_transition(self) -> tuple:
        """A transition attaining the model's global maximum.

        Returns ``(initial, final, capacitance_fF)`` with the patterns in
        this model's external input order.  For an exact model this is a
        true maximum-power vector pair — the answer to the exhaustive
        search the paper calls "unfeasible", extracted from the ADD in
        time linear in its size; for a ``max``-strategy model it is the
        pattern at which the *bound* peaks (a stress-test candidate).
        """
        manager = self.manager
        stats = compute_stats(manager, self.root)
        assignment: Dict[int, int] = {}
        node = self.root
        while not manager.is_terminal(node):
            lo, hi = manager.lo(node), manager.hi(node)
            branch = int(stats[hi].max >= stats[lo].max)
            assignment[manager.top_var(node)] = branch
            node = hi if branch else lo
        initial = [0] * self.num_inputs
        final = [0] * self.num_inputs
        for k, pos in enumerate(self._space_position):
            initial[k] = assignment.get(self.space.xi(pos), 0)
            final[k] = assignment.get(self.space.xf(pos), 0)
        return initial, final, manager.value(node)

    def quietest_transition(self) -> tuple:
        """A transition attaining the model's global minimum (dual query)."""
        manager = self.manager
        stats = compute_stats(manager, self.root)
        assignment: Dict[int, int] = {}
        node = self.root
        while not manager.is_terminal(node):
            lo, hi = manager.lo(node), manager.hi(node)
            branch = int(stats[hi].min < stats[lo].min)
            assignment[manager.top_var(node)] = branch
            node = hi if branch else lo
        initial = [0] * self.num_inputs
        final = [0] * self.num_inputs
        for k, pos in enumerate(self._space_position):
            initial[k] = assignment.get(self.space.xi(pos), 0)
            final[k] = assignment.get(self.space.xf(pos), 0)
        return initial, final, manager.value(node)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<AddPowerModel macro={self.macro_name!r} strategy={self.strategy} "
            f"size={self.size}>"
        )


def build_add_model(
    netlist: Netlist,
    max_nodes: Optional[int] = None,
    strategy: Strategy = "avg",
    scheme: Scheme = "interleaved",
    input_order: Optional[Sequence[str]] = None,
    accumulation: Literal["tree", "linear"] = "tree",
) -> AddPowerModel:
    """Analytically construct the switching-capacitance ADD (paper Fig. 6).

    Parameters
    ----------
    netlist:
        Golden model: mapped gate-level netlist with load capacitances.
    max_nodes:
        The paper's ``MAX``: intermediate and final ADDs are compressed by
        node collapsing whenever they exceed this node count.  ``None``
        builds the exact model (gate-level-simulation accuracy).
    strategy:
        Collapse strategy; ``avg`` for average-accurate models, ``max``
        for conservative upper bounds, ``min`` for lower bounds.
    scheme:
        Variable interleaving for the doubled input space.
    input_order:
        Optional explicit primary-input order; defaults to the fanin-DFS
        heuristic over the netlist.
    accumulation:
        ``"tree"`` (default) sums the per-gate contributions pairwise in a
        balanced tree; ``"linear"`` follows the paper's Fig.-6 loop
        verbatim.  Both compute the same function and preserve the same
        conservatism/average invariants; the tree is asymptotically
        cheaper under a size budget.

    Returns the model; build metadata is attached as ``model.report``.
    """
    if max_nodes is not None and max_nodes < 1:
        raise ModelError(f"max_nodes must be >= 1, got {max_nodes}")
    if accumulation not in ("tree", "linear"):
        raise ModelError(f"unknown accumulation mode {accumulation!r}")
    if netlist.num_inputs == 0:
        raise ModelError("cannot model a netlist with no inputs")
    if max_nodes is None:
        # Chaos hook: an unbudgeted exact construction is where hostile
        # netlists blow up; the injected failure stands in for that.
        faults.maybe_fail("build.blowup")
    started = time.perf_counter()
    tracer = get_tracer()

    if input_order is None:
        order = fanin_dfs_input_order(
            netlist.outputs, netlist.fanin_map(), netlist.inputs
        )
    else:
        if sorted(input_order) != sorted(netlist.inputs):
            raise ModelError(
                "input_order must be a permutation of the netlist inputs"
            )
        order = list(input_order)

    with tracer.span(
        "add.build", macro=netlist.name, strategy=strategy
    ) as build_span:
        space = TransitionSpace(order, scheme)
        manager = space.manager
        cache_before = manager.cache_stats()
        position = {name: k for k, name in enumerate(order)}
        xi_vars = {name: space.xi(position[name]) for name in netlist.inputs}
        xf_vars = {name: space.xf(position[name]) for name in netlist.inputs}

        # Two symbolic sweeps: node functions over the x_i copy and the x_f
        # copy of the inputs (equivalent to the paper's g(x_i) / g(x_f)).
        with tracer.span("add.build.functions", copy="xi"):
            functions_i = build_node_functions(netlist, manager, xi_vars)
        with tracer.span("add.build.functions", copy="xf"):
            functions_f = build_node_functions(netlist, manager, xf_vars)

        loads = netlist.load_capacitances()
        peak = 1
        num_approx = 0
        # Hysteresis: compress below the budget so the very next addition does
        # not immediately trigger another approximation round.  The model still
        # never exceeds max_nodes; it just is not re-approximated every sum.
        compress_target = max(1, (3 * max_nodes) // 4) if max_nodes is not None else None

        # Collapse selection minimises error over a mixture of operating
        # statistics (uniform + low activity) rather than the uniform point
        # alone; see mixture_weight_fn.  Blocked-order models fall back to
        # uniform weights.
        weight_fn = mixture_weight_fn(space) if scheme == "interleaved" else None

        def bounded(node: int, limit: Optional[int]) -> int:
            nonlocal peak, num_approx
            if max_nodes is None:
                return node
            size = manager.size(node)
            peak = max(peak, size)
            if size > max_nodes:
                node = approximate(manager, node, limit, strategy, weight_fn=weight_fn)
                num_approx += 1
            return node

        # Per-gate contributions g_j'(x_i) * g_j(x_f) * C_j (paper Fig. 6).
        deltas = []
        with tracer.span("add.build.deltas"):
            for gate in netlist.topological_order():
                load = loads[gate.name]
                if load == 0.0:
                    continue  # gate with no fanout cannot draw structural power
                g_i = functions_i[gate.output]
                g_f = functions_f[gate.output]
                rising = manager.bdd_and(manager.bdd_not(g_i), g_f)
                deltas.append(
                    bounded(manager.add_const_times(rising, load), max_nodes)
                )

        with tracer.span("add.build.accumulate", mode=accumulation):
            if accumulation == "linear":
                # Verbatim Fig.-6 loop: one running sum, compressed on overflow.
                total = manager.zero
                for delta in deltas:
                    total = bounded(manager.add_plus(total, delta), compress_target)
            else:
                # Balanced-tree accumulation: algebraically identical (addition is
                # associative, and the collapse strategies commute with addition:
                # avg(a)+avg(b) = avg(a+b), max(a)+max(b) >= max(a+b)), but only
                # O(log N) of the partial sums are budget-sized instead of O(N),
                # which is what makes 1000-gate circuits tractable in pure Python.
                layer: List[int] = deltas if deltas else [manager.zero]
                while len(layer) > 1:
                    next_layer: List[int] = []
                    for k in range(0, len(layer) - 1, 2):
                        merged = manager.add_plus(layer[k], layer[k + 1])
                        next_layer.append(bounded(merged, compress_target))
                    if len(layer) % 2:
                        next_layer.append(layer[-1])
                    layer = next_layer
                total = layer[0]
        final_size = manager.size(total)
        peak = max(peak, final_size)
        cache_after = manager.cache_stats()
        if tracer.enabled:
            build_span.update(
                num_gates=netlist.num_gates,
                final_nodes=final_size,
                peak_nodes=peak,
                approximations=num_approx,
                cache=cache_after.summary(),
            )
    elapsed = time.perf_counter() - started
    report = BuildTelemetry(
        macro_name=netlist.name,
        strategy=strategy,
        max_nodes=max_nodes,
        final_nodes=final_size,
        peak_nodes=peak,
        num_approximations=num_approx,
        cpu_seconds=elapsed,
        num_gates=netlist.num_gates,
        cache_hits=cache_after.hits - cache_before.hits,
        cache_misses=cache_after.misses - cache_before.misses,
    )
    _BUILD_COUNT.inc()
    _BUILD_GATES.inc(netlist.num_gates)
    _BUILD_APPROX.inc(num_approx)
    _BUILD_SECONDS.observe(elapsed)
    _BUILD_NODES_FINAL.observe(final_size)
    _BUILD_NODES_PEAK.update_max(peak)
    _CACHE_HITS.inc(report.cache_hits)
    _CACHE_MISSES.inc(report.cache_misses)
    _CACHE_EVICTIONS.inc(
        max(0, cache_after.evictions - cache_before.evictions)
    )
    if _MET.detailed:
        _MANAGER_MEMORY.update_max(manager.memory_estimate_bytes())
    model = AddPowerModel(
        netlist.name, space, total, strategy, report, input_names=netlist.inputs
    )
    model.weight_fn = weight_fn
    model.source_hash = netlist.content_hash()
    return model


def shrink_model(model: AddPowerModel, max_nodes: int) -> AddPowerModel:
    """Further compress an existing model to a smaller size budget.

    Reuses the model's own strategy, so bound models stay conservative.
    Used by the size/accuracy trade-off experiment (Fig. 7b) to derive a
    whole family of models from one exact construction.
    """
    if model.strategy == "random":
        raise ModelError("cannot meaningfully shrink a random-strategy model")
    root = approximate(
        model.manager,
        model.root,
        max_nodes,
        model.strategy,
        weight_fn=model.weight_fn,
    )
    shrunk = AddPowerModel(
        model.macro_name,
        model.space,
        root,
        model.strategy,
        model.report,
        input_names=model.input_names,
    )
    shrunk.weight_fn = model.weight_fn
    shrunk.source_hash = model.source_hash
    return shrunk


# ---------------------------------------------------------------------------
# Parallel model construction
# ---------------------------------------------------------------------------
#: One parallel-build job: a netlist, optionally paired with per-job
#: keyword overrides for :func:`build_add_model`.
BuildJob = Union[Netlist, Tuple[Netlist, dict]]


def _parallel_build_worker(payload: Tuple[Netlist, dict]) -> dict:
    """Build one model in a worker process and ship it back as JSON data.

    ``DDManager`` node ids are process-local, so the model cannot cross
    the process boundary directly; the serialisation round trip through
    :mod:`repro.models.serialize` rebuilds an identical canonical diagram
    in the parent's manager.  The worker's metric increments are likewise
    process-local, so the per-build delta of the worker registry rides
    along and is merged into the parent registry by the caller.
    """
    from repro.models.serialize import model_to_dict

    netlist, kwargs = payload
    before = _MET.snapshot()
    model_dict = model_to_dict(build_add_model(netlist, **kwargs))
    return {
        "model": model_dict,
        "metrics": _MET.diff(before, _MET.snapshot()),
    }


def _restore_weight_fn(model: AddPowerModel) -> AddPowerModel:
    """Reattach the (unpicklable) collapse-weight callback after transfer."""
    if model.space.scheme == "interleaved":
        model.weight_fn = mixture_weight_fn(model.space)
    return model


@dataclass
class BuildOutcome:
    """Per-job result of a supervised parallel build.

    ``status`` records how the model was obtained:

    - ``"ok"`` — built by a worker (or directly, in sequential mode);
    - ``"fallback"`` — the worker failed but an in-process rebuild with
      the *same* configuration succeeded;
    - ``"degraded"`` — only a ``max_nodes``-collapsed build succeeded;
      ``effective_kwargs`` holds the configuration actually used;
    - ``"failed"`` — every rung of the ladder failed; ``model`` is None.
    """

    index: int
    model: Optional[AddPowerModel]
    status: str
    attempts: int = 1
    error: Optional[str] = None
    failure_kind: Optional[str] = None
    exception: Optional[BaseException] = None
    effective_kwargs: Dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.model is not None

    def raise_error(self) -> None:
        """Raise the typed error for a failed outcome (no-op when ok)."""
        if self.model is not None:
            return
        if self.exception is not None:
            raise self.exception
        message = self.error or "parallel model build failed"
        if self.failure_kind == "timeout":
            raise BuildTimeoutError(message)
        if self.failure_kind == "crash":
            raise WorkerCrashError(message)
        raise ModelError(message)


def _supervised_entry(conn, payload: Tuple[Netlist, dict], attempt: int) -> None:
    """Child-process entry point for one supervised build job.

    Ships ``("ok", worker_result)`` or ``("error", message)`` back over
    the pipe; a crash (or injected ``os._exit``) surfaces to the
    supervisor as EOF on the pipe instead.
    """
    try:
        faults.maybe_delay("build.worker.hang", token=attempt)
        if faults.fires("build.worker.crash", token=attempt):
            os._exit(1)
        result = _parallel_build_worker(payload)
    except BaseException as exc:  # noqa: BLE001 - must cross the pipe
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except Exception:  # pragma: no cover - parent already gone
            pass
    else:
        conn.send(("ok", result))
    finally:
        conn.close()


def _stop_worker(process) -> None:
    """Terminate a worker, escalating to SIGKILL if it ignores SIGTERM."""
    process.terminate()
    process.join(1.0)
    if process.is_alive():  # pragma: no cover - SIGTERM normally suffices
        process.kill()
        process.join()


def _supervise_jobs(
    normalized: Sequence[Tuple[Netlist, dict]],
    processes: int,
    job_timeout_s: Optional[float],
    max_retries: int,
    context,
) -> Dict[int, Tuple[str, object, int]]:
    """Dispatch jobs to per-job worker processes under supervision.

    Each job gets its own process and pipe, a wall-time budget, and up to
    ``max_retries`` relaunches after a crash or timeout.  Returns, per
    job index, ``(kind, payload, attempts)`` where kind is ``"ok"``
    (payload = worker result dict), ``"error"`` (the build itself raised;
    not retried — it is deterministic), ``"crash"`` or ``"timeout"``.

    Raises OSError only if the *first* worker cannot be started at all
    (no fork/spawn available), so the caller can fall back wholesale to
    sequential building; later launch failures are treated as crashes.
    """
    faults.maybe_fail("build.pool.unavailable")
    pending = deque((index, 1) for index in range(len(normalized)))
    running: Dict[object, Tuple[int, int, object, Optional[float]]] = {}
    results: Dict[int, Tuple[str, object, int]] = {}
    launched_any = False

    def launch(index: int, attempt: int) -> None:
        nonlocal launched_any
        recv_conn, send_conn = context.Pipe(duplex=False)
        process = context.Process(
            target=_supervised_entry,
            args=(send_conn, normalized[index], attempt),
            daemon=True,
        )
        try:
            process.start()
        except OSError:
            recv_conn.close()
            send_conn.close()
            raise
        launched_any = True
        send_conn.close()
        deadline = (
            None if job_timeout_s is None else time.monotonic() + job_timeout_s
        )
        running[recv_conn] = (index, attempt, process, deadline)

    def record_failure(index: int, attempt: int, kind: str, message: str) -> None:
        if kind == "crash":
            _WORKER_CRASHES.inc()
        elif kind == "timeout":
            _WORKER_TIMEOUTS.inc()
        if attempt <= max_retries:
            _WORKER_RETRIES.inc()
            pending.append((index, attempt + 1))
        else:
            results[index] = (kind, message, attempt)

    try:
        while pending or running:
            while pending and len(running) < processes:
                index, attempt = pending.popleft()
                try:
                    launch(index, attempt)
                except OSError as exc:
                    if not launched_any:
                        raise
                    record_failure(
                        index,
                        attempt,
                        "crash",
                        f"worker for job {index} could not start: {exc}",
                    )
            if not running:
                continue
            timeout = None
            deadlines = [
                deadline for (_, _, _, deadline) in running.values()
                if deadline is not None
            ]
            if deadlines:
                timeout = max(0.0, min(deadlines) - time.monotonic())
            ready = _mp_connection.wait(list(running), timeout=timeout)
            for conn in ready:
                index, attempt, process, _ = running.pop(conn)
                try:
                    kind, payload = conn.recv()
                except (EOFError, OSError):
                    kind, payload = "crash", (
                        f"worker for job {index} died before returning "
                        f"(attempt {attempt})"
                    )
                finally:
                    conn.close()
                process.join()
                if kind == "ok":
                    results[index] = ("ok", payload, attempt)
                elif kind == "crash":
                    record_failure(index, attempt, "crash", payload)
                else:
                    # The build itself raised: deterministic, not worth a
                    # worker retry — the in-process ladder handles it.
                    results[index] = ("error", payload, attempt)
            if not ready:
                now = time.monotonic()
                expired = [
                    conn
                    for conn, (_, _, _, deadline) in running.items()
                    if deadline is not None and deadline <= now
                ]
                for conn in expired:
                    index, attempt, process, _ = running.pop(conn)
                    conn.close()
                    _stop_worker(process)
                    record_failure(
                        index,
                        attempt,
                        "timeout",
                        f"worker for job {index} exceeded its "
                        f"{job_timeout_s:g}s budget (attempt {attempt})",
                    )
    finally:
        for conn, (_, _, process, _) in running.items():
            conn.close()
            _stop_worker(process)
    return results


def _try_degraded_build(
    index: int,
    netlist: Netlist,
    kwargs: dict,
    degrade_max_nodes: Optional[int],
    attempts: int,
) -> Optional[BuildOutcome]:
    """Last ladder rung: retry with a (tighter) ``max_nodes`` budget."""
    if degrade_max_nodes is None:
        return None
    current = kwargs.get("max_nodes")
    if current is not None and current <= degrade_max_nodes:
        return None
    degraded_kwargs = dict(kwargs)
    degraded_kwargs["max_nodes"] = degrade_max_nodes
    try:
        model = build_add_model(netlist, **degraded_kwargs)
    except Exception:
        return None
    _DEGRADED_BUILDS.inc()
    return BuildOutcome(
        index,
        model,
        "degraded",
        attempts=attempts,
        effective_kwargs=degraded_kwargs,
    )


def _build_with_ladder(
    index: int,
    netlist: Netlist,
    kwargs: dict,
    degrade_max_nodes: Optional[int],
    *,
    attempts: int = 1,
    failure_kind: Optional[str] = None,
    worker_error: Optional[str] = None,
    skip_exact: bool = False,
) -> BuildOutcome:
    """Run the in-process recovery ladder for one job.

    Used both for plain sequential building (``failure_kind=None``) and
    to recover a job whose supervised worker failed.  A timed-out job
    skips the exact in-process attempt — whatever hung the worker would
    hang the parent too — and goes straight to the degraded budget.
    """
    exception: Optional[BaseException] = None
    if not skip_exact:
        try:
            model = build_add_model(netlist, **kwargs)
        except Exception as exc:  # noqa: BLE001 - ladder decides
            exception = exc
        else:
            status = "ok"
            if failure_kind is not None:
                status = "fallback"
                _INPROCESS_FALLBACKS.inc()
            return BuildOutcome(
                index,
                model,
                status,
                attempts=attempts,
                effective_kwargs=dict(kwargs),
            )
    degraded = _try_degraded_build(
        index, netlist, kwargs, degrade_max_nodes, attempts
    )
    if degraded is not None:
        return degraded
    return BuildOutcome(
        index,
        None,
        "failed",
        attempts=attempts,
        error=worker_error if exception is None else str(exception),
        failure_kind=failure_kind if exception is None else failure_kind or "error",
        exception=exception,
        effective_kwargs=dict(kwargs),
    )


_POOL_FALLBACK_LOGGED = False


def _note_pool_fallback(exc: BaseException) -> None:
    """Count a wholesale pool→sequential fallback; log the first one."""
    global _POOL_FALLBACK_LOGGED
    _POOL_FALLBACKS.inc()
    if not _POOL_FALLBACK_LOGGED:
        _POOL_FALLBACK_LOGGED = True
        _LOG.warning(
            "parallel build worker pool unavailable (%s); "
            "building sequentially in-process", exc,
        )


def build_add_models_parallel(
    jobs: Sequence[BuildJob],
    processes: Optional[int] = None,
    *,
    job_timeout_s: Optional[float] = None,
    max_retries: int = 1,
    degrade_max_nodes: Optional[int] = None,
    raise_on_error: bool = True,
    **common_kwargs,
) -> Union[List[AddPowerModel], List[BuildOutcome]]:
    """Construct many ADD models concurrently under supervision.

    Parameters
    ----------
    jobs:
        Netlists to model, each optionally a ``(netlist, overrides)`` pair
        whose dict overrides ``common_kwargs`` for that job — e.g. build
        the same macro under several strategies, or many macros at once.
    processes:
        Worker count; defaults to ``min(len(jobs), cpu_count)``.
        ``1`` (or a single job) builds sequentially in-process.
    job_timeout_s:
        Per-job wall-time budget.  A worker that exceeds it is killed and
        the job retried, then degraded (None = no budget).
    max_retries:
        How many times a crashed or timed-out job is relaunched in a
        fresh worker before the in-process recovery ladder takes over.
    degrade_max_nodes:
        Last rung of the recovery ladder: when a job cannot be built
        exactly, retry with this ``max_nodes`` collapse budget (only if
        tighter than the job's own).  None disables degradation.
    raise_on_error:
        When True (default) return ``List[AddPowerModel]`` and raise the
        first failure (:class:`BuildTimeoutError`,
        :class:`WorkerCrashError`, or the build's own error).  When
        False, return a :class:`BuildOutcome` per job so one failure
        cannot lose its siblings' results.
    common_kwargs:
        Keyword arguments forwarded to :func:`build_add_model`.

    Results are in job order.  Each parallel-built model lives in its own
    fresh manager (the JSON round trip used for transfer rebuilds the
    canonical diagram), so results are structurally identical — same node
    count, same evaluations — to a sequential :func:`build_add_model`
    call.  Every job is dispatched to its own supervised worker process;
    a crashed or hung worker is detected, retried, and finally recovered
    in-process, with a wholesale sequential fallback when no worker can
    be started at all (e.g. sandboxed environments).
    """
    normalized: List[Tuple[Netlist, dict]] = []
    for job in jobs:
        if isinstance(job, Netlist):
            netlist, overrides = job, {}
        else:
            netlist, overrides = job
            if not isinstance(netlist, Netlist):
                raise ModelError(
                    "each job must be a Netlist or a (Netlist, kwargs) pair"
                )
        kwargs = dict(common_kwargs)
        kwargs.update(overrides)
        normalized.append((netlist, kwargs))
    if not normalized:
        return []
    if processes is None:
        processes = min(len(normalized), os.cpu_count() or 1)

    def sequential() -> List[BuildOutcome]:
        return [
            _build_with_ladder(index, netlist, kwargs, degrade_max_nodes)
            for index, (netlist, kwargs) in enumerate(normalized)
        ]

    if processes <= 1 or len(normalized) == 1:
        outcomes = sequential()
    else:
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - platform without fork
            context = multiprocessing.get_context()
        try:
            results = _supervise_jobs(
                normalized, processes, job_timeout_s, max_retries, context
            )
        except OSError as exc:
            _note_pool_fallback(exc)
            outcomes = sequential()
        else:
            from repro.models.serialize import model_from_dict

            outcomes = []
            for index, (netlist, kwargs) in enumerate(normalized):
                kind, payload, attempts = results[index]
                if kind == "ok":
                    # Fold the worker's per-build metric deltas into this
                    # process's registry, so parallel builds account like
                    # sequential ones.
                    _MET.merge(payload["metrics"])
                    model = _restore_weight_fn(model_from_dict(payload["model"]))
                    outcomes.append(
                        BuildOutcome(
                            index,
                            model,
                            "ok",
                            attempts=attempts,
                            effective_kwargs=dict(kwargs),
                        )
                    )
                else:
                    outcomes.append(
                        _build_with_ladder(
                            index,
                            netlist,
                            kwargs,
                            degrade_max_nodes,
                            attempts=attempts,
                            failure_kind=kind,
                            worker_error=str(payload),
                            skip_exact=(kind == "timeout"),
                        )
                    )
    if not raise_on_error:
        return outcomes
    models: List[AddPowerModel] = []
    for outcome in outcomes:
        if not outcome.ok:
            outcome.raise_error()
        models.append(outcome.model)
    return models
