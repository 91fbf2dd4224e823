"""Self-time tracing from outside the program, for ``--trace`` runs.

The benchmark wraps public functions of the program (module functions,
class methods) with timers and keeps a stack of open frames, so each
layer is charged its *self* time: its span minus the part its traced
children cover.  A layer entered again while it is already on top of the
stack (recursion) is not re-timed, and a ``gate`` restricts a wrapper to
calls made directly from one other layer, so that for example
``DDManager.add_plus`` is charged to ``accumulate`` only when
``build_add_model`` itself calls it, not when the collapse step does.

Timings go into the program's own metrics registry as counters named
``serve.bench.<layer>.s`` (self seconds), ``.calls`` and, for batch
calls, ``.rows`` and ``.row_s`` (inclusive seconds weighted by rows).
Two existing paths then carry them out of the process with no change to
the program: a forked build worker ships its registry delta back to the
parent, and a server's ``stats`` op exports every ``serve.*`` counter.
"""

from __future__ import annotations

import importlib
import time
from typing import Callable, Dict, List, Optional

PREFIX = "serve.bench."

# Each layer is (name, [(module, class or None, attribute), ...], gate,
# rows argument): None as class wraps a module function; the rows
# argument is the positional index whose ``.shape[0]`` counts rows.
BUILD_LAYERS = (
    ("models.addmodel.build", [("repro.models.addmodel", None, "build_add_model")], None, None),
    ("netlist.symbolic.sweep", [("repro.models.addmodel", None, "build_node_functions")],
     "models.addmodel.build", None),
    ("dd.manager.deltas", [("repro.dd.manager", "DDManager", "bdd_and"),
                           ("repro.dd.manager", "DDManager", "bdd_not"),
                           ("repro.dd.manager", "DDManager", "add_const_times")],
     "models.addmodel.build", None),
    ("dd.manager.accumulate", [("repro.dd.manager", "DDManager", "add_plus")],
     "models.addmodel.build", None),
    ("dd.manager.size", [("repro.dd.manager", "DDManager", "size")],
     "models.addmodel.build", None),
    ("dd.approx.collapse", [("repro.models.addmodel", None, "approximate")],
     "models.addmodel.build", None),
    ("models.serialize.to_dict", [("repro.models.serialize", None, "model_to_dict"),
                                  ("repro.serve.store", None, "model_to_dict")], None, None),
    ("models.serialize.from_dict", [("repro.models.serialize", None, "model_from_dict"),
                                    ("repro.serve.store", None, "model_from_dict")], None, None),
    ("serve.store.put", [("repro.serve.store", "ModelStore", "put")], None, None),
    ("serve.store.get", [("repro.serve.store", "ModelStore", "get")], None, None),
)

SERVE_LAYERS = (
    ("serve.protocol.decode", [("repro.serve.protocol", None, "decode_request")], None, None),
    ("serve.protocol.parse", [("repro.serve.protocol", None, "parse_transitions")], None, None),
    ("serve.protocol.encode", [("repro.serve.protocol", None, "encode")], None, None),
    ("models.addmodel.pack", [("repro.models.addmodel", "AddPowerModel", "pair_capacitances")],
     None, 1),
    ("dd.compiled.evaluate", [("repro.dd.compiled", "CompiledDD", "evaluate_batch")], None, 1),
    ("setup.store_load", [("repro.serve.store", "ModelStore", "get_or_build_many")], None, None),
    ("setup.compile", [("repro.dd.compiled", "CompiledDD", "compile")], None, None),
    ("setup.warm", [("repro.models.addmodel", "AddPowerModel", "warm_eval_backend")], None, None),
)


class SelfTimer:
    """Installs the wrappers and owns the stack of open frames."""

    def __init__(self) -> None:
        from repro.obs.metrics import get_metrics

        self.registry = get_metrics()
        self.stack: List[list] = []
        self._undo: List[Callable[[], None]] = []

    def install(self, layers) -> "SelfTimer":
        for layer, targets, gate, rows_arg in layers:
            for module_name, owner_name, attr in targets:
                module = importlib.import_module(module_name)
                owner = getattr(module, owner_name) if owner_name else module
                self._wrap(owner, attr, layer, gate, rows_arg)
        return self

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _wrap(self, owner, attr: str, layer: str, gate: Optional[str],
              rows_arg: Optional[int]) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_class_method = isinstance(raw, classmethod)
        original = getattr(owner, attr)  # bound for classmethods
        seconds = self.registry.counter(f"{PREFIX}{layer}.s")
        calls = self.registry.counter(f"{PREFIX}{layer}.calls")
        rows = self.registry.counter(f"{PREFIX}{layer}.rows")
        row_seconds = self.registry.counter(f"{PREFIX}{layer}.row_s")
        stack = self.stack
        clock = time.perf_counter

        def timed(*args, **kwargs):
            if stack and (
                stack[-1][0] == layer or (gate is not None and stack[-1][0] != gate)
            ):
                return original(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                seconds.inc(elapsed - frame[1])
                calls.inc()
                if stack:
                    stack[-1][1] += elapsed
                if rows_arg is not None:
                    # args[0] is self for instance methods.
                    count = int(getattr(args[rows_arg], "shape", (1,))[0])
                    rows.inc(count)
                    row_seconds.inc(elapsed * count)

        timed.__wrapped__ = original
        setattr(owner, attr, staticmethod(timed) if is_class_method else timed)
        self._undo.append(lambda: setattr(owner, attr, raw))


def layer_totals(delta: Dict, layer: str) -> Dict[str, float]:
    """``{s, calls, rows, row_s}`` of one layer from a metrics delta."""
    out = {}
    for part in ("s", "calls", "rows", "row_s"):
        state = delta.get(f"{PREFIX}{layer}.{part}")
        out[part] = float(state["value"]) if state else 0.0
    return out
