"""Serving at kernel speed: the one-pass parse, flush-when-idle batching,
and codegen kernels loaded from the persistent per-user kernel cache."""

from __future__ import annotations

import asyncio
import json
import os
import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.random_logic import random_logic
from repro.dd import backends as dd_backends
from repro.errors import BackendError
from repro.models import build_add_model
from repro.models.serialize import model_from_dict, model_to_dict
from repro.obs import get_metrics
from repro.serve import PowerQueryClient, PowerQueryServer, ServerConfig, start_in_thread
from repro.serve import protocol
from repro.serve.protocol import ProtocolError
from repro.serve.server import UNCOMPILED_WAIT_MS
from repro.testing import faults

_MET = get_metrics()


def _counter(name: str) -> float:
    state = _MET.snapshot().get(name)
    return float(state["value"]) if state else 0.0


# ---------------------------------------------------------------------------
# One-pass parse vs the per-character parse it replaced
# ---------------------------------------------------------------------------
def _seed_parse(request, num_inputs):
    """The per-character parse exactly as the protocol shipped it before
    the one-pass parse: the oracle for values and for error wording."""

    def parse_bits(bits, width, field):
        if not isinstance(bits, str) or len(bits) != width or set(bits) - {"0", "1"}:
            raise ProtocolError(
                "bad_request",
                f"{field!r} must be a {width}-character 0/1 string",
            )
        return [ch == "1" for ch in bits]

    has_single = "initial" in request or "final" in request
    has_pairs = "pairs" in request
    if has_single == has_pairs:
        raise ProtocolError(
            "bad_request",
            "evaluate needs either 'initial'+'final' or 'pairs' (not both)",
        )
    if has_single:
        initial = [parse_bits(request.get("initial"), num_inputs, "initial")]
        final = [parse_bits(request.get("final"), num_inputs, "final")]
    else:
        pairs = request["pairs"]
        if (
            not isinstance(pairs, list)
            or not pairs
            or not all(isinstance(p, (list, tuple)) and len(p) == 2 for p in pairs)
        ):
            raise ProtocolError(
                "bad_request", "'pairs' must be a non-empty list of [initial, final]"
            )
        initial = [parse_bits(p[0], num_inputs, "pairs[].initial") for p in pairs]
        final = [parse_bits(p[1], num_inputs, "pairs[].final") for p in pairs]
    return np.array(initial, dtype=bool), np.array(final, dtype=bool)


def _outcome(parse, request, width):
    try:
        return "ok", parse(request, width)
    except ProtocolError as exc:
        return "error", (exc.error_type, str(exc))


def _assert_same_outcome(request, width):
    got_kind, got = _outcome(protocol.parse_transitions, request, width)
    want_kind, want = _outcome(_seed_parse, request, width)
    assert got_kind == want_kind, (request, got, want)
    if want_kind == "error":
        assert got == want
        return
    for got_matrix, want_matrix in zip(got, want):
        assert got_matrix.dtype == want_matrix.dtype == np.bool_
        assert got_matrix.shape == want_matrix.shape
        assert np.array_equal(got_matrix, want_matrix)


def _bit_string(width):
    return st.text(alphabet="01", min_size=width, max_size=width)


@st.composite
def _well_formed(draw):
    width = draw(st.integers(min_value=1, max_value=48))
    if draw(st.booleans()):
        request = {"initial": draw(_bit_string(width)), "final": draw(_bit_string(width))}
    else:
        rows = draw(st.integers(min_value=1, max_value=24))
        request = {
            "pairs": [
                [draw(_bit_string(width)), draw(_bit_string(width))]
                for _ in range(rows)
            ]
        }
    return request, width


#: Entries that are sometimes right and mostly wrong: other lengths,
#: non-binary ASCII, non-ASCII digits, and non-string values.
_ENTRY = st.one_of(
    st.text(alphabet="01", max_size=5),
    st.text(alphabet="01x 2١１", max_size=5),
    st.none(),
    st.integers(min_value=0, max_value=11),
    st.lists(st.sampled_from(["0", "1"]), max_size=3),
)


@st.composite
def _any_shape(draw):
    width = draw(st.integers(min_value=1, max_value=4))
    kind = draw(st.sampled_from(["single", "pairs", "both", "neither", "bad-pairs"]))
    request = {}
    if kind in ("single", "both"):
        request["initial"] = draw(_ENTRY)
        if draw(st.booleans()):
            request["final"] = draw(_ENTRY)
    if kind in ("pairs", "both"):
        request["pairs"] = draw(st.lists(st.lists(_ENTRY, min_size=2, max_size=2), max_size=4))
    if kind == "bad-pairs":
        request["pairs"] = draw(
            st.one_of(
                st.lists(st.lists(_ENTRY, max_size=3), max_size=3),
                st.lists(st.text(alphabet="01", max_size=2), max_size=3),
                st.text(alphabet="01", max_size=4),
                st.none(),
            )
        )
    return request, width


class TestOnePassParse:
    @settings(max_examples=300, deadline=None)
    @given(_well_formed())
    def test_matches_per_character_parse(self, case):
        request, width = case
        _assert_same_outcome(request, width)

    @settings(max_examples=400, deadline=None)
    @given(_any_shape())
    def test_any_request_same_outcome_as_before(self, case):
        request, width = case
        _assert_same_outcome(request, width)

    @pytest.mark.parametrize(
        "request_, width",
        [
            # Mixed lengths whose sum is P * 2n: a joined-length check passes.
            ({"pairs": [["011", "0"], ["1", "101"]]}, 2),
            ({"initial": "011", "final": "0"}, 2),
            # Non-binary ASCII, first in an initial and then in a final.
            ({"initial": "0120", "final": "0000"}, 4),
            ({"pairs": [["0101", "0101"], ["0101", "01x1"]]}, 4),
            ({"pairs": [["01/1", "0101"]]}, 4),
            # Non-ASCII digits (Arabic-Indic, fullwidth).
            ({"initial": "٠١", "final": "01"}, 2),
            ({"pairs": [["01", "０１"]]}, 2),
            # Non-str entries.
            ({"initial": 10, "final": "10"}, 2),
            ({"initial": "10"}, 2),
            ({"pairs": [[None, "01"]]}, 2),
            ({"pairs": [["01", ["0", "1"]]]}, 2),
            ({"pairs": [[b"01", "01"]]}, 2),
            # An empty pairs list, and pairs that are not 2-lists.
            ({"pairs": []}, 2),
            ({"pairs": [["01"]]}, 2),
            ({"pairs": [["01", "10", "11"]]}, 2),
            ({"pairs": ["01", "10"]}, 1),
            ({"pairs": "0110"}, 2),
            ({"pairs": None}, 2),
            # Both spellings, and neither.
            ({"initial": "01", "final": "10", "pairs": [["01", "10"]]}, 2),
            ({}, 2),
        ],
    )
    def test_malformed_request_keeps_its_error(self, request_, width):
        with pytest.raises(ProtocolError) as caught:
            protocol.parse_transitions(request_, width)
        want_kind, want = _outcome(_seed_parse, request_, width)
        assert want_kind == "error"
        assert (caught.value.error_type, str(caught.value)) == want
        assert caught.value.error_type == "bad_request"

    def test_tuple_pairs_still_accepted(self):
        initial, final = protocol.parse_transitions({"pairs": [("01", "10")]}, 2)
        assert initial.tolist() == [[False, True]]
        assert final.tolist() == [[True, False]]


# ---------------------------------------------------------------------------
# Flush when idle
# ---------------------------------------------------------------------------
def _small_models(prefix: str, seeds=(5, 9)):
    models = {}
    for seed in seeds:
        netlist = random_logic(f"{prefix}{seed}", 6, 24, seed=seed, cone_limit=5)
        models[netlist.name] = build_add_model(netlist, max_nodes=80)
    return models


def _fresh_copies(models):
    """The same models as a new process would load them (cold kernels)."""
    return {name: model_from_dict(model_to_dict(m)) for name, m in models.items()}


needs_cc = pytest.mark.skipif(
    dd_backends._find_cc() is None, reason="no C compiler on this host"
)


def _bits(row) -> str:
    return "".join("1" if b else "0" for b in row)


def _burst(host, port, name, width, count, seed):
    """Send ``count`` evaluate requests in one write; return the replies."""
    rng = np.random.default_rng(seed)
    initial = rng.random((count, width)) < 0.5
    final = rng.random((count, width)) < 0.5
    lines = b"".join(
        protocol.encode(
            {"id": k, "op": "evaluate", "model": name,
             "initial": _bits(initial[k]), "final": _bits(final[k])}
        )
        for k in range(count)
    )
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(lines)
        buffer = b""
        while buffer.count(b"\n") < count:
            chunk = sock.recv(65536)
            assert chunk, "server closed the connection"
            buffer += chunk
    replies = [protocol.unwrap_response(json.loads(line)) for line in buffer.splitlines()]
    return initial, final, replies


class TestFlushWhenIdle:
    def test_uncompiled_model_keeps_the_window(self):
        server = PowerQueryServer(
            _fresh_copies(_small_models("window")), ServerConfig(kernel="levelized")
        )
        assert ServerConfig().max_wait_ms is None
        for name, model in server.models.items():
            assert server._batch_window_ms(name, model) == UNCOMPILED_WAIT_MS

    @needs_cc
    def test_compiled_model_flushes_on_next_iteration(self):
        server = PowerQueryServer(
            _fresh_copies(_small_models("window")), ServerConfig(kernel="codegen")
        )
        for name, model in server.models.items():
            assert server._batch_window_ms(name, model) == 0.0

    @pytest.mark.parametrize("wait_ms", [0.0, 5.0])
    def test_explicit_wait_applies_to_every_model(self, wait_ms):
        server = PowerQueryServer(
            _fresh_copies(_small_models("window")),
            ServerConfig(kernel="levelized", max_wait_ms=wait_ms),
        )
        for name, model in server.models.items():
            assert server._batch_window_ms(name, model) == wait_ms

    def test_pipelined_burst_shares_one_kernel_call(self):
        models = _small_models("burst")
        name, model = next(iter(models.items()))
        config = ServerConfig(kernel="levelized", max_wait_ms=0.0)
        with start_in_thread(models, config) as handle:
            before = _MET.snapshot()
            _, _, replies = _burst(
                handle.host, handle.port, name, model.num_inputs, 16, seed=1
            )
            delta = _MET.diff(before, _MET.snapshot())
        assert len(replies) == 16
        assert delta["serve.eval.requests"]["value"] == 16
        assert delta["serve.eval.batches"]["value"] == 1

    def test_max_batch_still_caps_a_flush(self):
        models = _small_models("capped")
        name, model = next(iter(models.items()))
        config = ServerConfig(kernel="levelized", max_batch=4, max_wait_ms=0.0)
        with start_in_thread(models, config) as handle:
            before = _MET.snapshot()
            initial, final, replies = _burst(
                handle.host, handle.port, name, model.num_inputs, 10, seed=2
            )
            delta = _MET.diff(before, _MET.snapshot())
        assert delta["serve.eval.rows"]["value"] == 10
        assert delta["serve.eval.batches"]["value"] == 3  # 4 + 4 + 2
        want = model.pair_capacitances(initial, final, kernel="pointer")
        assert [r["capacitance_fF"] for r in replies] == want.tolist()


# ---------------------------------------------------------------------------
# Persistent kernel cache
# ---------------------------------------------------------------------------
@pytest.fixture
def kernel_cache(tmp_path, monkeypatch):
    """A private, empty kernel cache; the in-process cache is emptied too,
    so every lookup goes to disk as in a newly started process."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setattr(dd_backends, "_LIBRARY_CACHE", {})
    return tmp_path / "xdg" / "repro" / "kernels"


def _answers(handle, models, seed=7):
    rng = np.random.default_rng(seed)
    out = {}
    with PowerQueryClient(handle.host, handle.port) as client:
        for name, model in models.items():
            initial = rng.random((40, model.num_inputs)) < 0.5
            final = rng.random((40, model.num_inputs)) < 0.5
            served = client.evaluate_pairs(name, list(zip(initial, final)))
            want = model.pair_capacitances(initial, final, kernel="levelized")
            assert np.array_equal(np.asarray(served), want)
            out[name] = served
    return out


def _gated_compiler(monkeypatch):
    """Hold every cc run until the returned event is set."""
    entered, release = threading.Event(), threading.Event()
    real = dd_backends._run_compiler

    def gated(*args):
        entered.set()
        release.wait(30.0)
        real(*args)

    monkeypatch.setattr(dd_backends, "_run_compiler", gated)
    return entered, release


def _child_compilers():
    """Live processes this process started that look like a compiler."""
    names = {"cc", "gcc", "cc1", "as", "ld", "collect2", "clang"}
    found = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        comm = stat[stat.index("(") + 1 : stat.rindex(")")]
        ppid = int(stat[stat.rindex(")") + 2 :].split()[1])
        if ppid == os.getpid() and comm in names:
            found.append((int(pid), comm))
    return found


@needs_cc
class TestKernelCache:
    def test_second_start_compiles_nothing_and_answers_identically(
        self, kernel_cache
    ):
        models = _small_models("cache")
        compiles = _counter("eval.codegen.compiles")
        with start_in_thread(_fresh_copies(models), ServerConfig()) as handle:
            assert handle.server.wait_for_kernels(60.0)
            first = _answers(handle, models)
            for name, model in handle.server.models.items():
                assert model.compiled()._backend_state["codegen"]["library"]
                assert handle.server._batch_window_ms(name, model) == 0.0
        assert _counter("eval.codegen.compiles") == compiles + len(models)
        assert len(list(kernel_cache.glob("*.so"))) == len(models)

        dd_backends._LIBRARY_CACHE.clear()
        compiles = _counter("eval.codegen.compiles")
        hits = _counter("eval.codegen.cache_hits")
        codegen_batches = _counter("eval.backend.codegen.batches")
        with start_in_thread(_fresh_copies(models), ServerConfig()) as handle:
            # Loaded before the server reported ready: nothing to wait for.
            assert handle.server.wait_for_kernels(0.0)
            second = _answers(handle, models)
        assert _counter("eval.codegen.compiles") == compiles
        assert _counter("eval.codegen.cache_hits") == hits + len(models)
        assert _counter("eval.backend.codegen.batches") >= codegen_batches + len(models)
        assert second == first

    def test_truncated_entry_is_recompiled(self, kernel_cache):
        models = _small_models("torn", seeds=(3,))
        (name, model), = models.items()
        dd_backends.get_backend("codegen").warm(model.compiled(), persist=True)
        (entry,) = kernel_cache.glob("*.so")
        data = entry.read_bytes()
        # Replace (not truncate in place: this process has it mapped).
        torn = entry.with_name("torn.tmp")
        torn.write_bytes(data[: len(data) // 2])
        os.replace(torn, entry)
        dd_backends._LIBRARY_CACHE.clear()

        fresh = _fresh_copies(models)[name]
        compiled = fresh.compiled()
        codegen = dd_backends.get_backend("codegen")
        assert not codegen.load_cached(compiled)  # damaged entry: a miss
        compiles = _counter("eval.codegen.compiles")
        codegen.warm(compiled, persist=True)
        assert _counter("eval.codegen.compiles") == compiles + 1
        assert entry.read_bytes() != data[: len(data) // 2]
        packed = fresh._pack_batch(
            np.eye(fresh.num_inputs, dtype=bool), np.ones((fresh.num_inputs,) * 2, bool)
        )
        assert np.array_equal(
            compiled.evaluate_batch(packed, kernel="codegen"),
            compiled.evaluate_batch(packed, kernel="levelized"),
        )

    def test_compile_fail_leaves_server_on_levelized(self, kernel_cache):
        models = _small_models("nocc")
        fallbacks = _counter("eval.codegen.fallbacks")
        levelized = _counter("eval.backend.levelized.batches")
        with faults.inject([faults.FaultSpec("eval.codegen.compile_fail")]):
            with start_in_thread(_fresh_copies(models), ServerConfig()) as handle:
                assert handle.server.wait_for_kernels(60.0)
                _answers(handle, models)
                for name, model in handle.server.models.items():
                    assert model.compiled()._backend_state["codegen"]["library"] is None
                    window = handle.server._batch_window_ms(name, model)
                    assert window == UNCOMPILED_WAIT_MS
        assert _counter("eval.codegen.fallbacks") == fallbacks + len(models)
        assert _counter("eval.backend.levelized.batches") >= levelized + len(models)
        assert not list(kernel_cache.glob("*.so"))

    def test_ping_answered_while_reload_compiles(self, kernel_cache, monkeypatch):
        first = _small_models("before", seeds=(4,))
        with start_in_thread(_fresh_copies(first), ServerConfig()) as handle:
            assert handle.server.wait_for_kernels(60.0)
            entered, release = _gated_compiler(monkeypatch)
            try:
                second = _small_models("after", seeds=(6,))
                reloaded = threading.Event()
                handle.loop.call_soon_threadsafe(
                    lambda: (
                        handle.server.reload_models(_fresh_copies(second)),
                        reloaded.set(),
                    )
                )
                assert reloaded.wait(10.0)
                assert entered.wait(10.0)  # the compile is in flight
                with PowerQueryClient(handle.host, handle.port) as client:
                    assert client.ping()
                _answers(handle, second)  # served on levelized meanwhile
                assert not handle.server.wait_for_kernels(0.0)
            finally:
                release.set()
            assert handle.server.wait_for_kernels(60.0)
            _answers(handle, second)

    def test_stop_waits_for_compile_and_leaves_no_compiler(
        self, kernel_cache, monkeypatch
    ):
        models = _small_models("stopping", seeds=(8, 10))
        entered, release = _gated_compiler(monkeypatch)
        handle = start_in_thread(_fresh_copies(models), ServerConfig())
        try:
            assert entered.wait(10.0)
            stopper = threading.Thread(target=handle.stop, args=(60.0,))
            stopper.start()
            stopper.join(0.3)
            assert stopper.is_alive()  # held by the in-flight compile
        finally:
            release.set()
        stopper.join(60.0)
        assert not handle.thread.is_alive()
        assert list(kernel_cache.glob("*.so"))  # the in-flight compile published
        assert _child_compilers() == []

    def test_cancelled_serve_forever_stops_and_drops_queued_compiles(
        self, kernel_cache, monkeypatch
    ):
        models = _small_models("cancel", seeds=(19, 20))
        entered, release = _gated_compiler(monkeypatch)
        server = PowerQueryServer(_fresh_copies(models), ServerConfig())
        compiles = _counter("eval.codegen.compiles")

        async def main():
            # What asyncio.run does to its main task on ctrl-C.
            task = asyncio.create_task(server.serve_forever())
            try:
                assert await asyncio.to_thread(entered.wait, 10.0)
                task.cancel()
                queued = server._compiles[-1]
                for _ in range(1000):
                    if queued.cancelled():
                        break
                    await asyncio.sleep(0.01)
                assert queued.cancelled()  # stop() ran and dropped it
            finally:
                release.set()
            with pytest.raises(asyncio.CancelledError):
                await task

        asyncio.run(main())
        assert server._stopping
        assert _counter("eval.codegen.compiles") == compiles + 1
        assert len(list(kernel_cache.glob("*.so"))) == 1
        assert _child_compilers() == []


@needs_cc
class TestCompileHygiene:
    def test_scratch_dirs_are_removed(self, kernel_cache, tmp_path, monkeypatch):
        monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
        (model,) = _small_models("tidy", seeds=(12,)).values()
        dd_backends.get_backend("codegen").warm(model.compiled(), persist=True)
        leftovers = list(tmp_path.rglob("repro-codegen-*"))
        assert leftovers == []
        assert sorted(p.suffix for p in kernel_cache.iterdir()) == [".sha256", ".so"]

    def test_one_off_compiles_leave_nothing_on_disk(
        self, kernel_cache, tmp_path, monkeypatch
    ):
        monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
        (model,) = _small_models("oneoff", seeds=(17,)).values()
        compiled = model.compiled()
        packed = model._pack_batch(
            np.eye(model.num_inputs, dtype=bool), np.ones((model.num_inputs,) * 2, bool)
        )
        assert np.array_equal(
            compiled.evaluate_batch(packed, kernel="codegen"),
            compiled.evaluate_batch(packed, kernel="levelized"),
        )
        assert dd_backends.codegen_loaded(compiled)
        assert not kernel_cache.exists()
        assert list(tmp_path.rglob("repro-codegen-*")) == []

    def test_publish_prunes_old_entries_and_dead_scratch_dirs(
        self, kernel_cache, monkeypatch
    ):
        monkeypatch.setattr(dd_backends, "KERNEL_CACHE_MAX_ENTRIES", 2)
        kernel_cache.mkdir(parents=True, mode=0o700)
        old = time.time() - 3600
        for age, name in enumerate(["oldest", "older", "old"]):
            library = kernel_cache / f"{name}.so"
            library.write_bytes(b"\0")
            (kernel_cache / f"{name}.so.sha256").write_text("0\n")
            os.utime(library, (old + age, old + age))
        dead = kernel_cache / "repro-codegen-dead"
        dead.mkdir()
        (dead / "kernel.c").write_text("")
        os.utime(dead, (old, old))
        running = kernel_cache / "repro-codegen-running"
        running.mkdir()

        (model,) = _small_models("prune", seeds=(18,)).values()
        dd_backends.get_backend("codegen").warm(model.compiled(), persist=True)
        names = {p.name for p in kernel_cache.iterdir()}
        (fresh,) = {n for n in names if n.endswith(".so")} - {"old.so"}
        assert names == {
            fresh, fresh + ".sha256", "old.so", "old.so.sha256", running.name
        }

    def test_unusable_cache_dir_still_compiles_privately(self, tmp_path, monkeypatch):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        monkeypatch.setattr(dd_backends, "_LIBRARY_CACHE", {})
        monkeypatch.setattr("tempfile.tempdir", str(tmp_path))
        assert dd_backends.kernel_cache_dir() is None
        (model,) = _small_models("private", seeds=(13,)).values()
        compiled = model.compiled()
        dd_backends.get_backend("codegen").warm(compiled, persist=True)
        assert compiled._backend_state["codegen"]["library"] is not None
        assert list(tmp_path.glob("repro-codegen-*")) == []

    def test_cache_writable_by_others_is_refused(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        path = dd_backends.kernel_cache_dir()
        assert path is not None and os.stat(path).st_mode & 0o777 == 0o700
        os.chmod(path, 0o777)
        assert dd_backends.kernel_cache_dir() is None

    def test_hung_compiler_times_out(self, tmp_path, monkeypatch):
        fake = tmp_path / "cc"
        fake.write_text("#!/bin/sh\nsleep 30\n")
        fake.chmod(0o755)
        monkeypatch.setattr(dd_backends, "_find_cc", lambda: str(fake))
        monkeypatch.setattr(dd_backends, "CODEGEN_COMPILE_TIMEOUT_S", 0.5)
        monkeypatch.setattr(dd_backends, "_LIBRARY_CACHE", {})
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        (model,) = _small_models("hung", seeds=(14,)).values()
        plan = dd_backends._plan_of(model.compiled())
        with pytest.raises(BackendError, match="timed out"):
            dd_backends._load_library([plan], fused=False, persist=True)
        assert _child_compilers() == []
        assert list((tmp_path / "xdg" / "repro" / "kernels").iterdir()) == []
