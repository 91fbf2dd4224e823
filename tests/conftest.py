"""Shared fixtures: small reference circuits used across the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.netlist import Netlist, NetlistBuilder


@pytest.fixture(scope="session", autouse=True)
def _private_kernel_cache(tmp_path_factory):
    """Point the per-user kernel cache at a session temp dir.

    Compiled codegen kernels persist under ``$XDG_CACHE_HOME``; a test
    run must neither read kernels an earlier run left there nor fill the
    real cache.  Spawned CLI processes inherit the variable.
    """
    patch = pytest.MonkeyPatch()
    patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
    yield
    patch.undo()


@pytest.fixture
def fig2_netlist() -> Netlist:
    """The paper's Figure 2 unit: g1 = x1', g2 = x2', g3 = x1 + x2.

    With the test library, loads come out as 15 fF per gate (primary
    outputs only), so C(11 -> 00) = 30 fF (both inverters rise).
    """
    builder = NetlistBuilder("fig2")
    x1, x2 = builder.input("x1"), builder.input("x2")
    g1 = builder.inv(x1)
    g2 = builder.inv(x2)
    g3 = builder.or2(x1, x2)
    for net in (g1, g2, g3):
        builder.netlist.add_output(net)
    return builder.build()


@pytest.fixture
def xor_chain_netlist() -> Netlist:
    """A 4-input XOR chain — deep, fully activity-sensitive logic."""
    builder = NetlistBuilder("xorchain")
    bits = builder.bus("x", 4)
    net = bits[0]
    for bit in bits[1:]:
        net = builder.xor2(net, bit)
    builder.output("p", net)
    return builder.build()


@pytest.fixture
def reconvergent_netlist() -> Netlist:
    """Reconvergent fanout with unequal path depths (glitch-prone)."""
    builder = NetlistBuilder("reconv")
    a, b, c = builder.input("a"), builder.input("b"), builder.input("c")
    slow = builder.and2(builder.and2(a, b), c)   # depth 2 path
    fast = builder.inv(a)                        # depth 1 path
    builder.output("y", builder.or2(slow, fast))
    return builder.build()


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic RNG for tests that sample patterns."""
    return np.random.default_rng(20260706)


def brute_force_table(netlist: Netlist):
    """All (x_i, x_f, C) triples of a small netlist, via the golden model."""
    from repro.sim import all_patterns, pair_switching_capacitances

    patterns = all_patterns(netlist.num_inputs)
    rows = []
    for i in range(patterns.shape[0]):
        initial = np.repeat(patterns[i][None, :], patterns.shape[0], axis=0)
        caps = pair_switching_capacitances(netlist, initial, patterns)
        for f in range(patterns.shape[0]):
            rows.append((patterns[i], patterns[f], float(caps[f])))
    return rows
