import errno
import logging
import math
import mmap
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hn4walk import engine as engine_module
from hn4walk.engine import (
    DEFAULT_MEMORY_LIMIT,
    CoinDirection,
    EdgeMode,
    ResourceLimitError,
    WalkConfig,
    WalkEngine,
    amplified_cost,
    apply_coin,
    apply_oracle,
    apply_shift,
    coin_weights,
    directions,
    initial_state,
    memory_requirement,
    run,
    shift_permutation,
    step,
    success_probability,
    target_indices,
)
from hn4walk.topology import (
    TopologyError,
    TopologyParams,
    compose,
    exceptional_lines,
    level_size,
)

from dense_reference import dense_step

RNG = np.random.default_rng(411)


def random_state(n_coins, n_vertices, rng=RNG):
    psi = rng.normal(size=(n_coins, n_vertices)) + 1j * rng.normal(size=(n_coins, n_vertices))
    return psi / np.linalg.norm(psi)


# side 64 is one band; side 512 takes 10 (HN4) or 6 (grid) bands of y rows, a
# partial last band and the two bands whose y moves wrap among them, split on
# two or more cores into one part per process of 5 or 3 bands, each partial last
BAND_CASES = [
    pytest.param(mode, side, id=mode.value if side == 64 else f"{side}-{mode.value}")
    for side in (64, 512)
    for mode in EdgeMode
]


def make_config(side=4, na=8.5, targets=((1, 2),), mode=EdgeMode.HN4):
    return WalkConfig.with_na(TopologyParams.from_side(side), na, targets, mode)


def test_direction_cardinality():
    assert len(directions(EdgeMode.HN4)) == 9
    assert len(directions(EdgeMode.GRID)) == 5
    assert directions(EdgeMode.HN4)[-1] is CoinDirection.HOLD
    assert directions(EdgeMode.GRID)[-1] is CoinDirection.HOLD
    d = CoinDirection
    assert directions(EdgeMode.HN4) == tuple(d)
    assert directions(EdgeMode.GRID) == (d.X_PLUS, d.X_MINUS, d.Y_PLUS, d.Y_MINUS, d.HOLD)


def test_config_validation():
    topo = TopologyParams.from_side(4)
    with pytest.raises(ValueError):
        WalkConfig(topo, -0.1)
    with pytest.raises(ValueError):
        WalkConfig(topo, 0.5, ((0, 0), (0, 0)))
    with pytest.raises(TopologyError):
        WalkConfig(topo, 0.5, ((4, 0),))
    with pytest.raises(TopologyError):
        WalkConfig.with_na(topo, 8.0, [(1.5, 2), (1, 2)])
    with pytest.raises(TopologyError):
        WalkConfig(topo, 0.5, np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(TopologyError):
        WalkConfig(topo, 0.5, [(True, False)])
    config = WalkConfig.with_na(topo, 8.0, [(1, 2)])
    assert config.loop_weight == 0.5
    assert config.na == 8.0
    assert WalkConfig(topo, 0.5, ()).targets.shape == (0, 2)
    given = np.array([[3, 3], [2, 0], [1, 2]], dtype=np.int64)
    config = WalkConfig(topo, 0.5, given)
    assert config.targets.tolist() == [[2, 0], [1, 2], [3, 3]]
    assert config.targets.dtype == np.intp
    assert not config.targets.flags.writeable
    assert given.flags.writeable and given.tolist() == [[3, 3], [2, 0], [1, 2]]


def test_initial_state_zero_loop_weight():
    config = make_config(side=4, na=0.0)
    psi = initial_state(config)
    np.testing.assert_allclose(psi[:-1].real, 1.0 / np.sqrt(8 * 16), rtol=0, atol=1e-15)
    assert np.all(psi[-1] == 0)


def test_initial_state_uniform_when_a_is_one():
    topo = TopologyParams.from_side(4)
    config = WalkConfig(topo, 1.0, ((1, 2),), EdgeMode.HN4)
    psi = initial_state(config)
    np.testing.assert_allclose(psi.real, 1.0 / 12.0, rtol=0, atol=1e-15)


@pytest.mark.parametrize("mode", list(EdgeMode))
@pytest.mark.parametrize("n", range(2, 10))
def test_initial_state_norm(mode, n):
    topo = TopologyParams(n)
    config = WalkConfig.with_na(topo, 8.5, ((1, 2),), mode)
    psi = initial_state(config)
    # exact summation: the bound is tighter than pairwise reduction error
    total = math.fsum((psi.real**2 + psi.imag**2).ravel().tolist())
    assert abs(total - 1.0) < 1e-14


def test_oracle_empty_targets_is_identity():
    psi = random_state(9, 16)
    before = psi.copy()
    apply_oracle(psi, np.array([], dtype=np.int64))
    np.testing.assert_array_equal(psi, before)


def test_empty_targets_hold_no_probability():
    psi = random_state(9, 16)
    for psi in (psi, psi.real.copy()):
        assert success_probability(psi, np.array([], dtype=np.int64)) == 0.0


def test_oracle_involution():
    config = make_config()
    psi = random_state(9, 16)
    before = psi.copy()
    idx = target_indices(config)
    apply_oracle(psi, idx)
    apply_oracle(psi, idx)
    assert np.max(np.abs(psi - before)) < 1e-15


def test_oracle_flips_exactly_one_block():
    # 4x4 grid, one target: 9 of the 144 amplitudes change sign
    config = make_config()
    psi = random_state(9, 16)
    before = psi.copy()
    apply_oracle(psi, target_indices(config))
    changed = psi != before
    assert changed.sum() == 9
    np.testing.assert_array_equal(psi[changed], -before[changed])


def test_coin_fixes_coin_state_and_negates_orthogonal():
    w = coin_weights(8.5 / 16, EdgeMode.HN4)
    block = np.repeat(w.astype(np.complex128)[:, None], 3, axis=1) * np.array([1.0, 2.0, 1j])
    psi = block.copy()
    apply_coin(psi, w)
    np.testing.assert_allclose(psi, block, atol=1e-14)

    ortho = np.zeros((9, 1), dtype=np.complex128)
    ortho[0, 0], ortho[1, 0] = w[1], -w[0]  # orthogonal to w by construction
    psi = ortho.copy()
    apply_coin(psi, w)
    np.testing.assert_allclose(psi, -ortho, atol=1e-14)


def test_coin_involution():
    w = coin_weights(0.03, EdgeMode.HN4)
    psi = random_state(9, 64)
    before = psi.copy()
    apply_coin(psi, w)
    apply_coin(psi, w)
    assert np.max(np.abs(psi - before)) < 1e-14


@pytest.mark.parametrize("mode", list(EdgeMode))
@pytest.mark.parametrize("n", [*range(2, 7), 9])  # side 512 (n = 9) runs many bands
def test_shift_permutation_is_bijection(mode, n):
    perm = shift_permutation(TopologyParams(n), mode)
    np.testing.assert_array_equal(np.sort(perm), np.arange(perm.size))


def _expected_shift_table(topo, mode):
    """The flip-flop gather table from the scalar hierarchy map alone.

    Direction f at (x, y) receives the reversed direction's amplitude from
    the vertex one move along f: (x + 1, y) for X+, (lr_next[x], y) for
    LX+, (x, y + 1) for Y+, and so on; hold stays put.
    """
    n, side = topo.n, topo.side
    ring_next = (np.arange(side) + 1) % side
    ring_prev = (np.arange(side) - 1) % side
    lr_next, lr_prev = np.arange(side), np.arange(side)  # exceptional lines: fixed points
    for level in range(n - 1):
        size = level_size(level, n)
        for rank in range(size):
            here = compose((level, rank), n) - 1
            lr_next[here] = compose((level, (rank + 1) % size), n) - 1
            lr_prev[here] = compose((level, (rank - 1) % size), n) - 1
    x, y = np.meshgrid(np.arange(side), np.arange(side))  # [y, x]
    d = CoinDirection
    source = {
        d.X_PLUS: (ring_next[x], y), d.X_MINUS: (ring_prev[x], y),
        d.Y_PLUS: (x, ring_next[y]), d.Y_MINUS: (x, ring_prev[y]),
        d.LX_PLUS: (lr_next[x], y), d.LX_MINUS: (lr_prev[x], y),
        d.LY_PLUS: (x, lr_next[y]), d.LY_MINUS: (x, lr_prev[y]),
        d.HOLD: (x, y),
    }
    reverse = {
        d.X_PLUS: d.X_MINUS, d.X_MINUS: d.X_PLUS,
        d.Y_PLUS: d.Y_MINUS, d.Y_MINUS: d.Y_PLUS,
        d.LX_PLUS: d.LX_MINUS, d.LX_MINUS: d.LX_PLUS,
        d.LY_PLUS: d.LY_MINUS, d.LY_MINUS: d.LY_PLUS,
        d.HOLD: d.HOLD,
    }
    dirs = directions(mode)
    row = {f: r for r, f in enumerate(dirs)}
    table = [
        row[reverse[f]] * topo.n_vertices + source[f][0] + side * source[f][1] for f in dirs
    ]
    return np.stack(table).reshape(-1)


@pytest.mark.parametrize("mode", list(EdgeMode))
@pytest.mark.parametrize("n", [2, 4, 9])  # side 512 (n = 9) runs many bands
def test_shift_permutation_matches_scalar_hierarchy(mode, n):
    topo = TopologyParams(n)
    np.testing.assert_array_equal(shift_permutation(topo, mode), _expected_shift_table(topo, mode))


@pytest.mark.parametrize("mode", list(EdgeMode))
def test_shift_involution(mode):
    topo = TopologyParams.from_side(8)
    perm = shift_permutation(topo, mode)
    psi = random_state(len(directions(mode)), topo.n_vertices)
    once = np.empty_like(psi)
    twice = np.empty_like(psi)
    apply_shift(psi, perm, once)
    apply_shift(once, perm, twice)
    assert np.max(np.abs(twice - psi)) < 1e-15


def test_shift_swaps_long_range_pair_at_exceptional_vertex():
    # x + 1 = 8 = 2**(n-1) on a 16-side lattice: LX+ and LX- swap in place
    topo = TopologyParams.from_side(16)
    perm = shift_permutation(topo, EdgeMode.HN4)
    psi = np.zeros((9, topo.n_vertices), dtype=np.complex128)
    v = 7 + 16 * 3
    psi[CoinDirection.LX_PLUS, v] = 1.0
    psi[CoinDirection.LX_MINUS, v] = 2.0
    out = np.empty_like(psi)
    apply_shift(psi, perm, out)
    assert out[CoinDirection.LX_MINUS, v] == 1.0
    assert out[CoinDirection.LX_PLUS, v] == 2.0
    out[CoinDirection.LX_MINUS, v] = out[CoinDirection.LX_PLUS, v] = 0.0
    assert np.all(out == 0)


@pytest.mark.parametrize("mode", list(EdgeMode))
def test_step_matches_dense_reference(mode):
    config = make_config(mode=mode)
    matrix = dense_step(config)
    n_coins = len(directions(mode))
    psi = random_state(n_coins, 16)
    expected = (matrix @ psi.reshape(-1)).reshape(n_coins, 16)
    got = step(psi.copy(), config)
    np.testing.assert_allclose(got, expected, atol=1e-12)

    # a real state stays on the engine's float64 path
    real = psi.real / np.linalg.norm(psi.real)
    engine = WalkEngine(config)
    engine.set_amplitudes(real)
    engine.advance()
    assert engine.amplitudes.dtype == np.float64
    expected = (matrix.real @ real.reshape(-1)).reshape(n_coins, 16)
    np.testing.assert_allclose(engine.amplitudes, expected, atol=1e-12)


def _public_stages(psi, config, steps):
    """``steps`` steps of oracle -> coin -> gather by shift_permutation."""
    out = np.empty_like(psi)
    idx = target_indices(config)
    weights = coin_weights(config.loop_weight, config.edge_mode)
    perm = shift_permutation(config.topology, config.edge_mode)
    for _ in range(steps):
        apply_oracle(psi, idx)
        apply_coin(psi, weights)
        apply_shift(psi, perm, out)
        psi, out = out, psi
    return psi


@pytest.mark.parametrize("mode, side", BAND_CASES)
def test_engine_matches_public_stages(mode, side):
    # the banded step against the public stages, with a target on the
    # exceptional line x + 1 = L/2 = 2**(n-1)
    steps = 50 if side == 64 else 20
    config = WalkConfig.with_na(TopologyParams.from_side(side), 8.5, ((side // 2 - 1, 5),), mode)
    engine = WalkEngine(config)
    engine.advance(steps)
    psi = _public_stages(initial_state(config), config, steps)
    assert np.max(np.abs(engine.amplitudes - psi)) <= 1e-13


def test_engine_matches_public_stages_complex_multi_band():
    # a random complex state reaches every slot of every band with a distinct value
    config = WalkConfig.with_na(TopologyParams.from_side(512), 8.5, ((255, 5), (3, 511)))
    psi = random_state(9, config.topology.n_vertices)
    engine = WalkEngine(config)
    engine.set_amplitudes(psi)
    engine.advance(3)
    assert engine.amplitudes.dtype == np.complex128
    assert np.max(np.abs(engine.amplitudes - _public_stages(psi, config, 3))) <= 1e-13


def _readout_targets(topo, count):
    """One, a fifth of the vertices, or all A^2 admissible vertices."""
    free = np.flatnonzero(~exceptional_lines(topo, EdgeMode.HN4))
    pairs = np.stack(np.meshgrid(free, free), axis=-1).reshape(-1, 2)
    m = {"one": 1, "fifth": round(0.2 * topo.n_vertices), "admissible": len(pairs)}[count]
    return pairs[np.sort(np.random.default_rng(7).choice(len(pairs), m, replace=False))]


@pytest.mark.parametrize("count", ["one", "fifth", "admissible"])
@pytest.mark.parametrize("side", [16, 64])
@pytest.mark.parametrize("mode", list(EdgeMode))
def test_readout_matches_the_amplitudes_at_both_parities(mode, side, count):
    # the engine reads its targets at even t by vertex and at odd t through
    # the odd-parity label; either way each sample is the readout of the
    # logical state, bit for bit
    topo = TopologyParams.from_side(side)
    config = WalkConfig.with_na(topo, 8.5, _readout_targets(topo, count), mode)
    indices = target_indices(config)
    walk = WalkEngine(config)
    for t, probability in enumerate(walk.trace(25)):
        assert walk.t == t
        assert probability == success_probability(walk.amplitudes, indices)


def _stepped(monkeypatch, config, cores, state=None, steps=20):
    monkeypatch.setattr(engine_module, "_step_cores", cores)
    engine = WalkEngine(config)
    if state is not None:
        engine.set_amplitudes(state)
    engine.advance(steps)
    return len(engine._parts), engine.amplitudes


@pytest.mark.parametrize("side", [512, 1024])
@pytest.mark.parametrize("mode", list(EdgeMode))
def test_two_part_step_is_bit_identical(monkeypatch, mode, side):
    # every vertex is computed by the same operations in the same order on
    # any process, so one part and two, the second on a helper past the
    # warm-up, agree exactly (a complex state on helpers:
    # test_complex_step_on_helpers_is_bit_identical)
    config = WalkConfig.with_na(TopologyParams.from_side(side), 17.0, ((1, 6), (255, 5)), mode)
    parts, serial = _stepped(monkeypatch, config, 1)
    assert parts == 1
    parts, split = _stepped(monkeypatch, config, 2)
    assert parts == 2 and np.array_equal(split, serial)


def test_step_with_more_parts_than_cores_from_a_thread(monkeypatch):
    # four parts on the engine's three helpers, the interpreter switching
    # threads every 10 us
    config = WalkConfig.with_na(TopologyParams.from_side(512), 17.0, ((1, 6), (255, 5)))
    _, serial = _stepped(monkeypatch, config, 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        result = []
        walker = threading.Thread(target=lambda: result.append(_stepped(monkeypatch, config, 4)))
        walker.start()
        walker.join(120)
        assert not walker.is_alive(), "the step from a thread did not finish"
    finally:
        sys.setswitchinterval(interval)
    parts, split = result[0]
    assert parts == 4 and np.array_equal(split, serial)


def _helper_pids(walk):
    return [pid for pid, _, _ in walk._helpers.procs]


def _reaped(pid):
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def test_helper_processes_end_with_their_engine(monkeypatch):
    # a two-part engine forks no helper at construction or during the serial
    # warm-up, exactly one once stepped past it, and reaps it when dropped; a
    # one-part engine never forks
    config = WalkConfig.with_na(TopologyParams.from_side(512), 17.0, ((1, 6),))
    monkeypatch.setattr(engine_module, "_step_cores", 2)
    walk = WalkEngine(config)
    assert len(walk._parts) == 2 and not _helper_pids(walk)
    walk.advance(engine_module._WARMUP_STEPS)
    assert not _helper_pids(walk)
    walk.advance()
    (pid,) = _helper_pids(walk)
    assert not _reaped(pid)
    del walk
    assert _reaped(pid), "a step helper outlived its engine"
    monkeypatch.setattr(engine_module, "_step_cores", 1)
    walk = WalkEngine(config)
    walk.advance(engine_module._WARMUP_STEPS + 3)
    assert len(walk._parts) == 1 and not _helper_pids(walk)


def test_stepped_processes_counts_the_helpers_that_ran(monkeypatch):
    # a two-part engine steps on one process through the warm-up, then on two
    config = WalkConfig.with_na(TopologyParams.from_side(512), 8.5, ((1, 6),))
    monkeypatch.setattr(engine_module, "_step_cores", 2)
    walk = WalkEngine(config)
    assert walk.stepped_processes == 1
    walk.advance(engine_module._WARMUP_STEPS)
    assert walk.stepped_processes == 1
    walk.advance()
    assert walk.stepped_processes == 2


def test_helper_processes_end_at_interpreter_exit():
    # a process that exits with its engine still held reaps every helper
    script = (
        "from hn4walk import engine\n"
        "engine._step_cores = 2\n"
        "walk = engine.WalkEngine(engine.WalkConfig.with_na("
        "engine.TopologyParams.from_side(512), 17.0, ((1, 6),)))\n"
        "walk.advance(engine._WARMUP_STEPS + 1)\n"
        "print(*[pid for pid, _, _ in walk._helpers.procs])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(engine_module.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    pids = [int(pid) for pid in result.stdout.split()]
    assert len(pids) == 1
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def _helper_engine(monkeypatch, config, state=None):
    """A two-part engine stepped one step past the warm-up, so on its helper."""
    monkeypatch.setattr(engine_module, "_step_cores", 2)
    walk = WalkEngine(config)
    if state is not None:
        walk.set_amplitudes(state)
    walk.advance(engine_module._WARMUP_STEPS + 1)
    assert len(_helper_pids(walk)) == 1
    return walk


def test_dead_helper_leaves_the_walk_on_one_process(monkeypatch, caplog):
    # the step in progress and every later one run on the calling process,
    # so the walk is the serial walk of the same steps
    config = WalkConfig.with_na(TopologyParams.from_side(512), 17.0, ((1, 6), (255, 5)))
    steps = engine_module._WARMUP_STEPS + 3
    _, serial = _stepped(monkeypatch, config, 1, steps=steps)
    walk = _helper_engine(monkeypatch, config)
    (pid,) = _helper_pids(walk)
    os.kill(pid, signal.SIGKILL)
    raised = []

    def step():
        try:
            walk.advance(2)
        except BaseException as exc:
            raised.append(exc)

    with caplog.at_level(logging.WARNING, logger="hn4walk.engine"):
        stepper = threading.Thread(target=step, daemon=True)  # a hang must not block exit
        stepper.start()
        stepper.join(60)
    assert not stepper.is_alive(), "a step hung on a dead helper"
    assert raised == [] and _reaped(pid)
    assert len(walk._parts) == 1 and not _helper_pids(walk)
    assert len([r for r in caplog.records if "one process" in r.message]) == 1
    assert walk.t == steps and np.array_equal(walk.amplitudes, serial)


@pytest.mark.parametrize(
    "side, interrupted, on_ack, helpers",
    [(64, 6, False, 0), (512, engine_module._WARMUP_STEPS + 3, False, 1),
     (512, engine_module._WARMUP_STEPS + 3, True, 0)],
    ids=["one-process", "helpers", "helpers-ack"],
)
def test_interrupted_step_leaves_the_walk_as_it_was(monkeypatch, side, interrupted, on_ack,
                                                    helpers):
    # an interrupt in the calling process's band pass of step `interrupted`,
    # or while it waits for the helper's ack, leaves t and the amplitudes of
    # the step before; the walk then steps on as if never interrupted, on its
    # helper unless the interrupt left the ack unread
    config = WalkConfig.with_na(TopologyParams.from_side(side), 8.5, ((1, 6), (side // 2 - 1, 5)))
    steps = interrupted + 4
    _, serial = _stepped(monkeypatch, config, 1, steps=steps)
    monkeypatch.setattr(engine_module, "_step_cores", 2)
    walk = WalkEngine(config)
    walk.advance(interrupted - 1)
    before = walk.amplitudes.copy()

    def interrupt(*args):
        raise KeyboardInterrupt

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(*((os, "read") if on_ack else (walk, "_step_part")), interrupt)
        with pytest.raises(KeyboardInterrupt):
            walk.advance()
    assert walk.t == interrupted - 1 and np.array_equal(walk.amplitudes, before)
    walk.advance(steps - walk.t)
    assert len(_helper_pids(walk)) == helpers
    assert np.array_equal(walk.amplitudes, serial)


@pytest.mark.parametrize(
    "side, interrupted, helpers",
    [(64, 7, 0), (512, engine_module._WARMUP_STEPS + 4, 1)],
    ids=["one-process", "helpers"],
)
def test_interrupted_loaded_walk_is_rebuilt_from_its_load(monkeypatch, side, interrupted,
                                                          helpers):
    # a loaded complex walk interrupted after its caller's band pass of step
    # `interrupted` (even at side 64, odd at 512) reads back the amplitudes
    # of the step before, rebuilt from its own copy of the loaded state, and
    # steps on to the serial walk
    config = WalkConfig.with_na(TopologyParams.from_side(side), 8.5, ((1, 6), (side // 2 - 1, 5)))
    psi = random_state(9, config.topology.n_vertices)
    steps = interrupted + 4
    _, serial = _stepped(monkeypatch, config, 1, psi, steps=steps)
    monkeypatch.setattr(engine_module, "_step_cores", 2)
    walk = WalkEngine(config)
    walk.set_amplitudes(psi)
    psi[...] = 0.0
    walk.advance(interrupted - 1)
    before = walk.amplitudes.copy()
    step_part = walk._step_part

    def step_then_interrupt(*args):
        step_part(*args)
        raise KeyboardInterrupt

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(walk, "_step_part", step_then_interrupt)
        with pytest.raises(KeyboardInterrupt):
            walk.advance()
    assert walk.t == interrupted - 1 and np.array_equal(walk.amplitudes, before)
    walk.advance(steps - walk.t)
    assert len(_helper_pids(walk)) == helpers
    assert walk.amplitudes.dtype == np.complex128 and np.array_equal(walk.amplitudes, serial)


def _refusals_in_forked_child(walk, state):
    """Whether a forked child's step and load of ``walk`` each raise
    RuntimeError naming the remedy."""
    fork = multiprocessing.get_context("fork")
    receive, send = fork.Pipe(duplex=False)

    def child():
        refused = []
        for write in (walk.advance, lambda: walk.set_amplitudes(state)):
            try:
                write()
            except RuntimeError as exc:
                refused.append("build a new engine" in str(exc))
        send.send(refused)

    process = fork.Process(target=child)
    process.start()
    try:
        assert receive.poll(60), "the forked child did not answer"
        refused = receive.recv()
    finally:
        process.join(10)
        if process.is_alive():
            process.terminate()
            process.join(10)
    assert process.exitcode == 0
    return refused


def test_forked_child_refuses_to_write_shared_state(monkeypatch):
    # a child's step or load would write into the parent's shared buffers
    config = WalkConfig.with_na(TopologyParams.from_side(512), 17.0, ((1, 6), (255, 5)))
    _, serial = _stepped(monkeypatch, config, 1, steps=2 * engine_module._WARMUP_STEPS)
    walk = _helper_engine(monkeypatch, config)
    assert _refusals_in_forked_child(walk, serial) == [True, True]
    walk.advance(engine_module._WARMUP_STEPS - 1)
    assert np.array_equal(walk.amplitudes, serial)


def test_forked_child_refuses_an_engine_that_never_started_helpers():
    # an engine belongs to the process that built it, helpers or not
    config = make_config(side=64, targets=((1, 6),))
    walk = WalkEngine(config)
    walk.advance(3)
    assert _refusals_in_forked_child(walk, initial_state(config)) == [True, True]
    assert walk.t == 3
    walk.advance(2)
    fresh = WalkEngine(config)
    fresh.advance(5)
    assert np.array_equal(walk.amplitudes, fresh.amplitudes)


@pytest.mark.parametrize("refused", [1, 2], ids=["state-mmap", "fork"])
def test_helper_that_cannot_start_leaves_the_walk_on_one_process(monkeypatch, caplog, refused):
    # the shared state buffer or the helper itself refused by an OSError: one
    # warning, the walk on one process, and no second attempt
    config = WalkConfig.with_na(TopologyParams.from_side(512), 17.0, ((1, 6), (255, 5)))
    steps = engine_module._WARMUP_STEPS + 3
    _, serial = _stepped(monkeypatch, config, 1, steps=steps)
    _, twice = _stepped(monkeypatch, config, 1, steps=2 * steps)
    attempts = []

    def attempt(call):
        def refuse_or_call(*args):
            attempts.append(call.__name__)
            if len(attempts) == refused:
                raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return call(*args)
        return refuse_or_call

    monkeypatch.setattr(mmap, "mmap", attempt(mmap.mmap))
    monkeypatch.setattr(os, "fork", attempt(os.fork))
    monkeypatch.setattr(engine_module, "_step_cores", 2)
    walk = WalkEngine(config)
    with caplog.at_level(logging.WARNING, logger="hn4walk.engine"):
        walk.advance(steps)
        assert np.array_equal(walk.amplitudes, serial)
        walk.advance(steps)
    assert np.array_equal(walk.amplitudes, twice)
    assert attempts == ["mmap", "fork"][:refused]
    assert len(walk._parts) == 1 and not _helper_pids(walk)
    assert len([r for r in caplog.records if "could not start" in r.message]) == 1


@pytest.mark.parametrize("mode", list(EdgeMode))
def test_complex_step_on_helpers_is_bit_identical(monkeypatch, mode):
    config = WalkConfig.with_na(TopologyParams.from_side(512), 17.0, ((1, 6), (255, 5)), mode)
    psi = random_state(len(directions(mode)), config.topology.n_vertices)
    steps = engine_module._WARMUP_STEPS + 3
    _, serial = _stepped(monkeypatch, config, 1, psi, steps=steps)
    walk = _helper_engine(monkeypatch, config, psi)
    walk.advance(2)
    assert walk.amplitudes.dtype == np.complex128 and np.array_equal(walk.amplitudes, serial)


@pytest.mark.parametrize("mode", list(EdgeMode))
def test_norm_drift_over_long_run(mode):
    # evolution never renormalises, so the drift of the norm is what the
    # arithmetic leaves; both modes measure about 5e-13 after 2000 steps
    config = make_config(side=64, targets=((1, 6), (31, 5)), mode=mode)
    engine = WalkEngine(config)
    engine.advance(2000)
    assert abs(float(np.sum(engine.amplitudes**2)) - 1.0) <= 1e-11


def test_step_is_stationary_without_targets():
    for mode in EdgeMode:
        config = WalkConfig.with_na(TopologyParams.from_side(64), 8.5, (), mode)
        psi = initial_state(config)
        after = step(psi.copy(), config)
        assert np.linalg.norm(after - psi) < 1e-12


def test_step_preserves_norm():
    config = make_config(side=8)
    psi = random_state(9, 64)
    after = step(psi.copy(), config)
    assert abs(np.linalg.norm(after) - 1.0) < 1e-14


def test_success_probability_cases():
    config = make_config(side=4, targets=((1, 2),))
    idx = target_indices(config)
    psi = np.zeros((9, 16), dtype=np.complex128)
    psi[3, idx[0]] = 1.0
    assert success_probability(psi, idx) == pytest.approx(1.0)

    everything = np.arange(16, dtype=np.int64)
    psi = random_state(9, 16)
    assert success_probability(psi, everything) == pytest.approx(1.0)


def test_trace_starts_at_m_over_n():
    config = make_config(side=16, targets=((1, 6), (3, 4), (9, 2)))
    trace = run(config, 0)
    assert len(trace) == 1
    assert trace[0] == pytest.approx(3 / 256, abs=1e-15)


def test_trace_invariant_under_target_permutation():
    topo = TopologyParams.from_side(16)
    targets = ((1, 6), (3, 4), (9, 2))
    a = run(WalkConfig.with_na(topo, 25.0, targets), 40)
    b = run(WalkConfig.with_na(topo, 25.0, targets[::-1]), 40)
    np.testing.assert_array_equal(a, b)


def test_run_is_deterministic():
    config = make_config(side=16, targets=((1, 6),), na=8.5)
    a = run(config, 50)
    b = run(config, 50)
    np.testing.assert_array_equal(a, b)


def test_memory_requirement_and_limit(monkeypatch):
    topo = TopologyParams.from_side(16)
    assert memory_requirement(topo, EdgeMode.HN4) == 8 * 9 * 256 + 8 * (9 + 1) * 256
    assert memory_requirement(topo, EdgeMode.GRID) == 8 * 5 * 256 + 8 * (5 + 1) * 256
    assert memory_requirement(TopologyParams.from_side(4096), EdgeMode.HN4) <= DEFAULT_MEMORY_LIMIT
    config = WalkConfig.with_na(topo, 8.5, ((1, 6),))
    monkeypatch.setattr(engine_module, "DEFAULT_MEMORY_LIMIT", 1024)
    with pytest.raises(ResourceLimitError):
        WalkEngine(config)
    # a complex state doubles every buffer; loading one is guarded too.  The
    # limit is the one-target walk's own figure, which counts its target
    limit = memory_requirement(topo, EdgeMode.HN4, 1)
    monkeypatch.setattr(engine_module, "DEFAULT_MEMORY_LIMIT", limit)
    engine = WalkEngine(config)
    with pytest.raises(ResourceLimitError):
        engine.set_amplitudes(random_state(9, 256))


@pytest.mark.parametrize("mode, side", BAND_CASES)
def test_memory_requirement_covers_engine_allocations(mode, side):
    # every large allocation must be counted by the guard; "large" starts at
    # the float64 coin term g, one band of y rows whatever the parts (the
    # whole grid at side 64, 56 or 102 of its 512 rows at 512); a loaded
    # complex state doubles every buffer and keeps a copy of what it loaded
    topo = TopologyParams.from_side(side)
    n_coins = len(directions(mode))
    config = WalkConfig.with_na(topo, 8.5, ((1, 6),), mode)
    band_bytes = (memory_requirement(topo, mode) - 8 * n_coins * topo.n_vertices) // (n_coins + 1)
    psi = random_state(n_coins, topo.n_vertices)
    tracemalloc.start()
    try:
        engine = WalkEngine(config)
        snapshot = tracemalloc.take_snapshot()
        engine.set_amplitudes(psi)
        complex_snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()

    def large(snap):
        return sum(t.size for t in snap.traces if t.size >= band_bytes)

    assert large(snapshot) <= memory_requirement(topo, mode)
    assert large(snapshot) >= 8 * n_coins * topo.n_vertices + (n_coins + 1) * band_bytes
    assert engine.amplitudes.dtype == np.complex128
    loaded = 16 * n_coins * topo.n_vertices
    assert large(complex_snapshot) <= 2 * memory_requirement(topo, mode) + loaded


@pytest.mark.parametrize("side", [512, 1024])
@pytest.mark.parametrize("mode", list(EdgeMode))
def test_memory_requirement_is_one_band_pair_on_any_cores(monkeypatch, mode, side):
    # every process steps its parts in one band buffer of C - 1 edge rows and
    # one pair of coin terms g and h, each of the first band's R y rows, so
    # the guard counts 8 * (C * N + (C + 1) * R * L) bytes however many parts
    # the step is split into
    topo = TopologyParams.from_side(side)
    needed = set()
    for cores in (1, 2, 4):
        monkeypatch.setattr(engine_module, "_step_cores", cores)
        needed.add(memory_requirement(topo, mode))
        rows = engine_module._layout(topo, mode)[0][0][1]
    coins = len(directions(mode))
    assert needed == {8 * (coins * topo.n_vertices + (coins + 1) * rows * side)}


def test_side_8192_walk_fits_the_memory_limit():
    # one state buffer of 4.83 GB where two (9.66 GB) overran the 8 GiB limit
    assert memory_requirement(TopologyParams.from_side(8192), EdgeMode.HN4) <= DEFAULT_MEMORY_LIMIT


def test_helpers_need_room_to_move_the_state(monkeypatch, caplog):
    # a limit that admits the walk but not the transient second state buffer
    # of its move into shared memory leaves a two-part walk on one process,
    # with one warning once the warm-up ends
    topo = TopologyParams.from_side(512)
    config = WalkConfig.with_na(topo, 17.0, ((1, 6), (255, 5)))
    steps = engine_module._WARMUP_STEPS + 3
    _, serial = _stepped(monkeypatch, config, 1, steps=steps)
    state_bytes = 8 * 9 * topo.n_vertices
    limit = memory_requirement(topo, EdgeMode.HN4, 2) + state_bytes // 2
    monkeypatch.setattr(engine_module, "DEFAULT_MEMORY_LIMIT", limit)
    monkeypatch.setattr(engine_module, "_step_cores", 2)
    walk = WalkEngine(config)
    assert len(walk._parts) == 2
    with caplog.at_level(logging.WARNING, logger="hn4walk.engine"):
        walk.advance(engine_module._WARMUP_STEPS)
        assert caplog.records == []
        walk.advance(steps - walk.t)
    assert len(walk._parts) == 1 and not _helper_pids(walk)
    assert len([r for r in caplog.records if "could not start" in r.message]) == 1
    assert np.array_equal(walk.amplitudes, serial)


def test_engine_counts_steps_and_resets():
    engine = WalkEngine(make_config(side=16, targets=((1, 6),)))
    p0 = engine.probability()
    engine.advance(7)
    assert engine.t == 7
    engine.set_amplitudes(initial_state(engine.config))
    assert engine.t == 0
    assert engine.probability() == p0


def test_engine_state_dtype_follows_loaded_amplitudes():
    config = make_config(side=16, targets=((1, 6),))
    engine = WalkEngine(config)
    assert engine.amplitudes.dtype == np.float64
    engine.advance(5)
    assert engine.amplitudes.dtype == np.float64
    engine.set_amplitudes(random_state(9, 256))
    assert engine.amplitudes.dtype == np.complex128
    engine.advance()
    assert engine.amplitudes.dtype == np.complex128
    engine.set_amplitudes(initial_state(config))
    assert engine.amplitudes.dtype == np.float64
    np.testing.assert_array_equal(engine.amplitudes, initial_state(config))


def test_building_an_engine_logs_nothing(caplog):
    # the exceptional-target warning belongs to where targets are chosen
    # (hn4walk.experiments), so an engine on such targets builds silently
    with caplog.at_level(logging.DEBUG, logger="hn4walk"):
        WalkEngine(make_config(side=16, targets=((6, 7), (1, 2), (15, 0))))
        WalkEngine(make_config(side=64, targets=((31, 6),)))
    assert caplog.records == []


def test_amplified_cost():
    assert amplified_cost(100, 1.0) == 100
    assert amplified_cost(100, 0.25) == 200
    with pytest.raises(ValueError):
        amplified_cost(100, 0.0)
    with pytest.raises(ValueError):
        amplified_cost(100, 1.5)
