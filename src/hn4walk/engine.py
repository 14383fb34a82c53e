"""State-vector evolution of the lackadaisical walk.

The walker state lives on (coin direction, vertex) pairs and is stored as a
C x N float64 array, C = 9 with long-range edges and 5 without; every
operator is real, so a real state stays real.  Complex states, loaded for
analysis, evolve through the same code.  One step applies, in order, the
phase oracle over the marked vertices, the weighted Grover coin, and the
flip-flop shift.  The shift follows the lattice: every grid and long-range
move permutes the L entries of a line by one of the lines of
:func:`~hn4walk.topology.move_lines`, so on the C x L x L view of the state
each is an L-entry gather along x or a row gather along y, and hold stays.

Every edge direction has the same coin weight, so the coin turns each edge
row r into g - state[r] with one term g per vertex that all edge rows share.
The flip-flop shift sends row r to row r ^ 1 along its own move, and row
r ^ 1 moves back along the inverse, so the engine never moves its data: it
steps one state buffer in place and lets the rows stand displaced for one
step.  After an even step logical row q lives in buffer row q ^ 1, displaced
by q's own move, psi[q][v] = buffer[q ^ 1][f_q(v)]; the odd step reads each
row through that label, coins it and writes it back through the same index,
which leaves the labels the identity again.  The engine walks the grid in
bands of consecutive y rows, sized so that the C rows of a band (about
2 MiB) stay in cache between the two reads of it.  At even t a band is
coined where it lies; at odd t its C - 1 edge rows are gathered into one
band buffer, coined there and written back, and the hold row is coined in
place.  A step needs no table and, beside the state buffer, one band buffer
and the band-sized coin terms g and h.

Bands are independent: at either parity each reads and writes only its own
entries of the state buffer.  A lattice of at least two bands per core
therefore splits its y rows into one contiguous part per core the step may
use.  The calling process runs the first part and one forked helper process
per other part runs that part, each with its own interpreter, so no part
waits for another's interpreter lock.  The helpers step the state buffer in
shared anonymous memory, each in its own copy-on-write copy of the band
buffers; an engine moves its state there and forks its helpers only after a
serial warm-up, so a short walk never forks, and only when the move's
transient second buffer fits the memory limit.  An engine whose shared
buffer or helpers cannot be had, or whose helper dies, steps the rest of its
walk on the calling process.  Each vertex is computed by the same operations
in the same order whatever the banding, so the result is bit-identical for
any band size and process count.  A job-pool worker steps on one core, as
its siblings fill the other cores.  An engine belongs to the process that
built it, whose helpers may share its state, so a forked child refuses to
step or load an engine it inherited: build a new engine there.  A step that
raises, such as on an interrupt, or whose helper dies, leaves the buffer
part-written; before the walk next steps or is read it is rebuilt bit for
bit by replaying its steps from its origin, the initial state or a copy of
the loaded one.

Evolution never renormalises: norm drift is a measured property, not a
silently corrected one.
"""

from __future__ import annotations

import logging
import math
import os
import weakref
from dataclasses import dataclass
from enum import IntEnum
from typing import Iterator

import numpy as np
from numpy.typing import ArrayLike

from .reporting import available_cores
from .topology import (
    EdgeMode,
    TopologyError,
    TopologyParams,
    move_lines,
)

__all__ = [
    "CoinDirection",
    "EdgeMode",
    "WalkConfig",
    "ResourceLimitError",
    "WalkEngine",
    "directions",
    "coin_weights",
    "initial_state",
    "target_indices",
    "shift_permutation",
    "apply_oracle",
    "apply_coin",
    "apply_shift",
    "step",
    "success_probability",
    "amplified_cost",
    "available_cores",
    "memory_requirement",
    "run",
    "DEFAULT_MEMORY_LIMIT",
]

logger = logging.getLogger(__name__)

#: Bytes past which an engine, or a job pool's engines together, are refused.
#: The one copy of the limit: every check reads it when it runs.
DEFAULT_MEMORY_LIMIT = 8 * 2**30


class ResourceLimitError(RuntimeError):
    """Estimated engine memory exceeds :data:`DEFAULT_MEMORY_LIMIT`."""


class CoinDirection(IntEnum):
    """Coin basis states: four grid moves, four long-range moves, one hold."""

    X_PLUS = 0
    X_MINUS = 1
    Y_PLUS = 2
    Y_MINUS = 3
    LX_PLUS = 4
    LX_MINUS = 5
    LY_PLUS = 6
    LY_MINUS = 7
    HOLD = 8


#: Per kind of move of :func:`~hn4walk.topology.move_lines` the rows are +x,
#: -x, +y, -y, so an edge row r reverses into row r ^ 1; hold comes last.
_HN4_DIRECTIONS = tuple(CoinDirection)
_GRID_DIRECTIONS = _HN4_DIRECTIONS[:4] + _HN4_DIRECTIONS[-1:]  # the ring's rows and hold


def directions(edge_mode: EdgeMode) -> tuple[CoinDirection, ...]:
    """Coin basis in state-row order for a mode; the hold direction is always last."""
    return _HN4_DIRECTIONS if EdgeMode(edge_mode) is EdgeMode.HN4 else _GRID_DIRECTIONS


@dataclass(frozen=True, eq=False)
class WalkConfig:
    """Full description of one walk: lattice, self-loop weight, targets, mode.

    ``loop_weight`` is the per-vertex weight a; experiment code usually works
    with the scale-free product N*a and should construct configs through
    :meth:`with_na`.  ``targets`` accepts any array-like of integer (x, y)
    pairs and is stored as a read-only (M, 2) ``intp`` copy whose rows are
    sorted by linear index x + L * y.
    """

    topology: TopologyParams
    loop_weight: float
    targets: np.ndarray = ()
    edge_mode: EdgeMode = EdgeMode.HN4

    def __post_init__(self) -> None:
        if not math.isfinite(self.loop_weight) or self.loop_weight < 0:
            raise ValueError(f"loop weight must be finite and >= 0, got {self.loop_weight!r}")
        object.__setattr__(self, "edge_mode", EdgeMode(self.edge_mode))
        try:
            xy = np.asarray(self.targets)
        except ValueError as exc:  # ragged input
            raise TopologyError(f"targets must be pairs of integers: {exc}") from exc
        if xy.shape == (0,):  # no targets
            xy = xy.astype(np.intp).reshape(0, 2)
        if xy.ndim != 2 or xy.shape[1] != 2 or xy.dtype.kind not in "iu":
            raise TopologyError(
                f"targets must be (x, y) pairs of integers, got shape {xy.shape} "
                f"and dtype {xy.dtype}"
            )
        side = self.topology.side
        outside = (xy < 0) | (xy >= side)
        if outside.any():
            vertex = tuple(xy[outside.any(axis=1)][0].tolist())
            raise TopologyError(f"vertex {vertex} outside [0, {side - 1}]^2")
        xy = xy.astype(np.intp, copy=False)
        index = xy[:, 0] + side * xy[:, 1]
        order = np.argsort(index)
        index = index[order]
        if np.any(index[1:] == index[:-1]):
            raise ValueError("duplicate target vertices")
        xy = np.take(xy, order, axis=0)  # a new array: the caller's is never frozen or aliased
        xy.flags.writeable = False
        object.__setattr__(self, "targets", xy)

    @classmethod
    def with_na(
        cls,
        topology: TopologyParams,
        na: float,
        targets: ArrayLike = (),
        edge_mode: EdgeMode = EdgeMode.HN4,
    ) -> "WalkConfig":
        """Build a config from the total weight N*a, the knob experiments tune."""
        return cls(topology, na / topology.n_vertices, targets, edge_mode)

    @property
    def na(self) -> float:
        return self.loop_weight * self.topology.n_vertices

    @property
    def target_count(self) -> int:
        return len(self.targets)


def coin_weights(loop_weight: float, edge_mode: EdgeMode) -> np.ndarray:
    """Amplitudes of the weighted uniform coin state.

    Every edge direction carries 1/sqrt(d + a) and the hold direction
    sqrt(a)/sqrt(d + a), d being the number of true edges (8 or 4).
    """
    if loop_weight < 0:
        raise ValueError("loop weight must be >= 0")
    dirs = directions(edge_mode)
    degree = len(dirs) - 1
    norm = math.sqrt(degree + loop_weight)
    weights = np.full(len(dirs), 1.0 / norm)
    weights[-1] = math.sqrt(loop_weight) / norm
    return weights


def _initial_column(config: WalkConfig) -> np.ndarray:
    """Amplitudes of every vertex in the initial state, as a C x 1 column."""
    weights = coin_weights(config.loop_weight, config.edge_mode)
    return (weights / math.sqrt(config.topology.n_vertices))[:, None]


def initial_state(config: WalkConfig) -> np.ndarray:
    """Product of the weighted coin state and the uniform vertex state (float64)."""
    return np.repeat(_initial_column(config), config.topology.n_vertices, axis=1)


def target_indices(config: WalkConfig) -> np.ndarray:
    """Sorted linear indices of the marked vertices."""
    t = config.targets
    return t[:, 0] + config.topology.side * t[:, 1]


#: Bytes of the C float64 rows of one band, so that a band read for its coin
#: terms is still cached when it is coined and, at odd t, when its gathered
#: edge rows are written back.  Measured with ``advance`` (median of 12
#: blocks of 10 steps), HN4 side 512 stepped in 4.36, 4.54 and 4.84 ms on one
#: process with 1, 2 and 4 MiB bands, and in 3.03, 2.88 and 3.01 ms on two.
#: 4 MiB leaves grid side 512 with three bands, too few for two parts (2.77
#: against 1.54 ms), so 2 MiB.
_BAND_BYTES = 2 * 2**20


#: Steps an engine of more than one part takes on the calling process alone
#: before it forks its helpers (:meth:`WalkEngine.advance`), just above their
#: break-even.  Measured on two cores, moving the buffers and forking, the
#: first step's faults on fresh shared 4 KiB pages and copy-on-write pages,
#: and ending the helper took 29-38 ms at HN4 side 512 and 140-150 ms at
#: side 1024, while a step on the helper saved 3.1-4.6 and 18-20 ms against
#: one core: 7-11 steps in either mode at either side, as both scale with N.
#: A short walk, such as a 4-step density job, never forks.
_WARMUP_STEPS = 12


#: Cores a step may use in this process, None for every available core.  A
#: job-pool worker sets 1 (:func:`_step_on_one_core`), so a pool holds one
#: stepping process per worker.  Without that a pool holds up to workers x
#: min(cores, bands // 2): 40 processes at HN4 side 512 on 8 cores, and 1008
#: at side 1024 on 64 cores (56 workers, the most the memory limit admits, x
#: 18 parts).  Measured on 2 cores with 2 workers, dropping the rule wrote the
#: same CSVs and gained most where the job that ends last could use both
#: cores: ``scale --sides 512 --m 4 --na-rule 8.5M --trials 2`` took a median
#: 4.17 s against 4.57 s with it, 6 trials 10.38 against 10.54 s, and
#: ``scale --sides 64,128,256,512 --m 1 --na 8.5 --trials 2`` 10.90 against
#: 10.91 s.
_step_cores: int | None = None


def _step_on_one_core() -> None:
    """Job-pool worker initializer: step on the calling process only, since
    the sibling workers already fill the other cores."""
    global _step_cores
    _step_cores = 1


def _band_rows(topology: TopologyParams, edge_mode: EdgeMode) -> int:
    """The one band rule: the y rows R of a band, as many as keep its C float64
    rows within ``_BAND_BYTES`` (the whole grid up to side 128 with long-range
    edges), at least one.  The step's layout, its band buffers and
    :func:`memory_requirement` read it."""
    side = topology.side
    return min(side, max(1, _BAND_BYTES // (len(directions(edge_mode)) * side * 8)))


#: (y0, y1) of every band of every part of a step (:func:`_layout`).
_Layout = tuple[tuple[tuple[int, int], ...], ...]


def _layout(topology: TopologyParams, edge_mode: EdgeMode) -> _Layout:
    """The one band layout of a step: bands of :func:`_band_rows` y rows split
    into one contiguous part per process of the step.  The parts are at most
    one per core the step may use, and only as many as leave at least two
    bands per part.  Only the last band of a part may be shorter than the
    first band, (0, rows)."""
    side = topology.side
    rows = _band_rows(topology, edge_mode)
    parts = max(1, min(_step_cores or available_cores(), -(-side // rows) // 2))
    cuts = [side * i // parts for i in range(parts + 1)]
    return tuple(
        tuple((y0, min(y0 + rows, end)) for y0 in range(start, end, rows))
        for start, end in zip(cuts, cuts[1:])
    )


#: (row, along x, line, inverse line) of every edge row (:func:`_moves`).
_Moves = tuple[tuple[int, bool, np.ndarray, np.ndarray], ...]


def _moves(topology: TopologyParams, edge_mode: EdgeMode) -> _Moves:
    """(row, along x, line, inverse line) of every edge row q.

    Kind k of :func:`~hn4walk.topology.move_lines` holds the rows 4k .. 4k + 3,
    +x, -x, +y and -y, and its (forward, backward) lines.  Row q moves one step
    along its own direction, forward for + and backward for -, so its line
    f_q is the forward line for + rows and the backward one for - rows, and
    the reversed row q ^ 1 moves along the inverse line.  After an even step
    logical row q lives in state row q ^ 1 at f_q (:func:`_gather`).
    """
    moves = []
    for kind, lines in enumerate(move_lines(topology, edge_mode)):
        for q in range(4 * kind, 4 * kind + 4):
            moves.append((q, q % 4 < 2, lines[q & 1], lines[(q & 1) ^ 1]))
    return tuple(moves)


def _gather(
    state: np.ndarray,
    y0: int,
    y1: int,
    out: np.ndarray,
    moves: _Moves,
) -> None:
    """The odd-parity label of the edge rows: out[q] = state[q ^ 1] at f_q.

    ``state`` is a C x L x L view indexed [row, y, x] (vertex x + L * y) and
    ``out`` has one (y1 - y0) x L row per edge row: out[q][y, x] is logical
    row q at (x, y0 + y), an L-entry gather of state[q ^ 1] along x or a row
    gather along y by the :func:`_moves` line.  The gathers index only valid
    coordinates, so mode "clip" skips numpy's buffered bounds check.
    """
    for q, along_x, line, _ in moves:
        if along_x:
            np.take(state[q ^ 1, y0:y1], line, axis=1, out=out[q], mode="clip")
        else:
            np.take(state[q ^ 1], line[y0:y1], axis=0, out=out[q], mode="clip")


def _unshifted(state: np.ndarray, moves: _Moves) -> np.ndarray:
    """The logical state of a C x L x L state buffer at odd parity, as a new
    array: every edge row read through :func:`_gather`, hold in place."""
    out = np.empty_like(state)
    _gather(state, 0, state.shape[1], out, moves)
    out[-1] = state[-1]
    return out


def _coin_band(state: np.ndarray, y0: int, y1: int, g: np.ndarray, h: np.ndarray,
               weights: np.ndarray) -> None:
    """Even parity: coin rows y0:y1 of every coin row where they lie; nothing
    moves, so after it each edge row stands displaced by its move."""
    band = state[:, y0:y1]
    _coin_terms(band[:-1], band[-1], weights, g, h)
    for row in band[:-1]:  # row by row: numpy buffers a broadcast in-place subtract
        np.subtract(g, row, out=row)
    np.subtract(h, band[-1], out=band[-1])


def _unshift_band(
    state: np.ndarray,
    y0: int,
    y1: int,
    band: np.ndarray,
    g: np.ndarray,
    h: np.ndarray,
    weights: np.ndarray,
    moves: _Moves,
) -> None:
    """Odd parity: gather logical rows y0:y1 of every edge row into ``band``
    (:func:`_gather`), coin them there with the hold row, which is coined in
    place, and write each back through the same index: along x an L-entry
    gather by the inverse line, along y a row scatter by the line itself.
    Every entry goes back where it was read from, which is where the shift
    puts it, so the labels are the identity again."""
    _gather(state, y0, y1, band, moves)
    hold = state[-1, y0:y1]
    _coin_terms(band, hold, weights, g, h)
    np.subtract(h, hold, out=hold)
    for q, along_x, line, inverse in moves:
        np.subtract(g, band[q], out=band[q])
        if along_x:
            np.take(band[q], inverse, axis=1, out=state[q ^ 1, y0:y1], mode="clip")
        else:
            state[q ^ 1][line[y0:y1]] = band[q]


def shift_permutation(topology: TopologyParams, edge_mode: EdgeMode) -> np.ndarray:
    """Flat gather table of the flip-flop shift: new[slot] = old[table[slot]].

    Slot layout is row * N + vertex with rows ordered per
    :func:`directions`.  Every destination row receives from the reversed
    coin direction at the unique source vertex that moves onto it, which is
    the engine's odd-parity label: the table is :func:`_gather` over the
    whole lattice applied to the slot numbers, so checking that it is a
    bijection checks the index rule that every step runs.
    """
    side = topology.side
    slots = np.arange(len(directions(edge_mode)) * topology.n_vertices, dtype=np.int64)
    return _unshifted(slots.reshape(-1, side, side), _moves(topology, edge_mode)).reshape(-1)


def _odd_targets(config: WalkConfig, moves: _Moves) -> np.ndarray:
    """Flat indices into the state buffer of the marked vertices' amplitudes
    at odd parity, C x M: row q of vertex (x, y) at (q ^ 1) * N + f_q(v), the
    :func:`_gather` label, and hold in place.  Two L x C lookups, the x each
    row reads from and the flat offset of the y it reads from, are gathered
    by target into an M x C array, returned transposed: a C x M table in
    Fortran order, so ``state.reshape(-1)[table]`` lays its block out as
    ``state[:, indices]`` does and :func:`success_probability` adds it in the
    same order."""
    side, n = config.topology.side, config.topology.n_vertices
    coins = len(moves) + 1
    offset = np.array([(q ^ 1) * n for q in range(coins - 1)] + [(coins - 1) * n])
    coordinate = np.arange(side)[:, None]
    at_x = np.repeat(coordinate, coins, axis=1)
    at_y = coordinate * side + offset
    for q, along_x, line, _ in moves:
        if along_x:
            at_x[:, q] = line
        else:
            at_y[:, q] = line * side + offset[q]
    x, y = config.targets.T
    table = np.take(at_x, x, axis=0)
    table += np.take(at_y, y, axis=0)
    return table.T


def apply_oracle(state: np.ndarray, indices: np.ndarray) -> None:
    """Negate every coin amplitude at the marked vertices, in place."""
    state[:, indices] *= -1.0


def _coin_terms(edges: np.ndarray, hold: np.ndarray, weights: np.ndarray, g: np.ndarray,
                h: np.ndarray) -> None:
    """The per-vertex coin 2|w><w| - I as two terms shared by the coin rows.

    With overlap = w_e * (sum of the edge rows) + w_h * hold, the coin turns
    every edge row r into g - edges[r], g = 2 * w_e * overlap, and the hold
    row into h - hold, h = 2 * w_h * overlap.  Every edge direction carries
    the same weight w_e = weights[0] (see :func:`coin_weights`).  ``g`` and
    ``h`` take the shape of ``hold``; ``edges`` and ``hold`` are only read.
    """
    np.add.reduce(edges, axis=0, out=g)
    g *= weights[0]
    np.multiply(hold, weights[-1], out=h)
    g += h
    np.multiply(g, 2.0 * weights[-1], out=h)
    g *= 2.0 * weights[0]


def apply_coin(state: np.ndarray, weights: np.ndarray) -> None:
    """Reflect each vertex's coin block about the weighted coin state, in place.

    ``weights`` are those of :func:`coin_weights`: one weight for every edge
    direction, then the hold weight.
    """
    g = np.empty(state.shape[1:], dtype=state.dtype)
    h = np.empty_like(g)
    _coin_terms(state[:-1], state[-1], weights, g, h)
    np.subtract(g, state[:-1], out=state[:-1])
    np.subtract(h, state[-1], out=state[-1])


def apply_shift(state: np.ndarray, permutation: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Gather the flip-flop permutation of ``state`` into ``out`` and return it."""
    np.take(state.reshape(-1), permutation, out=out.reshape(-1))
    return out


def step(state: np.ndarray, config: WalkConfig) -> np.ndarray:
    """One evolution step (oracle, coin, shift) of an arbitrary state.

    Returns the evolved state as a new array and leaves ``state`` untouched.
    Convenience entry point for analysis; loops should keep a
    :class:`WalkEngine`, which allocates its buffers once.
    """
    engine = WalkEngine(config)
    engine.set_amplitudes(state)
    engine.advance()
    return engine.amplitudes


def success_probability(state: np.ndarray, indices: np.ndarray) -> float:
    """Total probability mass on the marked vertices, over all coin directions."""
    return _block_probability(state[:, indices])


def _block_probability(block: np.ndarray) -> float:
    """Squared norm of a gathered C x M block of amplitudes, a copy that is
    squared in place."""
    if np.iscomplexobj(block):
        return float(np.sum(block.real**2 + block.imag**2))
    return float(np.sum(np.square(block, out=block)))


def amplified_cost(peak_step: int, peak_probability: float) -> float:
    """Effective cost t / sqrt(P) if the peak amplitude still required boosting."""
    if not 0.0 < peak_probability <= 1.0:
        raise ValueError(f"peak probability must lie in (0, 1], got {peak_probability!r}")
    return peak_step / math.sqrt(peak_probability)


def _check_memory(needed: int, message: str) -> None:
    """Raise :class:`ResourceLimitError`, with ``message`` and the limit, when
    ``needed`` bytes exceed :data:`DEFAULT_MEMORY_LIMIT` as it reads when called."""
    if needed > DEFAULT_MEMORY_LIMIT:
        raise ResourceLimitError(f"{message}, limit is {DEFAULT_MEMORY_LIMIT}")


def memory_requirement(topology: TopologyParams, edge_mode: EdgeMode, m: int = 0) -> int:
    """Bytes a walk of a real state on ``m`` targets holds in every allocation
    that grows with N or M, the same on any cores: the one statement of a
    walk's memory.  Its L-entry move lines and Python objects are not counted.

    The buffers are one C x N float64 state buffer plus the step's band
    buffers, C - 1 edge rows and the coin terms g and h, each R x L with R
    the y rows of a band (:func:`_band_rows`, R = L up to side 128):
    8 * (C * N + (C + 1) * R * L), whatever the parts.  Each target adds its
    (x, y) pair in the config (16 bytes), its index in the engine (8), its C
    odd-parity indices (8 * C) and its C amplitudes in the block that the
    oracle and the readout gather (8 * C): 8 * (2 * C + 3) * m.  ``m=0``
    counts the buffers alone.  A complex state loaded with
    :meth:`WalkEngine.set_amplitudes` is checked at twice this, plus the copy
    of it that the walk keeps; moving the state into shared memory for the
    step's helpers holds a second state buffer for the move, which is
    checked when the helpers start."""
    coins, rows = len(directions(edge_mode)), _band_rows(topology, edge_mode)
    buffers = coins * topology.n_vertices + (coins + 1) * rows * topology.side
    return 8 * buffers + 8 * (2 * coins + 3) * m


class _Helpers:
    """The forked step helpers of one engine: (pid, command fd, ack fd) of
    each, and ``owner``, the pid of the process that built the engine, the
    only one that may start, drive or end its helpers."""

    def __init__(self) -> None:
        self.procs: list[tuple[int, int, int]] = []
        self.owner = os.getpid()

    def stop(self) -> None:
        """End every helper by a quit byte and reap it.  A process other than
        the owner, a forked child, only closes its copies of the pipes."""
        procs, self.procs = self.procs, []
        owner = os.getpid() == self.owner
        for pid, command, ack in procs:
            if owner:
                try:
                    os.write(command, b"q")
                except BrokenPipeError:  # the helper has died; reap it all the same
                    pass
            os.close(command)
            os.close(ack)
            if owner:
                os.waitpid(pid, 0)


class WalkEngine:
    """Owns the evolving state vector of one walk.

    Steps one preallocated state buffer in place, by a step parity: at even
    t each band is coined where it lies, leaving every edge row displaced by
    its move; at odd t each band's edge rows are gathered through that
    displacement into the band buffer, coined and written back where the
    shift puts them.  The bands are split into one contiguous part per
    process of :func:`_layout`, fixed at construction, all stepped in one
    set of band buffers (each helper in its own copy).  Once the engine has
    taken ``_WARMUP_STEPS`` steps on the calling process alone, it moves its
    state buffer into shared memory, if the move's transient second buffer
    fits the memory limit, and forks one helper process per part past the
    first; from then on the calling process runs the first part and the
    helpers the others.  If they cannot start, or one dies, every helper
    ends and every part runs on the calling process for the rest of the
    engine's life.  :attr:`stepped_processes` counts the processes its steps
    ran on.  The helpers end when the engine is dropped, at interpreter
    exit, or before a reallocation (a complex :meth:`set_amplitudes`), after
    which they start again past the warm-up.

    A step that raises, or whose helper dies, leaves the buffer part-written
    and the walk lost.  Before it next steps or is read, the walk is rebuilt
    bit for bit by replaying its t steps from its origin: the initial state,
    or the copy of a loaded state that :meth:`set_amplitudes` keeps.  A dead
    helper's step in progress then completes on the calling process.

    An engine refuses to step or load a state in any process but the one
    that built it.  The state is float64 unless a complex one is loaded with
    :meth:`set_amplitudes`.  A single engine must be driven by one thread at
    a time but may be handed between threads between steps.
    """

    def __init__(self, config: WalkConfig):
        self._config = config
        self._parts = _layout(config.topology, config.edge_mode)
        self._helpers = _Helpers()
        weakref.finalize(self, self._helpers.stop)
        self._check_limit(np.float64, 0, "")
        # the moves and target indices first, so their temporaries never add to the buffers
        self._moves = _moves(config.topology, config.edge_mode)
        self._targets = target_indices(config)
        self._odd_targets = _odd_targets(config, self._moves)
        self._allocate(np.float64)
        self._weights = coin_weights(config.loop_weight, config.edge_mode)
        self._stepped = 1
        self._origin = _initial_column(config)
        self._state[...] = self._origin
        self._steps, self._lost = 0, False

    def _check_limit(self, dtype: type, extra: int, held: str) -> None:
        """Refuse a walk whose state is ``dtype`` when :func:`memory_requirement`
        of its targets, twice that for a complex state, plus ``extra`` bytes
        held beside it exceed the memory limit."""
        config = self._config
        m = config.target_count
        needed = memory_requirement(config.topology, config.edge_mode, m)
        needed = needed * (np.dtype(dtype).itemsize // 8) + extra
        _check_memory(needed, f"a walk's buffers and its {m} targets{held} need {needed} bytes")

    def _allocate(self, dtype: type) -> None:
        """(Re)allocate the state buffer and the band buffers for ``dtype``: the
        C - 1 edge rows of one band and its coin terms g and h.  Any helpers
        end first: the new buffers are private."""
        topology, edge_mode = self._config.topology, self._config.edge_mode
        self._helpers.stop()
        self._state = self._band = self._g = self._h = None  # free before allocating
        coins, rows = len(directions(edge_mode)), _band_rows(topology, edge_mode)
        self._state = np.empty((coins, topology.n_vertices), dtype=dtype)
        self._band = np.empty((coins - 1, rows, topology.side), dtype=dtype)
        self._g = np.empty((rows, topology.side), dtype=dtype)
        self._h = np.empty_like(self._g)

    @property
    def config(self) -> WalkConfig:
        return self._config

    @property
    def t(self) -> int:
        """Steps taken since construction or the last :meth:`set_amplitudes`."""
        return self._steps

    @property
    def stepped_processes(self) -> int:
        """The most processes any step of this engine ran on, the calling one
        and its helpers: 1 until its helpers start."""
        return self._stepped

    @property
    def amplitudes(self) -> np.ndarray:
        """The current state: at even t a live view of the state buffer (do not
        mutate), at odd t a new array read through the odd-parity label."""
        self._restore()
        if self._steps & 1:
            side = self._config.topology.side
            state = _unshifted(self._state.reshape(-1, side, side), self._moves)
            return state.reshape(self._state.shape)
        return self._state

    def set_amplitudes(self, values: np.ndarray) -> None:
        """Load an arbitrary state (for analysis); resets the step counter.

        A complex array switches the buffers to complex128 and a real one
        back to float64.  The walk keeps a copy of the state as the origin
        it is rebuilt from after a failed step, so the memory limit is
        checked, with that copy, before anything is reallocated.
        """
        self._check_owner()
        arr = np.asarray(values)
        if arr.shape != self._state.shape:
            raise ValueError(f"expected shape {self._state.shape}, got {arr.shape}")
        dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
        self._check_limit(dtype, arr.size * np.dtype(dtype).itemsize, " and the state it loads")
        if self._state.dtype != dtype:
            self._allocate(dtype)
        self._origin = None  # the last load's copy is freed before this one is made
        self._origin = arr.astype(dtype)
        np.copyto(self._state, self._origin)
        self._steps, self._lost = 0, False

    def probability(self) -> float:
        """Success probability of the current state."""
        self._restore()
        if self._steps & 1:
            return _block_probability(self._state.reshape(-1)[self._odd_targets])
        return success_probability(self._state, self._targets)

    def trace(self, steps: int) -> Iterator[float]:
        """Yield the success probability now and after each of ``steps`` more
        steps: the one P(t) loop behind :func:`run` and the experiment protocols."""
        yield self.probability()
        for _ in range(steps):
            self.advance()
            yield self.probability()

    def advance(self, steps: int = 1) -> None:
        """Apply the evolution operator ``steps`` times: the oracle, then band
        by band the coin's shared terms g and h and the coin itself, in place
        at even t and, at odd t, on the edge rows gathered into the band
        buffer and written back where the shift puts them.

        An engine of more than one part runs every part on the calling
        process until, with no helper running, it has taken ``_WARMUP_STEPS``
        steps since construction or the last :meth:`set_amplitudes`.  The next
        step starts its helper processes, which from then on run every part
        but the first, until they end; each step waits for every helper before
        the next.  A :meth:`set_amplitudes` of the same dtype keeps the helpers
        that run, so the next step runs on them; only a reallocation (a load
        that changes the dtype) ends them and starts the warm-up again.  A
        helper that cannot start or dies leaves the rest of the walk on the
        calling process.  A step that raises, or whose helper dies, is undone
        by replaying the walk before the next step or read; an interrupt is
        raised again at once.  Raises RuntimeError in a process other than the
        one that built the engine.
        """
        self._check_owner()
        for _ in range(steps):
            self._restore()
            if len(self._parts) > 1 and not self._helpers.procs and self._steps >= _WARMUP_STEPS:
                self._start_helpers()
            self._lost = True  # until the step ends: a raise leaves the buffer part-written
            if self._step(self._steps & 1):
                self._lost = False
            self._steps += 1  # a step whose helper died is replayed by _restore, on this process

    def _check_owner(self) -> None:
        """Refuse to write the state in a process other than the one that
        built the engine, such as a forked child: its helpers may share the
        state buffer, so the writes would reach that process's walk."""
        owner = self._helpers.owner
        if owner != os.getpid():
            raise RuntimeError(
                f"this engine belongs to process {owner}, whose step helpers may share "
                f"its state buffer; build a new engine in this process"
            )

    def _restore(self) -> None:
        """Rebuild a lost walk bit for bit: reload its origin and replay its t
        steps, from the origin again should a helper die on the way.  An
        interrupt leaves the walk lost, for the next call to rebuild."""
        while self._lost:
            self._check_owner()
            np.copyto(self._state, self._origin)
            self._lost = not all(self._step(t & 1) for t in range(self._steps))

    def _step(self, odd: int) -> bool:
        """One step from parity ``odd``: the oracle over the indices of that
        parity, then every part, on the helpers if they run and every one of
        them steps its part, else on this process.  False when a helper
        stopped before the step ended, which leaves the buffer part-written."""
        if odd:
            self._state.reshape(-1)[self._odd_targets] *= -1.0
        else:
            apply_oracle(self._state, self._targets)
        if self._helpers.procs:
            return self._step_on_helpers(odd)
        for part in range(len(self._parts)):
            self._step_part(part, odd)
        return True

    def _step_on_helpers(self, odd: int) -> bool:
        """Send each helper the step parity, run the first part, and read one
        ack byte per helper: whether every helper stepped its part.  A helper
        that has died, or an interruption before every ack, leaves the walk on
        this process (:meth:`_step_alone`)."""
        procs, sent, acks = self._helpers.procs, 0, b""
        try:
            try:
                for _, command, _ in procs:
                    os.write(command, bytes((odd,)))
                    sent += 1
                self._step_part(0, odd)
            except BrokenPipeError:  # that helper has died; the others finish first
                pass
            finally:  # no helper may still write into the state once the step returns
                acks = b"".join(os.read(ack, 1) for _, _, ack in procs[:sent])
        finally:
            if len(acks) < len(procs):
                self._step_alone("did not finish a step")
        if len(acks) < len(procs):
            return False
        self._stepped = max(self._stepped, 1 + len(procs))
        return True

    def _step_alone(self, reason: str) -> None:
        """The one fallback for helpers that cannot start or stop stepping: end
        every helper, log one warning and step every band on this process
        from then on, as one part."""
        self._helpers.stop()
        self._parts = (sum(self._parts, ()),)
        logger.warning("step helpers %s; this walk steps on one process", reason)

    def _start_helpers(self) -> None:
        """Move the state buffer into shared anonymous memory, if the walk with
        the move's transient second buffer fits the memory limit, then fork
        one helper per part past the first.  When the limit refuses the move
        (a ResourceLimitError), a buffer or a helper cannot be had (an
        OSError), or the start is interrupted, the walk steps on this process
        from then on (:meth:`_step_alone`); an interruption is raised again."""
        import mmap  # only an engine that forks helpers loads it

        state = self._state
        try:
            self._check_limit(state.dtype, state.nbytes + self._origin.nbytes,
                              " and a shared copy of its state")
            shared = np.frombuffer(mmap.mmap(-1, state.nbytes), state.dtype).reshape(state.shape)
            np.copyto(shared, state)
            self._state = shared
            del state  # the private buffer is freed before any helper forks
            for part in range(1, len(self._parts)):
                self._helpers.procs.append(self._fork_helper(part))
        except BaseException as exc:  # a step on fewer helpers than parts would skip bands
            self._step_alone(f"could not start ({exc!r})")
            if not isinstance(exc, (OSError, ResourceLimitError)):  # those only fall back
                raise

    def _fork_helper(self, part: int) -> tuple[int, int, int]:
        """Fork the helper of ``part``: its (pid, command fd, ack fd)."""
        command_out, command_in = os.pipe()
        ack_out, ack_in = os.pipe()
        try:
            pid = os.fork()
            if pid == 0:
                self._serve(part, command_out, ack_in)
        except OSError:
            os.close(command_in)
            os.close(ack_out)
            raise
        finally:
            os.close(command_out)
            os.close(ack_in)
        return pid, command_in, ack_out

    def _serve(self, part: int, command: int, ack: int) -> None:
        """A helper's whole life after the fork: step ``part`` of the shared
        state buffer from the parity each command byte names, acknowledging
        each step with one byte, and leave by ``os._exit`` on a quit byte, end
        of file or error.  It ignores SIGINT, which the calling process
        handles, keeps no inherited descriptor but its two pipe ends, and runs
        no garbage collection, so no inherited object is finalised here."""
        code = 1
        try:
            import gc
            import signal

            signal.signal(signal.SIGINT, signal.SIG_IGN)
            gc.disable()
            low, high = sorted((command, ack))
            os.closerange(0, low)
            os.closerange(low + 1, high)
            os.closerange(high + 1, os.sysconf("SC_OPEN_MAX"))
            while (parity := os.read(command, 1)) in (b"\x00", b"\x01"):
                self._step_part(part, parity[0])
                os.write(ack, b"+")
            code = 0
        finally:
            os._exit(code)

    def _step_part(self, part: int, odd: int) -> None:
        """Step the bands of one part from parity ``odd`` in this process's
        band buffers."""
        side = self._config.topology.side
        state = self._state.reshape(-1, side, side)
        for y0, y1 in self._parts[part]:
            g, h = self._g[:y1 - y0], self._h[:y1 - y0]
            if odd:
                band = self._band[:, :y1 - y0]
                _unshift_band(state, y0, y1, band, g, h, self._weights, self._moves)
            else:
                _coin_band(state, y0, y1, g, h, self._weights)


def run(config: WalkConfig, t_max: int) -> np.ndarray:
    """Evolve from the initial state and return P(t) for t = 0 .. t_max (float64).

    Deterministic for a fixed config.  The samples are held outside the memory
    guard; iterate :meth:`WalkEngine.trace` to stream a long trace.
    """
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    return np.fromiter(WalkEngine(config).trace(t_max), np.float64, t_max + 1)
