"""State-vector evolution of the lackadaisical walk.

The walker state lives on (coin direction, vertex) pairs and is stored as a
C x N float64 array, C = 9 with long-range edges and 5 without; every
operator is real, so a real state stays real.  Complex states, loaded for
analysis, evolve through the same code.  One step applies, in order, the
phase oracle over the marked vertices, the weighted Grover coin, and the
flip-flop shift.  The shift follows the lattice: every grid and long-range
move permutes the L entries of a line by one of the lines of
:func:`~hn4walk.topology.move_lines`, so on the C x L x L view of the state
each is an L-entry gather along x or a row scatter along y, and hold is a
plain write.

Every edge direction has the same coin weight, so the coin turns each edge
row r into g - state[r] with one term g per vertex that all edge rows share.
The engine walks the grid in bands of consecutive y rows, sized so that the
C source rows of a band (about 2 MiB) stay in cache between the two reads
of it: one builds the band's g, the other coins each row into the row
buffer and moves it into its destination in the other state buffer.  A
step needs no table and, beside the two state buffers, one pair of
band-sized buffers.

Bands are independent: each reads only the source buffer and, since every
move is a permutation, writes its own destinations.  A lattice of at least
two bands per core therefore splits its y rows into one contiguous part per
core the step may use.  The calling process runs the first part and one
forked helper process per other part runs that part, each with its own
interpreter, so no part waits for another's interpreter lock.  The helpers
step over the two state buffers in shared anonymous memory, each in its own
copy-on-write copy of the band pair; an engine moves its state there and
forks its helpers only after a serial warm-up, so a short walk never
forks.  An engine whose shared buffers or helpers cannot be had, or whose
helper dies, steps the rest of its walk, from the step in progress on, on
the calling process.  Each vertex is computed by the same operations in
the same order whatever the banding, so the result is bit-identical for
any band size and process count.  A job-pool worker steps on one core, as
its siblings fill the other cores.  An engine belongs to the process that
built it, whose helpers may share its state, so a forked child refuses to
step or load an engine it inherited: build a new engine there.  A step
that raises, such as on an interrupt, leaves the walk as it was.

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


#: Bytes of the C float64 source rows of one band, so that a band read for its
#: coin terms is still cached for its moves.  Measured with ``advance`` on two
#: cores, HN4 side 512 stepped in a median 5.8-6.4, 5.6-5.7 and 5.5-6.3 ms on
#: two processes with 1, 2 and 4 MiB bands, within noise of each other.  4 MiB
#: leaves grid side 512 with three bands, too few for two parts (6.5-7.3
#: against 2.8-3.1 ms), so 2 MiB.
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
    source rows within ``_BAND_BYTES`` (the whole grid up to side 128 with
    long-range edges), at least one.  The step's layout, its overlap and row
    buffers and :func:`memory_requirement` read it."""
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


def _moves(
    topology: TopologyParams, edge_mode: EdgeMode
) -> tuple[tuple[int, int, bool, np.ndarray], ...]:
    """(source row, destination row, along x, line) of every edge move.

    Kind k of :func:`~hn4walk.topology.move_lines` holds the rows 4k .. 4k + 3,
    +x, -x, +y and -y, and its (forward, backward) lines.  The coined row r
    moves one step along its own direction, forward for + and backward for -,
    into the reversed row r ^ 1: an L-entry permutation of every line.  Along
    y that is a row scatter, dst[line[y]] = coined[y] with the row's own line;
    along x a gather, dst[y, x] = coined[y, line[x]] with the inverse line,
    the other one of the pair.
    """
    moves = []
    for kind, lines in enumerate(move_lines(topology, edge_mode)):
        for r in range(4 * kind, 4 * kind + 4):
            along_x = r % 4 < 2
            moves.append((r, r ^ 1, along_x, lines[(r & 1) ^ along_x]))
    return tuple(moves)


def _shift_band(
    src: np.ndarray,
    dst: np.ndarray,
    y0: int,
    y1: int,
    g: np.ndarray,
    h: np.ndarray,
    moves: tuple[tuple[int, int, bool, np.ndarray], ...],
) -> None:
    """Write source rows y0:y1 of every coin row, coined, into their destinations.

    ``src`` and ``dst`` are C x L x L views indexed [row, y, x] (vertex
    x + L * y), and ``g`` and ``h`` are (y1 - y0) x L.  The coined hold row
    h - src[-1] is a plain write, made first, so ``h`` is free for every
    coined edge row g - src[r], which then goes by one of the :func:`_moves`
    rules into dst[q]: an L-entry gather along x or a row scatter along y.
    The gathers index only valid coordinates, so mode "clip" skips numpy's
    buffered bounds check.
    """
    np.subtract(h, src[-1, y0:y1], out=dst[-1, y0:y1])
    for r, q, along_x, line in moves:
        np.subtract(g, src[r, y0:y1], out=h)
        if along_x:
            np.take(h, line, axis=1, out=dst[q, y0:y1], mode="clip")
        else:
            dst[q][line[y0:y1]] = h


def shift_permutation(topology: TopologyParams, edge_mode: EdgeMode) -> np.ndarray:
    """Flat gather table of the flip-flop shift: new[slot] = old[table[slot]].

    Slot layout is row * N + vertex with rows ordered per
    :func:`directions`.  The table is the engine's band moves, over the
    whole lattice as one band, applied to the negated slot numbers with zero
    coin terms (0 - (-slot) = slot), so checking that it is a bijection
    checks the moves every step runs.  Every destination row receives from
    the reversed coin direction at the unique source vertex that moves onto
    it.
    """
    side = topology.side
    slots = -np.arange(len(directions(edge_mode)) * topology.n_vertices, dtype=np.int64)
    slots = slots.reshape(-1, side, side)
    table = np.empty_like(slots)
    g, h = np.zeros((2, side, side), dtype=np.int64)
    _shift_band(slots, table, 0, side, g, h, _moves(topology, edge_mode))
    return table.reshape(-1)


def apply_oracle(state: np.ndarray, indices: np.ndarray) -> None:
    """Negate every coin amplitude at the marked vertices, in place."""
    state[:, indices] *= -1.0


def _coin_terms(state: np.ndarray, weights: np.ndarray, g: np.ndarray, h: np.ndarray) -> None:
    """The per-vertex coin 2|w><w| - I as two terms shared by the coin rows.

    With overlap = w_e * (sum of the edge rows) + w_h * state[-1], the coin
    turns every edge row r into g - state[r], g = 2 * w_e * overlap, and the
    hold row into h - state[-1], h = 2 * w_h * overlap.  Every edge direction
    carries the same weight w_e = weights[0] (see :func:`coin_weights`).
    ``g`` and ``h`` take the shape of one row of ``state``, which is only read.
    """
    np.add.reduce(state[:-1], axis=0, out=g)
    g *= weights[0]
    np.multiply(state[-1], weights[-1], out=h)
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
    _coin_terms(state, weights, g, h)
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
    block = state[:, indices]  # a copy, squared in place
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

    The buffers are two C x N float64 state buffers plus the step's R x L
    overlap and row buffers, R the y rows of a band (:func:`_band_rows`,
    R = L up to side 128): 16 * (C * N + R * L), whatever the parts.  Each
    target adds its (x, y) pair in the config (16 bytes), its index in the
    engine (8) and its C amplitudes in the block that every
    :func:`apply_oracle` and :func:`success_probability` gathers (8 * C):
    8 * (C + 3) * m.  ``m=0`` counts the buffers alone.  A complex state
    loaded with :meth:`WalkEngine.set_amplitudes` is checked at twice this."""
    coins, rows = len(directions(edge_mode)), _band_rows(topology, edge_mode)
    return 16 * (coins * topology.n_vertices + rows * topology.side) + 8 * (coins + 3) * m


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

    Ping-pongs between two preallocated state buffers: each step walks the
    current one in bands of y rows, builds each band's shared coin terms and
    moves every coined row of the band into its destination in the other
    buffer.  The bands are split into one contiguous part per process of
    :func:`_layout`, fixed at construction, all stepped in one overlap
    and one row buffer (each helper in its own copy).  Once the engine has
    taken ``_WARMUP_STEPS`` steps on the calling process alone, it moves its
    state buffers into shared memory and forks one helper process per part
    past the first; from then on the calling process runs the first part and
    the helpers the others.  If they cannot start, or one dies, every helper
    ends and every part runs on the calling process for the rest of the
    engine's life, from the step in progress on.
    :attr:`stepped_processes` counts the processes its steps ran on.
    The helpers end when the engine is dropped, at interpreter exit, or
    before a reallocation (a complex :meth:`set_amplitudes`), after which
    they start again past the warm-up.  An engine refuses to step or load
    a state in any process but the one that built it.  The state is float64
    unless a complex one is loaded with :meth:`set_amplitudes`.  A single
    engine must be driven by one thread at a time but may be handed between
    threads between steps.
    """

    def __init__(self, config: WalkConfig):
        self._config = config
        self._parts = _layout(config.topology, config.edge_mode)
        # the moves first, so their L-entry temporaries never add to the buffers
        self._moves = _moves(config.topology, config.edge_mode)
        self._helpers = _Helpers()
        weakref.finalize(self, self._helpers.stop)
        self._allocate(np.float64)
        self._weights = coin_weights(config.loop_weight, config.edge_mode)
        self._targets = target_indices(config)
        self._stepped = 1
        self._state[...] = _initial_column(config)
        self._steps = 0

    def _allocate(self, dtype: type) -> None:
        """(Re)allocate the state, scratch, overlap and row buffers for ``dtype``,
        one band of overlap and one of row, refusing when the walk would exceed
        the memory limit: :func:`memory_requirement` of its targets, twice that
        for a complex state.  Any helpers end first: the new buffers are private."""
        topology, edge_mode = self._config.topology, self._config.edge_mode
        m = self._config.target_count
        needed = memory_requirement(topology, edge_mode, m) * (np.dtype(dtype).itemsize // 8)
        _check_memory(needed, f"a walk's buffers and its {m} targets need {needed} bytes")
        self._helpers.stop()
        self._shared = None  # the (state, scratch) pair the helpers were forked with
        self._state = self._scratch = self._overlap = self._row = None  # free before allocating
        self._state = np.empty((len(directions(edge_mode)), topology.n_vertices), dtype=dtype)
        self._scratch = np.empty_like(self._state)
        self._overlap = np.empty((_band_rows(topology, edge_mode), topology.side), dtype=dtype)
        self._row = np.empty_like(self._overlap)

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
        """Current state buffer (a live view; do not mutate)."""
        return self._state

    def set_amplitudes(self, values: np.ndarray) -> None:
        """Load an arbitrary state (for analysis); resets the step counter.

        A complex array switches the buffers to complex128 and a real one
        back to float64; the memory limit is checked before reallocating.
        """
        self._check_owner()
        arr = np.asarray(values)
        if arr.shape != self._state.shape:
            raise ValueError(f"expected shape {self._state.shape}, got {arr.shape}")
        dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
        if self._state.dtype != dtype:
            self._allocate(dtype)
        np.copyto(self._state, arr)
        self._steps = 0

    def probability(self) -> float:
        """Success probability of the current state."""
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
        by band the coin's shared terms g and h (in the overlap and row
        buffers) and every coined row moved into the other state buffer.

        An engine of more than one part runs every part on the calling
        process until, with no helper running, it has taken ``_WARMUP_STEPS``
        steps since construction or the last :meth:`set_amplitudes`.  The next
        step starts its helper processes, which from then on run every part
        but the first, until they end; each step waits for every helper before
        the next.  A :meth:`set_amplitudes` of the same dtype keeps the helpers
        that run, so the next step runs on them; only a reallocation (a load
        that changes the dtype) ends them and starts the warm-up again.  A
        helper that cannot start or dies leaves the rest of the walk, from the
        step in progress on, on the calling process.  Raises RuntimeError in a
        process other than the one that built the engine.
        """
        self._check_owner()
        for _ in range(steps):
            if len(self._parts) > 1 and not self._helpers.procs and self._steps >= _WARMUP_STEPS:
                self._start_helpers()
            self._step()

    def _check_owner(self) -> None:
        """Refuse to write the state in a process other than the one that
        built the engine, such as a forked child: its helpers may share the
        state buffers, so the writes would reach that process's walk."""
        owner = self._helpers.owner
        if owner != os.getpid():
            raise RuntimeError(
                f"this engine belongs to process {owner}, whose step helpers may share "
                f"its state buffers; build a new engine in this process"
            )

    def _step(self) -> None:
        """One step, on the helpers if they run and every one of them steps its
        part, else on this process, then swap the state buffers.  A step that
        raises applies the oracle, its own inverse, again: the walk is as it was."""
        apply_oracle(self._state, self._targets)
        side = self._config.topology.side
        src, dst = self._state.reshape(-1, side, side), self._scratch.reshape(-1, side, side)
        try:
            if not (self._helpers.procs and self._step_on_helpers(src, dst)):
                for part in range(len(self._parts)):
                    self._step_part(src, dst, part)
        except BaseException:
            apply_oracle(self._state, self._targets)
            raise
        self._stepped = max(self._stepped, 1 + len(self._helpers.procs))
        self._state, self._scratch = self._scratch, self._state
        self._steps += 1

    def _step_on_helpers(self, src: np.ndarray, dst: np.ndarray) -> bool:
        """Send each helper the index of the source buffer in ``_shared``, run
        the first part, and read one ack byte per helper: whether every helper
        stepped its part.  A helper that has died, or an interruption before
        every ack, leaves the walk on this process (:meth:`_step_alone`)."""
        procs, sent, acks = self._helpers.procs, 0, b""
        source = bytes((self._state is self._shared[1],))
        try:
            try:
                for _, command, _ in procs:
                    os.write(command, source)
                    sent += 1
                self._step_part(src, dst, 0)
            except BrokenPipeError:  # that helper has died; the others finish first
                pass
            finally:  # no helper may still write into dst once the step returns
                acks = b"".join(os.read(ack, 1) for _, _, ack in procs[:sent])
        finally:
            if len(acks) < len(procs):
                self._step_alone("did not finish a step")
        return len(acks) == len(procs)

    def _step_alone(self, reason: str) -> None:
        """The one fallback for helpers that cannot start or stop stepping: end
        every helper, keep a full buffer pair, log one warning and step every
        band on this process from then on, as one part, the step in progress
        first."""
        self._helpers.stop()
        if self._scratch is None:
            self._scratch = np.empty_like(self._state)
        self._parts = (sum(self._parts, ()),)
        logger.warning("step helpers %s; this walk steps on one process", reason)

    def _start_helpers(self) -> None:
        """Move the state buffers into shared anonymous memory, one at a time so
        that no more than the two that :func:`memory_requirement` counts are
        held, then fork one helper per part past the first.  When a buffer or
        a helper cannot be had (an OSError), or the start is interrupted, the
        walk steps on this process from then on (:meth:`_step_alone`); an
        interruption is raised again."""
        import mmap  # only an engine that forks helpers loads it

        shape, dtype, size = self._state.shape, self._state.dtype, self._state.nbytes
        self._scratch = self._shared = None
        try:
            state = np.frombuffer(mmap.mmap(-1, size), dtype).reshape(shape)
            np.copyto(state, self._state)
            self._state = state
            self._scratch = np.frombuffer(mmap.mmap(-1, size), dtype).reshape(shape)
            self._shared = (self._state, self._scratch)
            for part in range(1, len(self._parts)):
                self._helpers.procs.append(self._fork_helper(part))
        except BaseException as exc:  # a step on fewer helpers than parts would skip bands
            self._step_alone(f"could not start ({exc!r})")
            if not isinstance(exc, OSError):  # an OSError (EAGAIN, ENOMEM) only falls back
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
        """A helper's whole life after the fork: step ``part`` from the shared
        buffer each command byte names, acknowledging each step with one byte,
        and leave by ``os._exit`` on a quit byte, end of file or error.  It
        ignores SIGINT, which the calling process handles, keeps no inherited
        descriptor but its two pipe ends, and runs no garbage collection, so
        no inherited object is finalised here."""
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
            side = self._config.topology.side
            views = [buffer.reshape(-1, side, side) for buffer in self._shared]
            while (source := os.read(command, 1)) in (b"\x00", b"\x01"):
                self._step_part(views[source[0]], views[1 - source[0]], part)
                os.write(ack, b"+")
            code = 0
        finally:
            os._exit(code)

    def _step_part(self, src: np.ndarray, dst: np.ndarray, part: int) -> None:
        """Coin and shift the bands of one part in this process's band pair."""
        for y0, y1 in self._parts[part]:
            g, h = self._overlap[:y1 - y0], self._row[:y1 - y0]
            _coin_terms(src[:, y0:y1], self._weights, g, h)
            _shift_band(src, dst, y0, y1, g, h, self._moves)


def run(config: WalkConfig, t_max: int) -> np.ndarray:
    """Evolve from the initial state and return P(t) for t = 0 .. t_max (float64).

    Deterministic for a fixed config.  The samples are held outside the memory
    guard; iterate :meth:`WalkEngine.trace` to stream a long trace.
    """
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    return np.fromiter(WalkEngine(config).trace(t_max), np.float64, t_max + 1)
