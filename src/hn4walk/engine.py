"""State-vector evolution of the lackadaisical walk.

The walker state lives on (coin direction, vertex) pairs and is stored as a
C x N complex128 array, C = 9 with long-range edges and 5 without.  One step
applies, in order, the phase oracle over the marked vertices, the weighted
Grover coin, and the flip-flop shift.  The shift is a fixed permutation of
the C * N slots and is precomputed once as a flat gather table; applying it
is a single branch-free pass, and the table being a bijection is exactly the
unitarity of the shift.

Evolution never renormalises: norm drift is a measured property, not a
silently corrected one.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import IO, Iterator

import numpy as np

from .topology import (
    GridVertex,
    TopologyParams,
    is_exceptional,
    long_range_neighbor,
    vertex_index,
)

__all__ = [
    "CoinDirection",
    "EdgeMode",
    "WalkConfig",
    "ProbabilityTrace",
    "ResourceLimitError",
    "WalkEngine",
    "directions",
    "flip",
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
    "memory_requirement",
    "run",
    "DEFAULT_MEMORY_LIMIT",
]

logger = logging.getLogger(__name__)

#: Refuse to build engines needing more than this many bytes unless overridden.
DEFAULT_MEMORY_LIMIT = 8 * 2**30


class ResourceLimitError(RuntimeError):
    """Estimated engine memory exceeds the configured limit."""


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


class EdgeMode(str, Enum):
    """Graph flavour: grid plus long-range edges, or the bare grid."""

    HN4 = "hn4"
    GRID = "grid"


_HN4_DIRECTIONS = tuple(CoinDirection)
_GRID_DIRECTIONS = (
    CoinDirection.X_PLUS,
    CoinDirection.X_MINUS,
    CoinDirection.Y_PLUS,
    CoinDirection.Y_MINUS,
    CoinDirection.HOLD,
)

_FLIP = {
    CoinDirection.X_PLUS: CoinDirection.X_MINUS,
    CoinDirection.X_MINUS: CoinDirection.X_PLUS,
    CoinDirection.Y_PLUS: CoinDirection.Y_MINUS,
    CoinDirection.Y_MINUS: CoinDirection.Y_PLUS,
    CoinDirection.LX_PLUS: CoinDirection.LX_MINUS,
    CoinDirection.LX_MINUS: CoinDirection.LX_PLUS,
    CoinDirection.LY_PLUS: CoinDirection.LY_MINUS,
    CoinDirection.LY_MINUS: CoinDirection.LY_PLUS,
    CoinDirection.HOLD: CoinDirection.HOLD,
}


def directions(edge_mode: EdgeMode) -> tuple[CoinDirection, ...]:
    """Coin basis in state-row order for a mode; the hold direction is always last."""
    return _HN4_DIRECTIONS if EdgeMode(edge_mode) is EdgeMode.HN4 else _GRID_DIRECTIONS


def flip(direction: CoinDirection) -> CoinDirection:
    """Reverse of a coin direction; hold is its own reverse."""
    return _FLIP[direction]


@dataclass(frozen=True)
class WalkConfig:
    """Full description of one walk: lattice, self-loop weight, targets, mode.

    ``loop_weight`` is the per-vertex weight a; experiment code usually works
    with the scale-free product N*a and should construct configs through
    :meth:`with_na`.
    """

    topology: TopologyParams
    loop_weight: float
    targets: tuple[GridVertex, ...] = ()
    edge_mode: EdgeMode = EdgeMode.HN4

    def __post_init__(self) -> None:
        if not math.isfinite(self.loop_weight) or self.loop_weight < 0:
            raise ValueError(f"loop weight must be finite and >= 0, got {self.loop_weight!r}")
        object.__setattr__(self, "edge_mode", EdgeMode(self.edge_mode))
        targets = tuple(GridVertex(*t) for t in self.targets)
        side = self.topology.side
        for t in targets:
            vertex_index(t, side)  # range check
        if len(set(targets)) != len(targets):
            raise ValueError("duplicate target vertices")
        object.__setattr__(self, "targets", targets)

    @classmethod
    def with_na(
        cls,
        topology: TopologyParams,
        na: float,
        targets: tuple[GridVertex, ...] | list[tuple[int, int]] = (),
        edge_mode: EdgeMode = EdgeMode.HN4,
    ) -> "WalkConfig":
        """Build a config from the total weight N*a, the knob experiments tune."""
        return cls(topology, na / topology.n_vertices, tuple(targets), edge_mode)

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


def initial_state(config: WalkConfig) -> np.ndarray:
    """Product of the weighted coin state and the uniform vertex state."""
    weights = coin_weights(config.loop_weight, config.edge_mode)
    n_vertices = config.topology.n_vertices
    column = (weights / math.sqrt(n_vertices)).astype(np.complex128)
    return np.repeat(column[:, None], n_vertices, axis=1)


def target_indices(config: WalkConfig) -> np.ndarray:
    """Sorted linear indices of the marked vertices."""
    side = config.topology.side
    idx = sorted(vertex_index(t, side) for t in config.targets)
    return np.asarray(idx, dtype=np.int64)


def shift_permutation(topology: TopologyParams, edge_mode: EdgeMode) -> np.ndarray:
    """Flat gather table of the flip-flop shift: new[slot] = old[table[slot]].

    Slot layout is row * N + vertex with rows ordered per
    :func:`directions`.  Every destination row receives from the reversed
    coin direction at the unique source vertex that moves onto it, so the
    table is a permutation by construction; tests verify the bijection.
    """
    n = topology.n
    side = topology.side
    n_vertices = topology.n_vertices
    dirs = directions(edge_mode)
    row = {d: r for r, d in enumerate(dirs)}

    v = np.arange(n_vertices, dtype=np.int64)
    x = v % side
    y = v // side
    lr_next = np.asarray(
        [long_range_neighbor(c + 1, +1, n) - 1 for c in range(side)], dtype=np.int64
    )
    lr_prev = np.asarray(
        [long_range_neighbor(c + 1, -1, n) - 1 for c in range(side)], dtype=np.int64
    )

    d = CoinDirection
    source_vertex = {
        d.X_PLUS: (x + 1) % side + side * y,
        d.X_MINUS: (x - 1) % side + side * y,
        d.Y_PLUS: x + side * ((y + 1) % side),
        d.Y_MINUS: x + side * ((y - 1) % side),
        d.LX_PLUS: lr_next[x] + side * y,
        d.LX_MINUS: lr_prev[x] + side * y,
        d.LY_PLUS: x + side * lr_next[y],
        d.LY_MINUS: x + side * lr_prev[y],
        d.HOLD: v,
    }

    table = np.empty((len(dirs), n_vertices), dtype=np.int64)
    for direction in dirs:
        table[row[direction]] = row[flip(direction)] * n_vertices + source_vertex[direction]
    return table.reshape(-1)


def apply_oracle(state: np.ndarray, indices: np.ndarray) -> None:
    """Negate every coin amplitude at the marked vertices, in place."""
    if len(indices):
        state[:, indices] *= -1.0


def apply_coin(state: np.ndarray, weights: np.ndarray) -> None:
    """Reflect each vertex's coin block about the weighted coin state, in place."""
    overlap = weights @ state
    for r, w in enumerate(weights):
        amps = state[r]
        amps *= -1.0
        amps += (2.0 * w) * overlap


def apply_shift(state: np.ndarray, permutation: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Gather the flip-flop permutation of ``state`` into ``out`` and return it."""
    np.take(state.reshape(-1), permutation, out=out.reshape(-1))
    return out


def step(state: np.ndarray, config: WalkConfig) -> np.ndarray:
    """One evolution step (oracle, coin, shift) of an arbitrary state.

    Returns the evolved state as a new array and leaves ``state`` untouched.
    Convenience entry point for analysis; loops should keep a
    :class:`WalkEngine`, which builds the shift table once.
    """
    engine = WalkEngine(config)
    engine.set_amplitudes(state)
    engine.advance()
    return engine.amplitudes


def success_probability(state: np.ndarray, indices: np.ndarray) -> float:
    """Total probability mass on the marked vertices, over all coin directions."""
    if not len(indices):
        return 0.0
    block = state[:, indices]
    return float(np.sum(block.real**2 + block.imag**2))


def amplified_cost(peak_step: int, peak_probability: float) -> float:
    """Effective cost t / sqrt(P) if the peak amplitude still required boosting."""
    if not 0.0 < peak_probability <= 1.0:
        raise ValueError(f"peak probability must lie in (0, 1], got {peak_probability!r}")
    return peak_step / math.sqrt(peak_probability)


def memory_requirement(topology: TopologyParams, edge_mode: EdgeMode) -> int:
    """Bytes a :class:`WalkEngine` allocates: two state buffers of C * N complex128
    amplitudes (2 * 16 * C * N) plus the int64 shift table (8 * C * N)."""
    slots = len(directions(edge_mode)) * topology.n_vertices
    return 2 * 16 * slots + 8 * slots


@dataclass(frozen=True)
class ProbabilityTrace:
    """Success probability per step; entry t is P after t steps."""

    probabilities: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "probabilities", np.asarray(self.probabilities, dtype=np.float64)
        )

    def __len__(self) -> int:
        return int(self.probabilities.size)

    def __getitem__(self, t: int) -> float:
        return float(self.probabilities[t])

    @property
    def final_step(self) -> int:
        return len(self) - 1

    def rows(self) -> Iterator[tuple[int, float]]:
        for t, p in enumerate(self.probabilities):
            yield t, float(p)


class WalkEngine:
    """Owns the evolving state vector of one walk.

    Ping-pongs between two preallocated buffers; the shift gathers from one
    into the other.  A single engine must be driven by one thread at a time
    but may be handed between threads between steps.
    """

    def __init__(self, config: WalkConfig, memory_limit: int | None = DEFAULT_MEMORY_LIMIT):
        needed = memory_requirement(config.topology, config.edge_mode)
        if memory_limit is not None and needed > memory_limit:
            raise ResourceLimitError(
                f"state buffers and shift table need {needed} bytes, limit is {memory_limit}"
            )
        for t in config.targets:
            if is_exceptional(t, config.topology.n, "line"):
                logger.warning(
                    "target %s lies on an exceptional line (its long-range edges "
                    "degenerate to self-loops)",
                    tuple(t),
                )
        self._config = config
        self._weights = coin_weights(config.loop_weight, config.edge_mode)
        self._permutation = shift_permutation(config.topology, config.edge_mode)
        self._targets = target_indices(config)
        self._state = initial_state(config)
        self._scratch = np.empty_like(self._state)
        self._steps = 0

    @property
    def config(self) -> WalkConfig:
        return self._config

    @property
    def t(self) -> int:
        """Steps taken since the last reset."""
        return self._steps

    @property
    def amplitudes(self) -> np.ndarray:
        """Current state buffer (a live view; do not mutate)."""
        return self._state

    def set_amplitudes(self, values: np.ndarray) -> None:
        """Load an arbitrary state (for analysis); resets the step counter."""
        arr = np.asarray(values, dtype=np.complex128)
        if arr.shape != self._state.shape:
            raise ValueError(f"expected shape {self._state.shape}, got {arr.shape}")
        np.copyto(self._state, arr)
        self._steps = 0

    def reset(self) -> None:
        """Return to the canonical initial state."""
        np.copyto(self._state, initial_state(self._config))
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
        """Apply the evolution operator ``steps`` times."""
        state, scratch = self._state, self._scratch
        targets, weights, permutation = self._targets, self._weights, self._permutation
        for _ in range(steps):
            apply_oracle(state, targets)
            apply_coin(state, weights)
            apply_shift(state, permutation, scratch)
            state, scratch = scratch, state
        self._state, self._scratch = state, scratch
        self._steps += steps


def run(
    config: WalkConfig,
    t_max: int,
    sink: IO[str] | None = None,
    memory_limit: int | None = DEFAULT_MEMORY_LIMIT,
) -> ProbabilityTrace:
    """Evolve from the initial state and record P(t) for t = 0 .. t_max.

    Deterministic for a fixed config.  When ``sink`` is given, each sample is
    streamed to it as a CSV row "t,P" as soon as it is computed.
    """
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    engine = WalkEngine(config, memory_limit=memory_limit)
    probabilities = np.empty(t_max + 1, dtype=np.float64)
    for t, p in enumerate(engine.trace(t_max)):
        probabilities[t] = p
        if sink is not None:
            sink.write(f"{t},{p!r}\n")
    return ProbabilityTrace(probabilities)
