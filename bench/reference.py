"""Independent reference walk, written from the model's definitions.

Nothing here imports ``hn4walk``: the benchmark checks the package's outputs
against this module, so the two must not share code.  The model:

* The lattice is an L x L torus, L = 2**n; vertex (x, y) (0-based) has the
  linear index x + L*y.
* A 1-based line coordinate factors as x = 2**i * (2j + 1).  Coordinates at
  level i <= n-2 have long-range edges to ranks j-1 and j+1 of their level
  (cyclically, among the 2**(n-i-1) ranks); the two coordinates at levels
  n-1 and n, that is 0-based L/2-1 and L-1, only have self-loops there
  ("exceptional").  A vertex is admissible as a random target when neither
  coordinate is exceptional.
* The coin of the HN4 walk, the only mode modelled here, has four grid
  directions, four long-range directions and a hold direction.  With
  per-vertex loop weight a = Na/N and d = 8 edge directions (on an
  exceptional line a long-range direction is a self-loop, and still counts),
  the weighted coin state has 1/sqrt(d+a) on every edge direction and
  sqrt(a)/sqrt(d+a) on hold; the coin reflects about it (2|w><w| - I).
* One step is oracle (negate the marked vertices), coin, then flip-flop
  shift: amplitude in direction e at v moves to the neighbour of v along e
  and arrives in the reverse direction.  Hold stays put.
* P(t) is the probability mass on the marked vertices.  Every operator is
  real and so is the initial state, so the state is kept in float64.
"""

from __future__ import annotations

import math

import numpy as np

# row order of the reference state: grid +x, -x, +y, -y, long-range +x, -x,
# +y, -y, then hold
ROWS = 9
# samples after the peak that must strictly decrease to confirm it
DECLINE_RUN = 5
MIN_GAIN = 5.0


def exceptional_coordinates(side: int) -> tuple[int, int]:
    """0-based coordinates whose 1-based image sits at level n-1 or n."""
    return side // 2 - 1, side - 1


def admissible(side: int) -> np.ndarray:
    """Linear indices of the vertices with no exceptional coordinate, ascending."""
    bad = np.zeros(side, dtype=bool)
    bad[list(exceptional_coordinates(side))] = True
    excluded = bad[:, None] | bad[None, :]  # [y, x]
    return np.flatnonzero(~excluded.ravel())


def draw_targets(side: int, m: int, seed: int) -> np.ndarray:
    """Seeded uniform draw of m distinct admissible vertices, ascending."""
    candidates = admissible(side)
    chosen = np.random.default_rng(seed).choice(candidates.size, size=m, replace=False)
    return candidates[np.sort(chosen)]


def job_seed(master: int, side: int, m: int, trial: int) -> int:
    """Per-job seed: SeedSequence([master, side, m]), then [that, trial]."""
    side_seed = int(np.random.SeedSequence([master, side, m]).generate_state(1)[0])
    return int(np.random.SeedSequence([side_seed, trial]).generate_state(1)[0])


def long_range_partner(side: int, step: int) -> np.ndarray:
    """0-based long-range neighbour of every 0-based line coordinate."""
    n = side.bit_length() - 1
    x = np.arange(1, side + 1, dtype=np.int64)
    level = np.log2(x & -x).astype(np.int64)
    rank = ((x >> level) - 1) >> 1
    moving = level <= n - 2
    size = np.where(moving, np.int64(side) >> (level + 1), 1)
    partner = (np.int64(1) << level) * (2 * ((rank + step) % size) + 1)
    return np.where(moving, partner, x) - 1


class ReferenceWalk:
    """Float64 state of shape (rows, L, L), evolved with slices and takes."""

    def __init__(self, side: int, na: float, targets: np.ndarray):
        self.side = side
        n_vertices = side * side
        a = na / n_vertices
        degree = ROWS - 1
        self.weights = np.full(ROWS, 1.0 / math.sqrt(degree + a))
        self.weights[-1] = math.sqrt(a) / math.sqrt(degree + a)
        self.targets = np.asarray(targets, dtype=np.int64)
        self.state = np.empty((ROWS, side, side))
        self.state[:] = (self.weights / math.sqrt(n_vertices))[:, None, None]
        self.scratch = np.empty_like(self.state)
        self.outer = np.empty((ROWS, n_vertices))
        self.next = long_range_partner(side, +1)
        self.prev = long_range_partner(side, -1)

    def probability(self) -> float:
        flat = self.state.reshape(ROWS, -1)
        return float(np.sum(flat[:, self.targets] ** 2))

    def step(self) -> None:
        flat = self.state.reshape(ROWS, -1)
        flat[:, self.targets] *= -1.0
        overlap = self.weights @ flat
        np.multiply.outer(2.0 * self.weights, overlap, out=self.outer)
        np.subtract(self.outer, flat, out=flat)

        old, new = self.state, self.scratch
        # new[dir][v] = old[reverse dir][v + displacement of dir]
        new[0, :, :-1], new[0, :, -1] = old[1, :, 1:], old[1, :, 0]
        new[1, :, 1:], new[1, :, 0] = old[0, :, :-1], old[0, :, -1]
        new[2, :-1], new[2, -1] = old[3, 1:], old[3, 0]
        new[3, 1:], new[3, 0] = old[2, :-1], old[2, -1]
        np.take(old[5], self.next, axis=1, out=new[4])
        np.take(old[4], self.prev, axis=1, out=new[5])
        np.take(old[7], self.next, axis=0, out=new[6])
        np.take(old[6], self.prev, axis=0, out=new[7])
        new[-1] = old[-1]
        self.state, self.scratch = new, old


def qualifies(probs: list[float], t: int) -> bool:
    """Whether step t is the first-peak rule's peak: a local maximum of at
    least MIN_GAIN * P(0), followed by DECLINE_RUN strictly decreasing
    samples.  The earliest such t is the first peak."""
    if t < 1 or t + DECLINE_RUN >= len(probs):
        return False
    p = probs[t]
    if p < MIN_GAIN * probs[0] or p < probs[t - 1] or p < probs[t + 1]:
        return False
    return all(probs[t + i] > probs[t + i + 1] for i in range(1, DECLINE_RUN))


def search_peak(walk: ReferenceWalk, max_steps: int) -> tuple[int, float]:
    """Evolve until the first peak is confirmed; return (step, probability)."""
    probs = [walk.probability()]
    for t in range(1, max_steps + 1):
        walk.step()
        probs.append(walk.probability())
        if qualifies(probs, t - DECLINE_RUN):
            return t - DECLINE_RUN, probs[t - DECLINE_RUN]
    raise RuntimeError(f"reference walk found no peak within {max_steps} steps")


def density_peak(walk: ReferenceWalk, horizon: int) -> tuple[int, float]:
    """Largest P over steps 0..horizon, earliest step on ties."""
    probs = [walk.probability()]
    for _ in range(horizon):
        walk.step()
        probs.append(walk.probability())
    best = int(np.argmax(probs))
    return best, probs[best]
