"""Integer geometry of the search graph.

The lattice is a periodic square grid of side L = 2**n.  Every row and every
column additionally carries degree-4 hierarchical long-range edges: a 1-based
line coordinate x in [1, 2**n] factors uniquely as x = 2**i * (2*j + 1), and
the exponent i (the 2-adic valuation) is the coordinate's hierarchy level
while j is its rank within that level.  Sites at level i <= n - 2 have
long-range edges to the neighbouring ranks j - 1 and j + 1 of their own
level, with rank arithmetic closed cyclically so the induced shift is a
bijection.  The two sites at levels n - 1 and n (x = L/2 and x = L) have no
long-range partner; their long-range edges degenerate to undirected
self-loops, which makes them "exceptional".

Amplitudes elsewhere in the package are stored against 0-based grid
coordinates (x in [0, L - 1]); the hierarchy map always applies to x + 1.
:func:`decompose` and :func:`compose` give the hierarchy one coordinate at
a time and serve as the scalar reference.  :func:`move_lines` states the
graph once: the forward and backward line of each kind of move, the ring and
with long-range edges the hierarchy, the same along x and y, which the
engine's shift reads.  :func:`exceptional_lines` reads the same lines for
their fixed points: the L-entry mask of the exceptional line coordinates, a
vertex being exceptional when either of its coordinates is, which the
experiments read.
These two return numpy arrays and alone import numpy, so the CLI can parse
its arguments and fit records without loading it.  :class:`EdgeMode`
names the two graph flavours, with and without the long-range edges.
Nothing here holds state, so all of it is safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "EdgeMode",
    "TopologyError",
    "TopologyParams",
    "HierCoord",
    "rank_limit",
    "level_size",
    "decompose",
    "compose",
    "move_lines",
    "exceptional_lines",
]

class EdgeMode(str, Enum):
    """Graph flavour: grid plus long-range edges, or the bare grid."""

    HN4 = "hn4"
    GRID = "grid"


class TopologyError(ValueError):
    """Out-of-range coordinate or malformed lattice parameter."""


class HierCoord(NamedTuple):
    """Hierarchy address (level, rank) of a 1-based line coordinate."""

    level: int
    rank: int


@dataclass(frozen=True)
class TopologyParams:
    """Lattice geometry: side 2**n, vertex count 4**n.

    n >= 2 so that at least one hierarchy level carries moving long-range
    edges (levels 0 .. n - 2 must be non-empty).
    """

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 2:
            raise TopologyError(f"line exponent n must be an integer >= 2, got {self.n!r}")

    @classmethod
    def from_side(cls, side: int) -> "TopologyParams":
        """Build parameters from the grid side, which must be a power of two >= 4."""
        if not isinstance(side, int) or side < 4 or side & (side - 1):
            raise TopologyError(f"side must be a power of two >= 4, got {side!r}")
        return cls(side.bit_length() - 1)

    @property
    def side(self) -> int:
        return 1 << self.n

    @property
    def n_vertices(self) -> int:
        return 1 << (2 * self.n)


def rank_limit(level: int, n: int) -> int:
    """Largest admissible rank j at a hierarchy level: 2**(n-level-1) - 1, or 0 at level n."""
    if not 0 <= level <= n:
        raise TopologyError(f"level must lie in [0, {n}], got {level}")
    if level == n:
        return 0
    return (1 << (n - level - 1)) - 1


def level_size(level: int, n: int) -> int:
    """Number of line coordinates at a hierarchy level."""
    return rank_limit(level, n) + 1


def decompose(coord: int, n: int) -> HierCoord:
    """Split a 1-based line coordinate into its hierarchy address.

    The level is the 2-adic valuation of coord and the rank is the position
    of its odd part: coord = 2**level * (2*rank + 1).
    """
    if not 1 <= coord <= (1 << n):
        raise TopologyError(f"coordinate must lie in [1, {1 << n}], got {coord}")
    level = (coord & -coord).bit_length() - 1
    rank = ((coord >> level) - 1) >> 1
    return HierCoord(level, rank)


def compose(coord: HierCoord | tuple[int, int], n: int) -> int:
    """Inverse of :func:`decompose`: map (level, rank) back to 2**level * (2*rank + 1)."""
    level, rank = coord
    limit = rank_limit(level, n)
    if not 0 <= rank <= limit:
        raise TopologyError(f"rank must lie in [0, {limit}] at level {level}, got {rank}")
    return (1 << level) * (2 * rank + 1)


def move_lines(
    params: TopologyParams, edge_mode: EdgeMode
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(forward, backward) line of each kind of move: L 0-based line coordinates each.

    Every move changes one coordinate, along x or along y, by the same
    permutation of the line, so each kind of move has one pair of lines, the
    backward line the inverse of the forward one.  The grid's kind is the
    ring, (succ, pred) with succ[c] = (c + 1) mod L and pred[c] = (c - 1) mod L.
    With long-range edges a second kind, (lr_next, lr_prev), follows it: for
    the 0-based coordinate c, step = 2**level is the lowest set bit of c + 1,
    so c + 1 = step * (2 * rank + 1) and the rank is c // (2 * step); the
    level holds max(L / (2 * step), 1) coordinates, and the move goes to the
    cyclically adjacent rank of the same level.  At levels n - 1 and n the
    level holds one coordinate, so the move is a fixed point (a self-loop).
    """
    import numpy as np

    side = params.side
    c = np.arange(side, dtype=np.intp)
    ring = ((c + 1) % side, (c - 1) % side)
    if EdgeMode(edge_mode) is EdgeMode.GRID:
        return (ring,)
    step = (c + 1) & -(c + 1)
    size = np.maximum(side // (2 * step), 1)
    rank = c // (2 * step)
    return ring, tuple(step * (2 * ((rank + d) % size) + 1) - 1 for d in (1, -1))


def exceptional_lines(params: TopologyParams, edge_mode: EdgeMode) -> np.ndarray:
    """Boolean mask over the L line coordinates of the exceptional ones.

    A coordinate is exceptional when a forward line of :func:`move_lines` in
    ``edge_mode`` has a fixed point there: with long-range edges the
    hierarchy's x + 1 = L/2 and x + 1 = L, whose long-range edges are
    self-loops, and none on the bare grid.  A vertex is exceptional when
    either of its coordinates is, and an HN4 walk cannot find a target there.
    """
    import numpy as np

    c = np.arange(params.side)
    return np.logical_or.reduce([forward == c for forward, _ in move_lines(params, edge_mode)])
