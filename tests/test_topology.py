import numpy as np
import pytest
from hypothesis import given, strategies as st

from hn4walk.topology import (
    EdgeMode,
    HierCoord,
    TopologyError,
    TopologyParams,
    compose,
    decompose,
    exceptional_lines,
    level_size,
    move_lines,
    rank_limit,
)


def test_params_from_side():
    params = TopologyParams.from_side(16)
    assert params.n == 4
    assert params.side == 16
    assert params.n_vertices == 256


@pytest.mark.parametrize("side", [0, 1, 2, 3, 5, 12, 100])
def test_params_rejects_bad_sides(side):
    with pytest.raises(TopologyError):
        TopologyParams.from_side(side)


@pytest.mark.parametrize("n", [0, 1, -3])
def test_params_rejects_small_exponent(n):
    with pytest.raises(TopologyError):
        TopologyParams(n)


def test_decompose_examples():
    assert decompose(1, 4) == HierCoord(0, 0)
    assert decompose(16, 4) == HierCoord(4, 0)
    assert decompose(12, 4) == HierCoord(2, 1)


@pytest.mark.parametrize("coord", [0, -1, 17])
def test_decompose_range_check(coord):
    with pytest.raises(TopologyError):
        decompose(coord, 4)


def test_compose_examples():
    assert compose(HierCoord(0, 7), 4) == 15
    assert compose(HierCoord(3, 0), 4) == 8
    assert compose(HierCoord(1, 3), 4) == 14


def test_compose_rejects_rank_overflow():
    with pytest.raises(TopologyError):
        compose(HierCoord(0, 8), 4)
    with pytest.raises(TopologyError):
        compose(HierCoord(4, 1), 4)


def test_rank_limit_matches_level_population():
    # level i holds exactly the coordinates 2**i * odd <= 2**n
    for n in range(2, 9):
        for level in range(n + 1):
            members = [x for x in range(1, (1 << n) + 1) if decompose(x, n).level == level]
            assert len(members) == level_size(level, n)
            assert rank_limit(level, n) == len(members) - 1


def test_round_trip_exhaustive():
    for n in range(2, 11):
        for x in range(1, (1 << n) + 1):
            assert compose(decompose(x, n), n) == x


@given(st.integers(min_value=2, max_value=12), st.data())
def test_round_trip_property(n, data):
    x = data.draw(st.integers(min_value=1, max_value=1 << n))
    level, rank = decompose(x, n)
    assert (1 << level) * (2 * rank + 1) == x
    assert compose(HierCoord(level, rank), n) == x


@pytest.mark.parametrize("n", [2, 4, 9])
def test_move_lines_kinds(n):
    # one (forward, backward) pair per kind of move: the ring, then with
    # long-range edges the hierarchy; every line an intp permutation of the side
    params = TopologyParams(n)
    grid = move_lines(params, EdgeMode.GRID)
    hn4 = move_lines(params, "hn4")
    assert len(grid) == 1 and len(hn4) == 2
    for lines in (*grid, *hn4):
        assert len(lines) == 2
        for line in lines:
            assert line.dtype == np.intp and line.shape == (params.side,)
        forward, backward = lines
        assert np.array_equal(backward[forward], np.arange(params.side))
    for ring in (grid[0], hn4[0]):
        x = np.arange(params.side)
        assert np.array_equal(ring[0], (x + 1) % params.side)
        assert np.array_equal(ring[1], (x - 1) % params.side)


def test_long_range_examples():
    # 0-based: the 1-based move 3 -> 5 is 2 -> 4
    lr_next, lr_prev = move_lines(TopologyParams(4), EdgeMode.HN4)[1]
    assert lr_next[2] == 4
    assert lr_next[14] == 0  # cyclic wrap within level 0
    assert lr_next[7] == lr_prev[7] == 7  # level n-1 self-loop
    assert lr_next[15] == lr_prev[15] == 15  # level n self-loop
    assert lr_next.dtype == lr_prev.dtype == np.intp


def test_long_range_round_trip_and_level():
    for n in range(2, 11):
        lr_next, lr_prev = move_lines(TopologyParams(n), EdgeMode.HN4)[1]
        assert np.array_equal(lr_prev[lr_next], np.arange(1 << n))
        for x in range(1, (1 << n) + 1):
            level, rank = decompose(x, n)
            size = 1 if level >= n - 1 else level_size(level, n)
            assert lr_next[x - 1] + 1 == compose((level, (rank + 1) % size), n)
            assert decompose(int(lr_next[x - 1]) + 1, n).level == level


def test_long_range_single_cycle_per_level():
    for n in range(2, 11):
        side = 1 << n
        lr_next, _ = move_lines(TopologyParams(n), EdgeMode.HN4)[1]
        for level in range(n - 1):
            size = level_size(level, n)
            start = compose(HierCoord(level, 0), n) - 1
            seen = [start]
            while True:
                nxt = int(lr_next[seen[-1]])
                if nxt == start:
                    break
                seen.append(nxt)
            assert len(seen) == size
            assert len(set(seen)) == size
        fixed = np.flatnonzero(lr_next == np.arange(side))
        assert fixed.tolist() == [side // 2 - 1, side - 1]


def test_is_exceptional_examples():
    # a vertex is exceptional when either of its coordinates is
    line = exceptional_lines(TopologyParams(4), EdgeMode.HN4)
    assert line[[7, 3]].any()  # x + 1 = 8 = 2**(n-1)
    assert line[[6, 7]].any()  # y + 1 = 8
    assert line[[15, 0]].any()  # x + 1 = 16 = 2**n
    assert not line[[0, 6]].any()


def test_exceptional_counts_by_enumeration():
    for n in range(2, 7):
        side = 1 << n
        line = exceptional_lines(TopologyParams(n), EdgeMode.HN4)
        assert line.shape == (side,)
        assert line.sum() == 2
        vertices = np.logical_or(line[:, None], line[None, :])
        assert vertices.sum() == 4 * side - 4


def test_admissible_vertices():
    # the vertex rule on the line mask agrees with the scalar hierarchy, vertex
    # by vertex in linear order
    for n in range(2, 7):
        side = 1 << n
        line = exceptional_lines(TopologyParams(n), EdgeMode.HN4)
        expected = [
            any(decompose(c + 1, n).level >= n - 1 for c in (x, y))
            for y in range(side)
            for x in range(side)
        ]
        assert [bool(line[x] or line[y]) for y in range(side) for x in range(side)] == expected


@pytest.mark.parametrize("n", range(2, 11))
def test_exceptional_lines_are_the_fixed_points(n):
    # HN4 flags exactly x + 1 = L/2 and L, the levels n - 1 and n of the scalar
    # hierarchy, and the bare grid's ring has no fixed point
    side = 1 << n
    params = TopologyParams(n)
    line = exceptional_lines(params, EdgeMode.HN4)
    assert line.tolist() == [decompose(c + 1, n).level >= n - 1 for c in range(side)]
    assert np.flatnonzero(line).tolist() == [side // 2 - 1, side - 1]
    grid = exceptional_lines(params, EdgeMode.GRID)
    assert grid.shape == (side,) and not grid.any()
