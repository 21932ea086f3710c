"""Hypothesis strategies for the matrix families.

Each strategy builds members directly (draw, then repair the violated
row or column conditions by adding entries), so generated matrices satisfy
their family predicate by construction and the tests can focus on the maps.
"""

import hypothesis.strategies as st

from fishburn import TriMatrix, alpha


def _freeze(rows):
    return TriMatrix(tuple(tuple(row) for row in rows))


@st.composite
def upper_matrices(draw, max_dim=5, max_entry=3):
    dim = draw(st.integers(1, max_dim))
    rows = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            rows[i][j] = draw(st.integers(0, max_entry))
    return _freeze(rows)


@st.composite
def row_fishburn_matrices(draw, max_dim=4, max_entry=2):
    dim = draw(st.integers(1, max_dim))
    rows = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            rows[i][j] = draw(st.integers(0, max_entry))
    for i in range(dim):
        if not any(rows[i]):
            j = draw(st.integers(i, dim - 1))
            rows[i][j] = draw(st.integers(1, max_entry))
    return _freeze(rows)


@st.composite
def fishburn_matrices(draw, max_dim=4, max_entry=2):
    base = draw(row_fishburn_matrices(max_dim, max_entry))
    dim = base.dim
    rows = [list(row) for row in base.rows]
    # adding entries can only help, so fixing columns keeps rows nonzero
    for j in range(dim):
        if not any(rows[i][j] for i in range(dim)):
            i = draw(st.integers(0, j))
            rows[i][j] = draw(st.integers(1, max_entry))
    return _freeze(rows)


@st.composite
def b_members(draw, max_dim=4, max_entry=2):
    dim = draw(st.integers(1, max_dim))
    rows = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            rows[i][j] = draw(st.integers(0, max_entry))
    for i in range(1, dim):
        if not any(rows[i]):
            j = draw(st.integers(i, dim - 1))
            rows[i][j] = draw(st.integers(1, max_entry))
    return _freeze(rows)


@st.composite
def self_dual_fishburn_matrices(draw, max_dim=6, max_entry=2):
    """Draw the free half (NW and diagonal cells, every one from 0 up),
    repair it with the line conditions the enumeration walks the half
    with, then mirror NW onto SE.

    Writing h for ceil(d/2), the half needs columns 1..h nonzero, and for
    each i up to h, row i or column d + 1 - i of the half nonzero: in the
    mirrored matrix row i and column d + 1 - i are then nonzero, and the
    rest are the mirrors of those.  Adding entries can only help, so the
    second repair keeps the first.  A diagonal cell may stay zero, so
    members with a zero diagonal sum occur, and their ``alpha`` images
    have a zero center cell.
    """
    dim = draw(st.integers(1, max_dim))
    h = (dim + 1) // 2
    rows = [[0] * dim for _ in range(dim)]
    for i in range(1, dim + 1):
        for j in range(i, dim + 2 - i):
            rows[i - 1][j - 1] = draw(st.integers(0, max_entry))
    # column j of the half is rows 1..j for j up to h
    for j in range(1, h + 1):
        if not any(rows[i - 1][j - 1] for i in range(1, j + 1)):
            i = draw(st.integers(1, j))
            rows[i - 1][j - 1] = draw(st.integers(1, max_entry))
    # row i of the half is columns i..d + 1 - i, and column d + 1 - i of
    # the half is rows 1..i
    for i in range(1, h + 1):
        line = [(i, j) for j in range(i, dim + 2 - i)] + \
            [(r, dim + 1 - i) for r in range(1, i)]
        if not any(rows[r - 1][c - 1] for r, c in line):
            r, c = draw(st.sampled_from(line))
            rows[r - 1][c - 1] = draw(st.integers(1, max_entry))
    for i in range(1, dim + 1):
        for j in range(i, dim + 1):
            if i + j > dim + 1:
                rows[i - 1][j - 1] = rows[dim - j][dim - i]
    return _freeze(rows)


def sm_members(max_dim=6, max_entry=2):
    """Members of the odd-dimension zero-SE family, through the fold map;
    the fold is checked against golden vectors elsewhere, so using it as a
    generator here does not mask its own defects."""
    return self_dual_fishburn_matrices(max_dim, max_entry).map(alpha)
