"""Upper-triangular integer matrices and the membership conditions on them.

Everything in this package runs on one carrier type, an immutable square
matrix of nonnegative integers with zeros below the main diagonal.  All
interfaces are 1-based: cell (i, j) of a dimension-m matrix means row i from
the top and column j from the left, and error messages use the same
coordinates.

Cells split into three classes by the anti-diagonal that runs from the
bottom-left corner to the top-right corner: (i, j) is NW when i + j < m + 1,
a diagonal cell when i + j = m + 1, and SE when i + j > m + 1.  The dual of
a matrix mirrors entries across that anti-diagonal; a matrix equal to its
dual is self-dual.  For a self-dual matrix the SE half is redundant, and
``reduce``/``expand`` move between the full matrix and the half with the SE
cells zeroed out.

The matrix and every other value type of the package (statistics, traces,
signed matrices, posets, count tables, reports) are ``_Record`` classes:
frozen, slotted records that cost nothing to define at import time, each
built by its public constructor, which validates, or by ``_trusted``, which
does not.
``_Record``, the exceptions, ``CellClass`` and ``Parity`` are defined in
``fishburn.records`` and imported back here, so they keep their names on
this module.

A private body that only places cells and inserts zeros, whatever their
values, can be compiled by ``_gather`` into one cached getter per output
row, which the verify pass, the generator walk and the public maps apply
to every matrix of one shape.  The cell sets the statistics sum, and the SE
cells, are defined once, in ``records._cells``; ``_cell_getters`` keeps one
getter per set and dimension, which ``stats``, ``reduced_size`` and
``super_triangular_violation`` read.  ``format_matrix`` likewise keeps one
text template per dimension and fills it from the cells in row-major order.

Per-cell and per-line work runs in bulk, at C speed: the constructor tests
a whole matrix with a few scans, the membership conditions test whole
rows, columns or cell sets, and ``parse_matrix`` tests a whole body with
one ``isdigit`` and, when every entry is one digit, decodes it with one
``bytes.translate``, leaving the zeros left of the diagonal to the
constructor.  Only what fails a bulk test is read again cell by cell, for
the message naming its first offender.
"""

import sys
from functools import lru_cache
from itertools import chain, islice
from operator import getitem, itemgetter
from types import MappingProxyType

# the shared records; those this module does not use are kept as its names
from .records import (
    CellClass,
    DegenerateMatrix,
    MatrixConditionError,
    NotBMember,
    NotExpandable,
    NotFishburn,
    NotRowFishburn,
    NotSelfDual,
    NotSMMember,
    NotSuperTriangular,
    OddDimension,
    Parity,
    ParseError,
    _cells,
    _is_int,
    _Record,
)

_PLAIN_INT = frozenset({int})
_PLAIN_TUPLE = frozenset({tuple})


@lru_cache(maxsize=64)
def _left_of_diagonal(d):
    # the slice of each row of a dimension-d matrix left of the main diagonal
    return tuple(slice(i) for i in range(d))


def _check_indices(**indices):
    # a bool or a float such as 2.0 is no index or dimension, even where it
    # compares equal to one
    for name, value in indices.items():
        if not _is_int(value):
            raise ValueError(f"{name} must be an integer, not {value!r}")


class TriMatrix(_Record):
    """Immutable upper-triangular matrix of nonnegative integers.

    ``rows`` stores every full row, top row first, so ``rows[i - 1][j - 1]``
    is the cell (i, j).  Below-diagonal entries must be stored as 0.
    Equality is entrywise at equal dimension; a copy padded with zero rows
    and columns is a different value on purpose, because the maps in this
    package insert and remove zero rows deliberately.

    The public constructor (and ``from_rows`` and ``parse_matrix``, which go
    through it) validates every cell.  Matrices the package builds itself
    from already valid matrices, the generators' members, the images of
    ``dual``, ``reduce``, ``expand`` and the maps, and the encoding
    ``poset_to_fishburn``, are built by ``_trusted``, which skips that check.
    Both constructors, equality and hash are ``_Record``'s.
    """

    __slots__ = ("rows",)

    def __post_init__(self):
        rows = self.rows
        if not isinstance(rows, tuple) or not rows:
            raise ValueError("rows must be a nonempty tuple of row tuples")
        m = len(rows)
        # plain tuples of m plain ints, none negative and none nonzero left
        # of the diagonal, pass in bulk; only another matrix is walked row
        # by row and cell by cell, for the message of its first offender
        if _PLAIN_TUPLE.issuperset(map(type, rows)) and set(map(len, rows)) == {m}:
            cells = _flat(rows)
            if _PLAIN_INT.issuperset(map(type, cells)) and min(cells) >= 0 and not any(
                    map(any, map(getitem, rows, _left_of_diagonal(m)))):
                return
        for i, row in enumerate(rows, start=1):
            if not isinstance(row, tuple) or len(row) != m:
                raise ValueError(f"row {i} must be a tuple of {m} entries")
            for j, value in enumerate(row, start=1):
                if not _is_int(value):
                    raise ValueError(f"cell ({i}, {j}) must be an integer")
                if value < 0:
                    raise ValueError(f"cell ({i}, {j}) must be nonnegative")
                if j < i and value != 0:
                    raise ValueError(
                        f"cell ({i}, {j}) lies below the main diagonal and must be 0")

    @classmethod
    def from_rows(cls, *rows):
        """Build from full-length row sequences (lists, tuples, ...)."""
        return cls(tuple(tuple(row) for row in rows))

    @property
    def dim(self):
        return len(self.rows)

    def entry(self, i, j):
        """Cell (i, j), 1-based."""
        _check_indices(i=i, j=j)
        if not (1 <= i <= self.dim and 1 <= j <= self.dim):
            raise IndexError(f"cell ({i}, {j}) outside dimension {self.dim}")
        return self.rows[i - 1][j - 1]

    def size(self):
        """Sum of all entries."""
        return sum(map(sum, self.rows))

    def row_sum(self, i):
        _check_indices(i=i)
        if not 1 <= i <= self.dim:
            raise IndexError(f"row {i} outside dimension {self.dim}")
        return sum(self.rows[i - 1])

    def col_sum(self, j):
        _check_indices(j=j)
        if not 1 <= j <= self.dim:
            raise IndexError(f"column {j} outside dimension {self.dim}")
        return sum(row[j - 1] for row in self.rows)


class StatVector(_Record):
    """Per-matrix statistics used by the refined counts.

    ``reduced_size`` is the sum over NW and diagonal cells; it is the size
    notion for self-dual matrices and is computed unconditionally here.
    ``center_col_sum`` is 0 for even dimensions, where no center column
    exists; ``dim_parity`` records which case applies.
    """

    __slots__ = ("size", "reduced_size", "first_row_sum", "diag_sum",
                 "center_col_sum", "last_col_sum", "dim", "dim_parity")


# --- cell classes ----------------------------------------------------------


def cell_class(m, i, j):
    """Class of cell (i, j) in a dimension-m matrix: NW, DIAGONAL, or SE."""
    _check_indices(m=m, i=i, j=j)
    if not (1 <= i <= j <= m):
        raise IndexError(f"cell ({i}, {j}) outside the upper triangle of dimension {m}")
    if i + j < m + 1:
        return CellClass.NW
    if i + j == m + 1:
        return CellClass.DIAGONAL
    return CellClass.SE


# --- membership conditions -------------------------------------------------
# Each *_violation function is the one definition of its condition: it
# returns None when the condition holds, else a short description naming the
# first offending cell, row, or column (1-based).  ``require`` turns a
# violation into the exception the caller names, and
# ``enumeration.family_violation`` combines them into the five families.


def require(violation, error, m):
    """Raise ``error`` with the message of ``violation(m)`` unless it is None."""
    msg = violation(m)
    if msg is not None:
        raise error(msg)


def selfdual_violation(m):
    rows = m.rows
    # equal to its mirror at C speed; only a difference is scanned for its
    # first cell
    if _dual_rows(rows) == rows:
        return None
    d = len(rows)
    i, j = next((i, j) for i, j in _cells(d)["upper"]
                if rows[i - 1][j - 1] != rows[d - j][d - i])
    return (f"cell ({i}, {j}) holds {rows[i - 1][j - 1]} but its mirror "
            f"({d + 1 - j}, {d + 1 - i}) holds {rows[d - j][d - i]}")


# The line tests run at C speed; only a matrix that fails one is scanned
# again, for its first zero line.


def _row_violation(m, first):
    rows = m.rows[first - 1:]
    if all(map(any, rows)):
        return None
    i = next(i for i, row in enumerate(rows, start=first) if not any(row))
    return f"row {i} zero"


def _column_violation(m, last):
    rows = m.rows
    if all(map(any, islice(zip(*rows), last))):
        return None
    c = next(c for c, column in enumerate(zip(*rows), start=1) if not any(column))
    return f"column {c} zero"


def fishburn_violation(m):
    return _row_violation(m, 1) or _column_violation(m, m.dim)


def row_fishburn_violation(m):
    return _row_violation(m, 1)


def b_violation(m):
    return _row_violation(m, 2)


def super_triangular_violation(m):
    rows = m.rows
    d = len(rows)
    # every SE cell zero, read at C speed; only a nonzero one is scanned
    # for its first cell
    if not any(_cell_getters(d)["se"](_flat(rows))):
        return None
    i, j = next((i, j) for i, j in _cells(d)["se"] if rows[i - 1][j - 1])
    return f"SE cell ({i}, {j}) holds {rows[i - 1][j - 1]}, want 0"


def _pairing_violation(m, rows):
    """The first i in ``rows`` whose row i and column m + 1 - i are both
    zero.  Mirroring a zero-SE matrix gives each of those two lines the
    entries of both, so after mirroring they are nonzero when one was."""
    lines = m.rows
    d = len(lines)
    for i in rows:
        if not any(lines[i - 1]) and not any(map(itemgetter(d - i), lines)):
            return f"row {i} and column {d + 1 - i} both zero"
    return None


def expandable_violation(m):
    """Check the two conditions under which a zero-SE matrix mirrors into a
    self-dual matrix with every row and column nonzero: each column up to the
    middle one is nonzero, and for each i up to the middle either row i or
    column m + 1 - i is nonzero.  Assumes the input is already zero on SE."""
    h = (m.dim + 1) // 2
    return _column_violation(m, h) or _pairing_violation(m, range(1, h + 1))


def sm_violation(m):
    """Odd dimension 2k + 1, zero SE cells, columns 1..k nonzero, and for
    each i up to k, innermost first, row i or column m + 1 - i nonzero."""
    d = m.dim
    if d % 2 == 0:
        return f"dimension {d} even"
    k = (d - 1) // 2
    return (super_triangular_violation(m) or _column_violation(m, k)
            or _pairing_violation(m, range(k, 0, -1)))


# --- duality and reduction -------------------------------------------------


def dual(m):
    """Mirror across the bottom-left to top-right anti-diagonal.

    The image cell (i, j) holds the input cell (m + 1 - j, m + 1 - i); the
    map is an involution and preserves dimension and size.
    """
    return TriMatrix._trusted(_dual_rows(m.rows))


def _dual_rows(rows):
    # image row i is input column m + 1 - i read from the bottom up
    return tuple(zip(*reversed(rows)))[::-1]


def reduced_size(m):
    """Sum over NW and diagonal cells.  Rejects non-self-dual input, where
    the quantity would depend on which half of the matrix is kept."""
    require(selfdual_violation, NotSelfDual, m)
    return sum(_cell_getters(m.dim)["half"](_flat(m.rows)))


def reduce(m):
    """Zero every SE cell of a self-dual matrix with all rows and columns
    nonzero.  The result has size equal to ``reduced_size(m)``."""
    require(selfdual_violation, NotSelfDual, m)
    require(fishburn_violation, NotFishburn, m)
    return TriMatrix._trusted(_reduce(m.rows))


def _reduce(rows):
    # row i keeps its cells up to column m + 1 - i
    d = len(rows)
    return tuple(row[:d - r] + (0,) * r for r, row in enumerate(rows))


def expand(m):
    """Rebuild the unique self-dual preimage of a zero-SE matrix under
    ``reduce`` by mirroring each NW cell (i, j) into the SE cell
    (m + 1 - j, m + 1 - i)."""
    require(super_triangular_violation, NotSuperTriangular, m)
    require(expandable_violation, NotExpandable, m)
    return TriMatrix._trusted(_expand_rows(m.rows))


def _expand_rows(rows):
    # row i keeps its first m + 1 - i cells, and the rest mirror column
    # m + 1 - i read upward from row i - 1 (a cell below the main diagonal
    # mirrors one below it, so both hold 0)
    d = len(rows)
    columns = tuple(zip(*rows))
    return tuple(row[:d - r] + columns[d - 1 - r][:r][::-1] for r, row in enumerate(rows))


# --- compiled layouts --------------------------------------------------------
# A getter reads a matrix through ``_flat``: a padding zero at index 0, then
# the cells in row-major order, cell (i, j) (0-based) at 1 + i*d + j.


def _flat(rows):
    return (0, *chain.from_iterable(rows))


@lru_cache(maxsize=64)
def _index(d):
    # the dimension-d matrix of the flat indices of its cells, the pad 0
    # below the main diagonal, where every matrix of the package holds 0
    return tuple((0,) * i + tuple(range(1 + i * d + i, 1 + (i + 1) * d))
                 for i in range(d))


def _getters(layout):
    # one getter per row of flat indices, each returning a tuple: a row of
    # one cell or none is read as a slice, since ``itemgetter`` of one
    # index returns the bare cell
    return tuple(itemgetter(*row) if len(row) > 1
                 else itemgetter(slice(row[0], row[0] + 1) if row else slice(0))
                 for row in layout)


# The public maps meet one shape per input, and a dimension 2r + 1 has 2^r
# relocation shapes, so the cache is bounded; the verify pass to size 7
# and a stream of 2 000 requests each use fewer than 200 layouts.
@lru_cache(maxsize=8192)
def _gather(body, d, *shape):
    """The row getters of ``body(rows, *shape)`` on dimension-d rows, for a
    body that moves cells and inserts literal zeros whatever the values
    are.  The body runs once, on ``_index(d)``, so each cell of its image
    holds the flat index it reads, and each inserted 0 reads the pad; on
    upper-triangular rows, ``_place(_gather(body, d, *shape), _flat(rows))``
    then equals ``body(rows, *shape)``."""
    return _getters(body(_index(d), *shape))


def _place(getters, flat):
    return tuple([get(flat) for get in getters])


# --- statistics ------------------------------------------------------------
# A summed statistic is the sum over one cell set of ``records._cells``.


@lru_cache(maxsize=64)
def _cell_getters(d):
    """The getter of each cell set of ``_cells(d)``, by name, over ``_flat``."""
    named = _cells(d)
    return MappingProxyType(dict(zip(named, _getters(
        [[1 + (i - 1) * d + j - 1 for i, j in cells] for cells in named.values()]))))


def stats(m):
    """All per-matrix statistics in one bundle."""
    rows = m.rows
    d = len(rows)
    flat = _flat(rows)
    get = _cell_getters(d)
    return StatVector._trusted(
        sum(flat), sum(get["half"](flat)), sum(get["first_row"](flat)),
        sum(get["diag"](flat)), sum(get["center_col"](flat)), sum(get["last_col"](flat)),
        d, Parity.ODD if d % 2 else Parity.EVEN)


# --- text format -----------------------------------------------------------
# Line 1 holds the dimension m; the next m lines hold m space-separated
# nonnegative integers each.  Anything after line m + 1 is ignored, so the
# output of one command can be piped into another even when a trailer line
# follows the matrix.


def _is_uint(token):
    return token.isascii() and token.isdigit()


def _read_uint(token, what):
    """``int`` of an ASCII digit string, or a ParseError naming ``what`` for
    a string with more digits than ``int`` converts (see
    ``sys.get_int_max_str_digits``)."""
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} has more than {sys.get_int_max_str_digits()} "
                         f"digits") from None


# each ASCII digit to the byte of its value
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))


def parse_matrix(text):
    lines = text.splitlines()
    head = lines[0].split() if lines else ()
    d = _read_uint(head[0], "line 1: the dimension") \
        if len(head) == 1 and _is_uint(head[0]) else 0
    if d < 1:
        raise ParseError("line 1: expected a positive dimension")
    if len(lines) < d + 1:
        raise ParseError(f"line {len(lines) + 1}: expected {d} matrix rows, "
                         f"found {len(lines) - 1}")
    body = [line.split() for line in lines[1:d + 1]]
    rows = _bulk_rows(body, d)
    if rows is not None:
        # the public constructor's bulk test is the one check left, that
        # every cell left of the main diagonal is 0; the parse boundary is
        # where validation runs and is counted (the tests' and the
        # benchmark's constructor counts read it)
        try:
            return TriMatrix(rows)
        except ValueError:  # a nonzero cell left of the main diagonal
            pass
    _raise_first_fault(body, d)


def _bulk_rows(body, d):
    """The rows of a body whose every line holds d entries of ASCII digits
    that ``int`` converts, else None, at C speed."""
    digits = "".join(map("".join, body))
    if set(map(len, body)) != {d} or not _is_uint(digits):
        return None
    if len(digits) == d * d:
        # one digit per entry: the whole body's values come from one
        # translation of its digits, cut into rows of d by one zip
        rows = tuple(zip(*[iter(digits.encode().translate(_DIGIT_VALUES))] * d))
    else:
        try:
            rows = tuple([tuple(map(int, parts)) for parts in body])
        except ValueError:  # an entry with more digits than ``int`` converts
            return None
    return rows


def _raise_first_fault(body, d):
    """Raise the ParseError of the first fault of a body that ``_bulk_rows``
    or the constructor refused, reading lines top down and each line left
    to right."""
    for i, parts in enumerate(body, start=1):
        if len(parts) != d:
            raise ParseError(f"line {i + 1}: expected {d} entries, found {len(parts)}")
        for j, token in enumerate(parts, start=1):
            if not _is_uint(token):
                raise ParseError(f"line {i + 1}: entry {j} is not a nonnegative integer")
            if j < i and token.strip("0"):
                raise ParseError(
                    f"cell ({i}, {j}) lies below the main diagonal and must be 0")
            _read_uint(token, f"line {i + 1}: entry {j}")


def format_matrix(m):
    rows = m.rows
    return _text_template(len(rows)) % tuple(chain.from_iterable(rows))


# a template holds about 3d^2 characters, so only the recent ones are kept
@lru_cache(maxsize=64)
def _text_template(d):
    # the text of every dimension-d matrix, with one %d per cell
    row = " ".join(["%d"] * d)
    return f"{d}\n" + "\n".join([row] * d) + "\n"
