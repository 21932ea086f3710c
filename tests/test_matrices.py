"""Carrier type, family predicates, duality, reduction, and text format."""

import hashlib
import itertools
import random
import re
import sys
from collections import Counter
from enum import IntEnum

import pytest
from hypothesis import given

from fishburn import (
    CellClass,
    FamilyTag,
    NotExpandable,
    NotFishburn,
    NotSelfDual,
    NotSuperTriangular,
    Parity,
    ParseError,
    Poset,
    SignedRowFishburn,
    StatVector,
    TriMatrix,
    alpha,
    alpha_inv,
    beta,
    beta_inv,
    cell_class,
    dual,
    em_to_sm,
    embed_rm_in_b,
    expand,
    family_violation,
    fishburn_to_poset,
    format_matrix,
    format_poset,
    parse_matrix,
    project_b_to_signed_rm,
    reduce,
    reduced_size,
    selfdual_to_signed_rm,
    sm_to_em,
    stats,
)
from fishburn.matrices import (
    _cell_getters,
    _expand_rows,
    _gather,
    _index,
    _left_of_diagonal,
    _text_template,
    b_violation,
    expandable_violation,
    fishburn_violation,
    row_fishburn_violation,
    selfdual_violation,
    sm_violation,
    super_triangular_violation,
)
from fishburn.records import _cells
from matrix_strategies import self_dual_fishburn_matrices, upper_matrices
from oracles import (
    CELL_VIOLATIONS,
    random_matrix_text,
    reference_parse_matrix,
    reference_trimatrix_error,
)
from vectors import A5, A6, R5, S5

# --- construction ------------------------------------------------------------


def test_rows_must_be_square():
    with pytest.raises(ValueError, match="row 2"):
        TriMatrix(((1, 0), (0,)))


def test_rows_must_be_nonempty_tuple():
    with pytest.raises(ValueError):
        TriMatrix(())
    with pytest.raises(ValueError):
        TriMatrix([[1]])


def test_entries_must_be_plain_nonnegative_ints():
    with pytest.raises(ValueError, match=r"cell \(1, 1\) must be an integer"):
        TriMatrix(((True,),))
    with pytest.raises(ValueError, match=r"cell \(1, 1\) must be nonnegative"):
        TriMatrix(((-1,),))
    with pytest.raises(ValueError, match="must be an integer"):
        TriMatrix(((1.0,),))


def test_below_diagonal_entries_must_be_zero():
    with pytest.raises(ValueError, match=r"cell \(2, 1\) lies below"):
        TriMatrix(((0, 0), (1, 0)))


class _Unit(IntEnum):
    ONE = 1


def test_constructor_messages_pinned_on_later_rows():
    # a bool past the first row is still refused, an int subclass that is
    # not a bool is still accepted, and a row with several faults reports
    # the first one met cell by cell
    with pytest.raises(ValueError) as err:
        TriMatrix(((1, 0), (0, True)))
    assert str(err.value) == "cell (2, 2) must be an integer"
    m = TriMatrix(((1, 0), (0, _Unit.ONE)))
    assert m == TriMatrix(((1, 0), (0, 1)))
    with pytest.raises(ValueError) as err:
        TriMatrix(((1, 0, 0), (0, 1, 0), (2, 0, -1)))
    assert str(err.value) == "cell (3, 1) lies below the main diagonal and must be 0"
    with pytest.raises(ValueError) as err:
        TriMatrix(((1, 0, 0), (0, 1, 0), (0, -1, 2)))
    assert str(err.value) == "cell (3, 2) must be nonnegative"
    with pytest.raises(ValueError) as err:
        TriMatrix(((1, -1), (0,)))
    assert str(err.value) == "cell (1, 2) must be nonnegative"


class _Row(tuple):
    pass


# the faults the constructor sweep plants, one or two per faulty row tuple,
# in this order, so that a cell is planted before a row is cut short
_ROW_FAULTS = ("bool", "float", "negative", "below", "int_enum", "list",
               "tuple_subclass", "short", "empty")


def _random_rows(rng):
    """Seeded rows of dimension 1-8 with cells of up to six digits; seven
    in ten carry one or two faults of ``_ROW_FAULTS``."""
    d = rng.randint(1, 8)
    rows = [[0 if j < i else rng.choice((0, 0, 1, 2, rng.randrange(10 ** 6)))
             for j in range(d)] for i in range(d)]
    lists, subclassed = set(), set()
    faults = sorted(rng.sample(_ROW_FAULTS, rng.randint(1, 2)), key=_ROW_FAULTS.index) \
        if rng.random() < 0.7 else ()
    for fault in faults:
        i, j = rng.randrange(d), rng.randrange(d)
        if fault == "bool":
            rows[i][j] = rng.choice((True, False))
        elif fault == "float":
            rows[i][j] = float(rows[i][j])
        elif fault == "negative":
            rows[i][j] = -rng.randint(1, 5)
        elif fault == "list":
            lists.add(i)
        elif fault == "short":
            del rows[i][j]
        elif fault == "below" and i > 0:
            rows[i][rng.randrange(i)] = rng.randint(1, 9)
        elif fault == "empty":
            return ()
        elif fault == "int_enum":
            rows[i][j] = _Unit.ONE
        elif fault == "tuple_subclass":
            subclassed.add(i)
    return tuple(row if i in lists else _Row(row) if i in subclassed else tuple(row)
                 for i, row in enumerate(rows))


def test_constructor_matches_a_cell_by_cell_reference():
    # the bulk test accepts only plain rows of plain ints; every other
    # input must get the reference's verdict, an int subclass cell or a
    # tuple subclass row being accepted
    rng = random.Random(28)
    kinds = Counter()
    for _ in range(4000):
        rows = _random_rows(rng)
        expected = reference_trimatrix_error(rows)
        try:
            m = TriMatrix(rows)
        except ValueError as exc:
            got = type(exc), str(exc)
        else:
            got = None
            assert m.rows is rows
        assert got == expected, rows
        plain = all(type(row) is tuple for row in rows) and all(
            type(cell) is int for row in rows for cell in row)
        kinds[re.sub(r"\d+", "#", got[1]) if got else "plain" if plain else "subclass"] += 1
    assert set(kinds) == {
        "plain", "subclass", "rows must be a nonempty tuple of row tuples",
        "row # must be a tuple of # entries", "cell (#, #) must be an integer",
        "cell (#, #) must be nonnegative",
        "cell (#, #) lies below the main diagonal and must be #"}, kinds


def test_from_rows_accepts_lists():
    assert TriMatrix.from_rows([1, 0], [0, 2]) == TriMatrix(((1, 0), (0, 2)))


def test_accessors_and_bounds():
    assert A5.dim == 5
    assert A5.size() == 9
    assert A5.entry(1, 3) == 1
    assert A5.row_sum(2) == 3
    assert A5.col_sum(4) == 3
    with pytest.raises(IndexError):
        A5.entry(0, 1)
    with pytest.raises(IndexError):
        A5.entry(1, 6)
    with pytest.raises(IndexError):
        A5.row_sum(6)
    with pytest.raises(IndexError):
        A5.col_sum(0)


def test_indices_must_be_ints():
    # a bool or a float is refused even where it equals an index in range,
    # as a size or a cell is
    for call, args, name in (
            (A5.entry, (True, 1), "i"), (A5.entry, (1, 2.0), "j"),
            (A5.row_sum, (True,), "i"), (A5.col_sum, (1.5,), "j"),
            (cell_class, (2, 1.5, 2), "i"), (cell_class, (2, 1, True), "j"),
            (cell_class, (2.0, 1, 1), "m")):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, not "):
            call(*args)
    # an int subclass that is no bool is still an index
    assert A5.entry(_Unit.ONE, 3) == 1
    assert cell_class(5, _Unit.ONE, 5) is CellClass.DIAGONAL


def test_equality_distinguishes_dimensions():
    assert TriMatrix(((1,),)) != TriMatrix(((1, 0), (0, 0)))


def test_matrices_are_hashable():
    assert len({A5, A5, S5}) == 2


# --- cell classes ------------------------------------------------------------


def test_cell_class_examples():
    assert cell_class(5, 1, 5) is CellClass.DIAGONAL
    assert cell_class(5, 3, 3) is CellClass.DIAGONAL
    assert cell_class(5, 1, 1) is CellClass.NW
    assert cell_class(5, 3, 4) is CellClass.SE
    assert cell_class(1, 1, 1) is CellClass.DIAGONAL
    with pytest.raises(IndexError):
        cell_class(5, 3, 2)
    with pytest.raises(IndexError):
        cell_class(5, 0, 1)


def test_cell_table_partitions_the_upper_triangle_as_cell_class():
    # ``half`` is the NW cells and the diagonal cells, in row-major order
    for d in range(1, 13):
        cells = _cells(d)
        upper = [(i, j) for i in range(1, d + 1) for j in range(i, d + 1)]
        by_class = {c: [cell for cell in upper if cell_class(d, *cell) is c] for c in CellClass}
        assert list(cells["upper"]) == upper
        assert list(cells["diag"]) == by_class[CellClass.DIAGONAL]
        assert list(cells["se"]) == by_class[CellClass.SE]
        assert [cell for cell in cells["half"] if cell not in cells["diag"]] == \
            by_class[CellClass.NW]
        assert sorted(cells["half"] + cells["se"]) == upper


def test_cell_class_partition_counts():
    # the anti-diagonal has ceil(m/2) upper cells and splits the rest evenly
    for m in range(1, 9):
        classes = [cell_class(m, i, j)
                   for i in range(1, m + 1) for j in range(i, m + 1)]
        assert classes.count(CellClass.DIAGONAL) == (m + 1) // 2
        assert classes.count(CellClass.NW) == classes.count(CellClass.SE)
        assert len(classes) == m * (m + 1) // 2


# --- duality -----------------------------------------------------------------


def test_dual_example():
    assert dual(TriMatrix(((1, 1), (0, 0)))) == TriMatrix(((0, 1), (0, 1)))
    assert dual(A5) == A5


@given(upper_matrices())
def test_dual_is_an_involution(m):
    assert dual(dual(m)) == m


@given(upper_matrices())
def test_dual_preserves_size_and_swaps_line_sums(m):
    d = m.dim
    image = dual(m)
    assert image.size() == m.size()
    for i in range(1, d + 1):
        assert image.row_sum(i) == m.col_sum(d + 1 - i)
        assert image.col_sum(i) == m.row_sum(d + 1 - i)


@given(upper_matrices())
def test_self_dual_means_equal_to_dual(m):
    assert (selfdual_violation(m) is None) == (dual(m) == m)


def test_selfdual_violation_names_cell_pair():
    msg = selfdual_violation(TriMatrix(((1, 1), (0, 0))))
    assert msg == "cell (1, 1) holds 1 but its mirror (2, 2) holds 0"


# --- family predicates ---------------------------------------------------------


def test_fishburn_predicate():
    assert fishburn_violation(A5) is None
    assert fishburn_violation(TriMatrix(((0, 1), (0, 1)))) == "column 1 zero"
    assert fishburn_violation(TriMatrix(((0, 0), (0, 1)))) == "row 1 zero"


def test_row_fishburn_predicate():
    assert row_fishburn_violation(TriMatrix(((0, 1), (0, 1)))) is None
    assert row_fishburn_violation(TriMatrix(((1, 0), (0, 0)))) == "row 2 zero"


def test_super_triangular_predicate():
    assert super_triangular_violation(R5) is None
    msg = super_triangular_violation(A5)
    assert msg == "SE cell (3, 4) holds 1, want 0"


def test_super_triangular_names_the_first_se_cell_at_every_dimension():
    # the accept path reads every SE cell at once; a matrix with one or two
    # nonzero cells, SE or not, gets the verdict of the cell-by-cell walk
    rng = random.Random(19)
    for d in range(1, 13):
        upper = [(i, j) for i in range(1, d + 1) for j in range(i, d + 1)]
        for cells in [[]] + [[c] for c in upper] + [rng.sample(upper, min(2, len(upper)))
                                                  for _ in range(20)]:
            g = [[0] * d for _ in range(d)]
            for i, j in cells:
                g[i - 1][j - 1] = rng.randint(1, 9)
            se = sorted((i, j) for i, j in cells if i + j > d + 1)
            want = None
            if se:
                i, j = se[0]
                want = f"SE cell ({i}, {j}) holds {g[i - 1][j - 1]}, want 0"
            assert super_triangular_violation(TriMatrix(tuple(map(tuple, g)))) == want


def test_sm_predicate():
    assert sm_violation(S5) is None
    assert sm_violation(A6) is None
    assert sm_violation(TriMatrix(((1,),))) is None
    assert sm_violation(TriMatrix(((1, 0), (0, 1)))) == "dimension 2 even"
    # column 1 empty breaks the leading-columns condition
    bad = TriMatrix(((0, 1, 0), (0, 1, 0), (0, 0, 0)))
    assert sm_violation(bad) == "column 1 zero"
    # row 2 and column 4 both empty breaks the paired condition
    bad = TriMatrix((
        (1, 1, 0, 0, 0),
        (0, 0, 0, 0, 0),
        (0, 0, 1, 0, 0),
        (0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0),
    ))
    assert sm_violation(bad) == "row 2 and column 4 both zero"
    # pairs (3, 5) and (2, 6) both fail; the innermost one is reported
    bad = TriMatrix.from_rows(
        [1, 1, 1, 0, 0, 0, 0], *([0] * 7 for _ in range(6)))
    assert sm_violation(bad) == "row 3 and column 5 both zero"


def test_b_predicate():
    assert b_violation(TriMatrix(((0, 0), (0, 1)))) is None
    assert b_violation(TriMatrix(((1,),))) is None
    assert b_violation(TriMatrix(((0,),))) is None
    assert b_violation(TriMatrix(((1, 0), (0, 0)))) == "row 2 zero"


# --- reduce and expand -----------------------------------------------------------


def test_reduce_golden():
    assert reduce(A5) == R5


def test_reduce_requires_self_dual_fishburn():
    with pytest.raises(NotSelfDual):
        reduce(TriMatrix(((1, 1), (0, 0))))
    with pytest.raises(NotFishburn, match="row 1 zero"):
        reduce(TriMatrix(((0, 0), (0, 0))))


def test_reduced_size_golden():
    assert reduced_size(A5) == 5
    assert reduced_size(TriMatrix(((1, 0), (0, 1)))) == 1
    with pytest.raises(NotSelfDual):
        reduced_size(TriMatrix(((1, 1), (0, 0))))


def test_expand_golden():
    assert expand(R5) == A5


def test_expand_rejects_nonexpandable():
    assert expandable_violation(R5) is None
    # column 1 zero cannot be repaired by mirroring
    bad = TriMatrix(((0, 1), (0, 0)))
    assert expandable_violation(bad) == "column 1 zero"
    with pytest.raises(NotExpandable, match="column 1 zero"):
        expand(bad)
    # row 2 and column 4 both zero leave row 2 empty after mirroring
    bad = TriMatrix((
        (1, 1, 1, 0, 0),
        (0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0),
    ))
    with pytest.raises(NotExpandable, match="row 2 and column 4 both zero"):
        expand(bad)
    assert expandable_violation(bad) == "row 2 and column 4 both zero"


def test_expandable_exactly_when_the_expansion_has_no_zero_row():
    # ``alpha_inv`` accepts its compiled image on this: the expansion of a
    # zero-SE matrix is self-dual, so its columns are nonzero when its rows
    # are; every 0/1 matrix with zero SE cells up to dimension 5
    for d in range(1, 6):
        half = [(i, j) for i in range(d) for j in range(i, d) if i + j < d]
        for bits in itertools.product((0, 1), repeat=len(half)):
            rows = [[0] * d for _ in range(d)]
            for (i, j), bit in zip(half, bits):
                rows[i][j] = bit
            g = TriMatrix(tuple(map(tuple, rows)))
            assert (expandable_violation(g) is None) == all(map(any, _expand_rows(g.rows)))


def test_expand_requires_zero_se():
    with pytest.raises(NotSuperTriangular):
        expand(A5)


@given(self_dual_fishburn_matrices())
def test_expand_inverts_reduce(m):
    r = reduce(m)
    assert super_triangular_violation(r) is None
    assert reduced_size(m) == r.size()
    assert expand(r) == m


# --- statistics -------------------------------------------------------------------


def test_stats_golden():
    v = stats(A5)
    assert v.size == 9
    assert v.reduced_size == 5
    assert v.first_row_sum == 2
    assert v.diag_sum == 1
    assert v.center_col_sum == 2
    assert v.last_col_sum == 2
    assert v.dim == 5
    assert v.dim_parity is Parity.ODD

    w = stats(A6)
    assert w.first_row_sum == 3
    assert w.center_col_sum == 1
    assert w.diag_sum == 2
    assert w.last_col_sum == 1


@given(upper_matrices())
def test_stats_center_column_is_zero_for_even_dims(m):
    v = stats(m)
    if m.dim % 2 == 0:
        assert v.center_col_sum == 0
        assert v.dim_parity is Parity.EVEN
    else:
        assert v.center_col_sum == m.col_sum((m.dim + 1) // 2)
        assert v.dim_parity is Parity.ODD


def _reference_stats(m):
    # every statistic spelled out through the bounds-checked accessors
    d = m.dim
    return StatVector(
        size=m.size(),
        reduced_size=sum(m.entry(i, j) for i in range(1, d + 1)
                         for j in range(i, d + 1) if i + j <= d + 1),
        first_row_sum=m.row_sum(1),
        diag_sum=sum(m.entry(i, d + 1 - i) for i in range(1, (d + 1) // 2 + 1)),
        center_col_sum=m.col_sum((d + 1) // 2) if d % 2 else 0,
        last_col_sum=m.col_sum(d),
        dim=d,
        dim_parity=Parity.ODD if d % 2 else Parity.EVEN,
    )


@given(upper_matrices(max_dim=7))
def test_stats_match_accessor_reference(m):
    assert stats(m) == _reference_stats(m)


# --- text format -------------------------------------------------------------------


def test_format_golden():
    assert format_matrix(TriMatrix(((1, 0), (0, 2)))) == "2\n1 0\n0 2\n"


def _joined_text(m):
    # the text as one join per row, the format's definition
    return "\n".join([str(m.dim)] + [" ".join(map(str, row)) for row in m.rows]) + "\n"


def test_format_fills_the_joined_text_at_every_dimension():
    rng = random.Random(18)
    for d in range(1, 15):
        for _ in range(5):
            # entries of one to six digits, and zeros
            m = TriMatrix(tuple(
                tuple(0 if j < i else rng.choice((0, rng.randrange(10 ** rng.randint(1, 6))))
                      for j in range(d))
                for i in range(d)))
            text = format_matrix(m)
            assert text == _joined_text(m)
            assert parse_matrix(text) == m


def test_per_shape_caches_are_bounded():
    # single calls bring a new shape per input, and a process may serve
    # any number of them
    assert _gather.cache_info().maxsize == 8192
    assert _index.cache_info().maxsize == 64
    assert _left_of_diagonal.cache_info().maxsize == 64
    assert _text_template.cache_info().maxsize == 64
    assert _cells.cache_info().maxsize == 64
    assert _cell_getters.cache_info().maxsize == 64


@given(upper_matrices())
def test_parse_inverts_format(m):
    assert parse_matrix(format_matrix(m)) == m


def test_parse_ignores_trailer_lines():
    assert parse_matrix("1\n3\nflag: 0\n") == TriMatrix(((3,),))


def test_parse_errors():
    with pytest.raises(ParseError, match="line 1"):
        parse_matrix("")
    with pytest.raises(ParseError, match="line 1"):
        parse_matrix("0\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_matrix("-2\n")
    with pytest.raises(ParseError, match="expected 2 matrix rows"):
        parse_matrix("2\n1 0\n")
    with pytest.raises(ParseError, match="line 2: expected 2 entries, found 3"):
        parse_matrix("2\n1 0 0\n0 1\n")
    with pytest.raises(ParseError, match="line 2: entry 2 is not a nonnegative"):
        parse_matrix("2\n1 x\n0 1\n")
    with pytest.raises(ParseError, match="entry 1 is not a nonnegative"):
        parse_matrix("2\n1 0\n-1 1\n")
    with pytest.raises(ParseError, match=r"cell \(2, 1\) lies below"):
        parse_matrix("2\n1 0\n1 1\n")


def test_parse_reports_the_first_fault_in_reading_order():
    def message(text):
        with pytest.raises(ParseError) as err:
            parse_matrix(text)
        return str(err.value)

    # faults in two rows: the earlier row wins, whichever kind each is
    assert message("3\n1 0 0\n1 1 0\n0 0 y\n") == \
        "cell (2, 1) lies below the main diagonal and must be 0"
    assert message("3\n1 0 0\n0 y 0\n1 0 1\n") == \
        "line 3: entry 2 is not a nonnegative integer"
    assert message("3\n1 0 0\n0 1 0 0\n0 0 y\n") == \
        "line 3: expected 3 entries, found 4"
    # within one row, cells are read left to right
    assert message("2\n1 0\n1 x\n") == \
        "cell (2, 1) lies below the main diagonal and must be 0"
    assert message("3\n1 0 0\n0 1 0\n0 x 1\n") == \
        "line 4: entry 2 is not a nonnegative integer"
    # digits outside ASCII are not entries
    assert message("1\n\u0663\n") == "line 2: entry 1 is not a nonnegative integer"


def _parse_outcome(parse, text):
    # the rows read, or the type and message of what the call raised
    try:
        value = parse(text)
    except Exception as exc:  # a crash must differ from the reference too
        return type(exc).__name__, str(exc)
    return "rows", getattr(value, "rows", value)


_PARSE_MESSAGES = {
    "dimension": r"line 1: expected a positive dimension",
    "long dimension": r"line 1: the dimension has more than \d+ digits",
    "rows": r"line \d+: expected \d+ matrix rows, found \d+",
    "count": r"line \d+: expected \d+ entries, found \d+",
    "token": r"line \d+: entry \d+ is not a nonnegative integer",
    "below": r"cell \(\d+, \d+\) lies below the main diagonal and must be 0",
    "long entry": r"line \d+: entry \d+ has more than \d+ digits",
}


def test_parse_refuses_numbers_longer_than_int_converts():
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ParseError) as err:
        parse_matrix("1" * (limit + 1) + "\n")
    assert str(err.value) == f"line 1: the dimension has more than {limit} digits"
    with pytest.raises(ParseError) as err:
        parse_matrix("2\n1 0\n0 " + "5" * (limit + 1) + "\n")
    assert str(err.value) == f"line 3: entry 2 has more than {limit} digits"
    # leading zeros count as digits, and a later row's fault comes second
    with pytest.raises(ParseError) as err:
        parse_matrix("2\n1 " + "0" * (limit + 1) + "\n1 1\n")
    assert str(err.value) == f"line 2: entry 2 has more than {limit} digits"
    assert parse_matrix("1\n" + "9" * limit + "\n").rows == ((int("9" * limit),),)


def test_parse_matches_the_reference_on_edge_texts():
    for text in ("2\r\n1 0\r\n0 1\r\n", "1\n+1\n", "1\n1_0\n", "1\n\u00b2\n",
                 "1\n\u0663\n", "2\n1 01\n0 007\n", "2\n01 0\n1 1\n",
                 "2\n1\t0\n 0  1 \ntrailer\n", "2 \n1 2\n", "0" * 4301 + "\n",
                 "1\n" + "1" * 4301 + "\n", "2\n1 1\n" + "0" * 4301 + " 1\n",
                 "2\n1 " + "9" * 4300 + "\n0 1\n"):
        got = _parse_outcome(parse_matrix, text)
        assert got == _parse_outcome(reference_parse_matrix, text), text


def test_parse_matches_a_token_by_token_reference():
    # seeded texts of dimension 1-16, half of them faulty: the bulk test
    # and the one-translation decode must give the reference's rows, and a
    # faulty text the reference's first fault
    rng = random.Random(2711)
    seen = Counter()
    dims = set()
    for _ in range(4000):
        text = random_matrix_text(rng, fault_rate=0.5)
        got = _parse_outcome(parse_matrix, text)
        assert got == _parse_outcome(reference_parse_matrix, text), text
        if got[0] == "rows":
            dims.add(len(got[1]))
            seen["one digit" if max(map(max, got[1])) < 10 else "several digits"] += 1
        else:
            assert got[0] == "ParseError", got
            kind, = [k for k, pattern in _PARSE_MESSAGES.items()
                     if re.fullmatch(pattern, got[1])]
            seen[kind] += 1
    assert dims == set(range(1, 17))
    assert set(seen) == {"one digit", "several digits", *_PARSE_MESSAGES}, seen


# --- behaviour pin ------------------------------------------------------------------


def _small_matrices(max_dim=5, max_size=4):
    """Every upper-triangular matrix of dimension <= max_dim and size <=
    max_size, ascending dimension, then in a fixed order of assignments."""
    for d in range(1, max_dim + 1):
        cells = [(i, j) for i in range(d) for j in range(i, d)]
        values = [0] * len(cells)

        def fill(t, budget):
            if t == len(cells):
                g = [[0] * d for _ in range(d)]
                for (i, j), v in zip(cells, values):
                    g[i][j] = v
                yield TriMatrix(tuple(tuple(row) for row in g))
                return
            for v in range(budget + 1):
                values[t] = v
                yield from fill(t + 1, budget - v)
            values[t] = 0

        yield from fill(0, max_size)


def _render(value):
    if isinstance(value, TriMatrix):
        return format_matrix(value)
    if isinstance(value, SignedRowFishburn):
        return f"{value.flag}\n{format_matrix(value.matrix)}"
    if isinstance(value, Poset):
        return format_poset(value)
    return repr(value)


_PINNED_MAPS = {
    "alpha": alpha,
    "alpha_inv": alpha_inv,
    "beta": beta,
    "beta_inv": beta_inv,
    "em_to_sm": em_to_sm,
    "sm_to_em": sm_to_em,
    "embed_rm_in_b/0": lambda m: embed_rm_in_b(m, 0),
    "embed_rm_in_b/1": lambda m: embed_rm_in_b(m, 1),
    "project_b_to_signed_rm": project_b_to_signed_rm,
    "selfdual_to_signed_rm": selfdual_to_signed_rm,
    "reduce": reduce,
    "expand": expand,
    "reduced_size": reduced_size,
    "fishburn_to_poset": fishburn_to_poset,
}

# SHA-256 per check over all 5 127 small matrices; a changed digest names
# the membership condition or map whose verdict, image or error changed
_PINNED_DIGESTS = {
    "family_violation/fishburn":
        "b3ef09954966fc24c9f73d924f64b7c25bee7d94daf94c2fd0ec4fd343470a57",
    "family_violation/self_dual":
        "b5bee568233d5935d759c2abb8fae17b689cfc4ddebd9ce371566325e4d943df",
    "family_violation/rm":
        "700108f59210840d963dd56ffca6e1aed3e6dae3b7cdd03743af3a999cd58e02",
    "family_violation/sm":
        "454cea37bb476c6e9c47edf976511d3186561720ec0707f88de50d215d9ec65d",
    "family_violation/b":
        "493bd704293dc9f3968e0d8fbbf6c0827767d04f3a051d1dfc507e27064db456",
    "alpha":
        "b67beb00cbc96a22f51dea54b4eb7efaaa6108a4ea345ba3a5e47bdf9a30868b",
    "alpha_inv":
        "73efe2a776338fed8bdc5e791489b9bbddf53f04b3b85b5a2445e5cb27aa11ba",
    "beta":
        "b3e0b4dbd75539fbcb4f9d6687d914a891edf61ea62f56acb749f05aacf06ddf",
    "beta_inv":
        "7a4a45100228e38923d06700d0e08fc50cafc3f9d8a06290695e3287b4e42ac2",
    "em_to_sm":
        "5badf8adf069b870390a1e6e46ea41c425ffcc6549895b01bfcbff7cf5cb8e0b",
    "sm_to_em":
        "4aeefb8fd3b51ee01e39d12d078837ffcc23b11d4d6aba7affc8380479bc4e7f",
    "embed_rm_in_b/0":
        "9637c4117e44966ae890919d50bbafa8a3d59030178d9b16fe8a62973e8479a5",
    "embed_rm_in_b/1":
        "f0c210722c46df991adbf2f0f52466e9acdad1a4fca8517f71463b7e8538b1a1",
    "project_b_to_signed_rm":
        "da157318ffae5e7f50dab0e4bea7f1d5b3d99706835015c56a1fd5ef5e097ff4",
    "selfdual_to_signed_rm":
        "036996a024990d10b8b91abd3656146e1478054d5fb1a9a92afa56fe5872c3be",
    "reduce":
        "0338c00e60823be5f5e0e17c36e3b23dd4ef4d863211d6a3995947b9ec5c6d47",
    "expand":
        "112890bc79eb47ff7921fc8c5a36dc60a513eb9610c58c0b3153cd48847a5dce",
    "reduced_size":
        "19038ff726d697fb0c248f3a63519f52626a55219ffcf3408b6c9422ae4b0975",
    "fishburn_to_poset":
        "5b7358f65a0eebfa0c793612dea5d4bc64136e1115a91d5b18f3d5496d5533c8",
}


def _line_test_matrix(rng, d):
    # sparse enough that rows and columns are often zero: an upper
    # triangular matrix, a self-dual one, or one that is zero on SE
    kind = rng.choice(("upper", "self_dual", "zero_se"))
    density = rng.choice((0.05, 0.12, 0.3, 0.6))
    rows = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            if (kind == "upper" or i + j < d) and rng.random() < density:
                rows[i][j] = rng.randint(1, 3)
    if kind == "self_dual":
        for i in range(d):
            for j in range(d - i, d):
                rows[i][j] = rows[d - 1 - j][d - 1 - i]
    return TriMatrix(tuple(map(tuple, rows)))


def test_violations_match_cell_by_cell_references():
    # the line tests accept in bulk and name the offender by a second scan;
    # the pinned digests below reach dimension 5 only
    violations = {
        "selfdual_violation": selfdual_violation,
        "fishburn_violation": fishburn_violation,
        "row_fishburn_violation": row_fishburn_violation,
        "b_violation": b_violation,
        "super_triangular_violation": super_triangular_violation,
        "expandable_violation": expandable_violation,
        "sm_violation": sm_violation,
    }
    assert set(violations) == set(CELL_VIOLATIONS)
    rng = random.Random(612)
    verdicts = Counter()
    for _ in range(3000):
        m = _line_test_matrix(rng, rng.randint(6, 12))
        for name, violation in violations.items():
            got = violation(m)
            assert got == CELL_VIOLATIONS[name](m), (name, m)
            verdicts[name, got is None] += 1
    # each condition both holds and fails on some of them
    assert len(verdicts) == 2 * len(violations)


def test_membership_and_maps_pinned_on_small_matrices():
    matrices = list(_small_matrices())
    assert len(matrices) == 5127
    digests = {}
    for family in FamilyTag:
        h = hashlib.sha256()
        for m in matrices:
            h.update(f"{family_violation(family, m)}\n".encode())
        digests[f"family_violation/{family.value}"] = h.hexdigest()
    for name, fn in _PINNED_MAPS.items():
        h = hashlib.sha256()
        for m in matrices:
            try:
                out = _render(fn(m))
            except ValueError as exc:
                out = f"{type(exc).__name__}: {exc}"
            h.update(f"{out}\n".encode())
        digests[name] = h.hexdigest()
    assert digests == _PINNED_DIGESTS
