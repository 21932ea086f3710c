"""Brute-force reference implementations used only by the tests.

Everything here trades speed for obviousness.  Matrices come from raw
integer compositions over cell lists, posets from orienting every element
pair all three ways, and family totals from integer power series, so none
of the pruning or ordering logic in the package is shared with the code
that checks it.  Matrix text is read one character of one token at a
time, and the membership conditions are tested one cell at a time.
"""

import itertools
import operator
import sys

from fishburn import (
    FamilyTag,
    Parity,
    ParseError,
    Poset,
    StatVector,
    TriMatrix,
    family_member,
    reduced_size,
)

# --- integer compositions ------------------------------------------------------


def compositions(total, parts):
    """Every tuple of ``parts`` nonnegative integers summing to ``total``,
    in ascending lexicographic order, by stars and bars: the parts - 1 bars
    stand between the stars 1..total at ascending cut points 0..total, which
    may repeat, and each part is the number of stars between two bars."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for cuts in itertools.combinations_with_replacement(range(total + 1), parts - 1):
        yield tuple(map(operator.sub, cuts + (total,), (0,) + cuts))


# --- matrix scans ---------------------------------------------------------------


def upper_matrices(dim, total):
    """Every upper-triangular dim x dim matrix with entry sum ``total``.
    Row i is i zeros and then the next dim - i values of the composition,
    so every candidate is upper-triangular and nonnegative by construction
    and skips the public constructor's check."""
    starts = [i * dim - i * (i - 1) // 2 for i in range(dim + 1)]
    rows = [((0,) * i, slice(starts[i], starts[i + 1])) for i in range(dim)]
    for values in compositions(total, starts[-1]):
        yield TriMatrix._trusted(tuple([zeros + values[run] for zeros, run in rows]))


def brute_family(family, n, max_dim):
    """Members of a size-as-entry-sum family found by filtering the full
    upper-triangular scan up to max_dim."""
    found = set()
    for dim in range(1, max_dim + 1):
        for m in upper_matrices(dim, n):
            if family_member(family, m):
                found.add(m)
    return found


def brute_self_dual_full(n, max_dim):
    """Self-dual Fishburn matrices of reduced size n by filtering every
    upper-triangular matrix; entry sums range over n..2n because the SE
    half repeats the NW half.  Feasible only for small n."""
    found = set()
    for dim in range(1, max_dim + 1):
        for total in range(n, 2 * n + 1):
            for m in upper_matrices(dim, total):
                if (family_member(FamilyTag.SELF_DUAL, m)
                        and reduced_size(m) == n):
                    found.add(m)
    return found


def brute_self_dual_mirrored(n, max_dim):
    """Self-dual Fishburn matrices of reduced size n via the free cells.

    A self-dual matrix is determined by its NW and diagonal cells, and its
    reduced size is exactly their sum, so composing n over those cells and
    mirroring NW onto SE walks every candidate once; only the row and
    column condition remains to filter.
    """
    found = set()
    for dim in range(1, max_dim + 1):
        free = [(i, j) for i in range(1, dim + 1) for j in range(i, dim + 1)
                if i + j <= dim + 1]
        for values in compositions(n, len(free)):
            rows = [[0] * dim for _ in range(dim)]
            for (i, j), value in zip(free, values):
                rows[i - 1][j - 1] = value
            for i in range(1, dim + 1):
                for j in range(i, dim + 1):
                    if i + j > dim + 1:
                        rows[i - 1][j - 1] = rows[dim - j][dim - i]
            m = TriMatrix(tuple(tuple(row) for row in rows))
            if family_member(FamilyTag.FISHBURN, m):
                found.add(m)
    return found


# --- membership conditions, cell by cell -----------------------------------------
# Each returns None when its condition holds, else the message the package's
# ``*_violation`` gives for the first offending cell, row or column.


def _zero_row(m, i):
    return all(m.entry(i, j) == 0 for j in range(1, m.dim + 1))


def _zero_column(m, j):
    return all(m.entry(i, j) == 0 for i in range(1, m.dim + 1))


def cell_rows_from(m, first):
    """The first zero row from row ``first`` on."""
    for i in range(first, m.dim + 1):
        if _zero_row(m, i):
            return f"row {i} zero"
    return None


def cell_columns_to(m, last):
    """The first zero column up to column ``last``."""
    for j in range(1, last + 1):
        if _zero_column(m, j):
            return f"column {j} zero"
    return None


def cell_pairing(m, order):
    """The first i, in ``order``, with row i and column d + 1 - i zero."""
    d = m.dim
    for i in order:
        if _zero_row(m, i) and _zero_column(m, d + 1 - i):
            return f"row {i} and column {d + 1 - i} both zero"
    return None


def cell_selfdual(m):
    d = m.dim
    for i in range(1, d + 1):
        for j in range(i, d + 1):
            a, b = m.entry(i, j), m.entry(d + 1 - j, d + 1 - i)
            if a != b:
                return (f"cell ({i}, {j}) holds {a} but its mirror "
                        f"({d + 1 - j}, {d + 1 - i}) holds {b}")
    return None


def cell_super_triangular(m):
    d = m.dim
    for i in range(1, d + 1):
        for j in range(i, d + 1):
            if i + j > d + 1 and m.entry(i, j) != 0:
                return f"SE cell ({i}, {j}) holds {m.entry(i, j)}, want 0"
    return None


def cell_expandable(m):
    h = (m.dim + 1) // 2
    return cell_columns_to(m, h) or cell_pairing(m, range(1, h + 1))


def cell_sm(m):
    d = m.dim
    if d % 2 == 0:
        return f"dimension {d} even"
    k = (d - 1) // 2
    return (cell_super_triangular(m) or cell_columns_to(m, k)
            or cell_pairing(m, range(k, 0, -1)))


CELL_VIOLATIONS = {
    "selfdual_violation": cell_selfdual,
    "fishburn_violation": lambda m: cell_rows_from(m, 1) or cell_columns_to(m, m.dim),
    "row_fishburn_violation": lambda m: cell_rows_from(m, 1),
    "b_violation": lambda m: cell_rows_from(m, 2),
    "super_triangular_violation": cell_super_triangular,
    "expandable_violation": cell_expandable,
    "sm_violation": cell_sm,
}


# --- the matrix constructor ---------------------------------------------------------
# Rows are a nonempty tuple of d rows, each a tuple of d cells; a cell is an
# int that is no bool, is at least 0, and is 0 left of the main diagonal.


def reference_trimatrix_error(rows):
    """``(ValueError, message)`` for the first fault the public ``TriMatrix``
    constructor names in ``rows``, or None when it accepts them: rows top
    down, and in a row its type and length first, then its cells left to
    right, each for its type, its sign and its place."""
    if not isinstance(rows, tuple) or len(rows) == 0:
        return ValueError, "rows must be a nonempty tuple of row tuples"
    d = len(rows)
    for i in range(1, d + 1):
        row = rows[i - 1]
        if not isinstance(row, tuple) or len(row) != d:
            return ValueError, f"row {i} must be a tuple of {d} entries"
        for j in range(1, d + 1):
            value = row[j - 1]
            if isinstance(value, bool) or not isinstance(value, int):
                return ValueError, f"cell ({i}, {j}) must be an integer"
            if value < 0:
                return ValueError, f"cell ({i}, {j}) must be nonnegative"
            if j < i and value != 0:
                return ValueError, f"cell ({i}, {j}) lies below the main diagonal and must be 0"
    return None


# --- matrix text -------------------------------------------------------------------
# Line 1 holds the dimension d; each of the next d lines holds d entries,
# separated by whitespace; an entry is a run of the ASCII digits 0-9 with
# no more digits than ``int`` converts, and an entry left of the main
# diagonal must be 0.  Later lines are ignored.

_DIGITS = "0123456789"


def _digits_value(token):
    """The value of a token of ASCII digits, read one digit at a time, or
    None for any other token."""
    value = 0
    for ch in token:
        if ch not in _DIGITS:
            return None
        value = 10 * value + _DIGITS.index(ch)
    return value


def _too_long(token):
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    return 0 < limit < len(token)


def _long_message(what):
    return f"{what} has more than {sys.get_int_max_str_digits()} digits"


def reference_parse_matrix(text):
    """The rows of a matrix text, each entry read token by token, or a
    ParseError naming the first fault in reading order: line by line, and
    in a line its entry count first, then its entries left to right."""
    lines = text.splitlines()
    head = lines[0].split() if lines else []
    d = _digits_value(head[0]) if len(head) == 1 else None
    if d is not None and _too_long(head[0]):
        raise ParseError(_long_message("line 1: the dimension"))
    if d is None or d < 1:
        raise ParseError("line 1: expected a positive dimension")
    if len(lines) < d + 1:
        raise ParseError(f"line {len(lines) + 1}: expected {d} matrix rows, "
                         f"found {len(lines) - 1}")
    rows = []
    for i in range(1, d + 1):
        tokens = lines[i].split()
        if len(tokens) != d:
            raise ParseError(f"line {i + 1}: expected {d} entries, found {len(tokens)}")
        row = []
        for j, token in enumerate(tokens, start=1):
            value = _digits_value(token)
            if value is None:
                raise ParseError(f"line {i + 1}: entry {j} is not a nonnegative integer")
            if j < i and value != 0:
                raise ParseError(f"cell ({i}, {j}) lies below the main diagonal and must be 0")
            if _too_long(token):
                raise ParseError(_long_message(f"line {i + 1}: entry {j}"))
            row.append(value)
        rows.append(tuple(row))
    return tuple(rows)


# tokens that look like entries to ``int`` or ``str.isdigit`` but are none
NON_ENTRIES = ("+1", "-1", "1_0", "\u0663", "\u00b2", "1.0", "x", "0x1")
FAULTS = ("token", "below", "short", "long", "rows", "head", "oversize")


def random_matrix_text(rng, fault_rate):
    """A seeded matrix text of dimension 1-16 with entries of one to three
    digits, now and then with leading zeros, LF or CRLF line ends, runs of
    spaces or tabs between entries and a trailer line; with probability
    ``fault_rate`` it holds one or two faults drawn from ``FAULTS``."""
    d = rng.randint(1, 16)
    width = rng.choice((1, 1, 2, 3))
    tokens = [["0" if j < i or rng.random() < 0.4 else str(rng.randrange(1, 10 ** width))
               for j in range(d)] for i in range(d)]
    for row in tokens:
        for j, token in enumerate(row):
            if rng.random() < 0.03:
                row[j] = "0" * rng.randint(1, 2) + token
    head = str(d)
    if rng.random() < fault_rate:
        for _ in range(rng.randint(1, 2)):
            head = _add_fault(rng, rng.choice(FAULTS), d, head, tokens)
    newline = rng.choice(("\n", "\r\n"))
    space = rng.choice((" ", " ", "  ", "\t"))
    lines = [head] + [space.join(row) for row in tokens]
    if rng.random() < 0.2:
        lines.append(rng.choice(("flag: 1", "1 2 3", "")))
    return newline.join(lines) + (newline if rng.random() < 0.9 else "")


def _add_fault(rng, kind, d, head, tokens):
    # change ``tokens`` in place; return the dimension line
    i = rng.randrange(len(tokens)) if tokens else 0
    if kind == "token" and tokens and tokens[i]:
        tokens[i][rng.randrange(len(tokens[i]))] = rng.choice(NON_ENTRIES)
    elif kind == "below" and i > 0 and len(tokens[i]) >= i:
        tokens[i][rng.randrange(i)] = str(rng.randrange(1, 1000))
    elif kind == "short" and tokens and tokens[i]:
        del tokens[i][rng.randrange(len(tokens[i]))]
    elif kind == "long" and tokens:
        tokens[i].insert(rng.randrange(len(tokens[i]) + 1), str(rng.randrange(10)))
    elif kind == "rows" and tokens:
        del tokens[rng.randrange(len(tokens)):]
    elif kind == "head":
        return rng.choice(("0", "-2", "2 2", "", "x", "+3", "\u0663", str(d + 1),
                           "0" * 4300 + str(d)))
    elif kind == "oversize" and tokens and tokens[i]:
        tokens[i][rng.randrange(len(tokens[i]))] = rng.choice("01") + "7" * 4300
    return head


# --- statistics -----------------------------------------------------------------
# Each statistic is summed cell by cell through ``entry`` over the condition
# that defines it, across the whole square: a cell below the main diagonal
# holds 0, so it adds nothing to a sum that meets it.


def cell_sum(m, condition):
    """The sum of the cells (i, j) of ``m`` with ``condition(i, j, d)``."""
    d = m.dim
    return sum(m.entry(i, j) for i in range(1, d + 1) for j in range(1, d + 1)
               if condition(i, j, d))


def _first_row(i, j, d):
    return i == 1


def _diagonal(i, j, d):
    return j == d + 1 - i


def _center_column(i, j, d):
    return d % 2 == 1 and j == (d + 1) // 2


def _last_column(i, j, d):
    return j == d


def cell_sum_stats(m):
    """``stats(m)``, each field summed over its defining cells."""
    d = m.dim
    return StatVector(cell_sum(m, lambda i, j, d: True),
                      cell_sum(m, lambda i, j, d: i + j <= d + 1),
                      cell_sum(m, _first_row), cell_sum(m, _diagonal),
                      cell_sum(m, _center_column), cell_sum(m, _last_column),
                      d, Parity.ODD if d % 2 else Parity.EVEN)


def cell_sum_key(family, m):
    """The refinement key (k, p, parity) of a member of ``family``: first
    row and diagonal with the dimension's parity for ``fishburn`` and
    ``self_dual``, last column and first row for ``rm`` and ``b``, first
    row and center column for ``sm``."""
    if family in (FamilyTag.FISHBURN, FamilyTag.SELF_DUAL):
        return (cell_sum(m, _first_row), cell_sum(m, _diagonal),
                Parity.ODD if m.dim % 2 else Parity.EVEN)
    if family in (FamilyTag.RM, FamilyTag.B):
        return cell_sum(m, _last_column), cell_sum(m, _first_row), Parity.ANY
    return cell_sum(m, _first_row), cell_sum(m, _center_column), Parity.ANY


# --- power series ---------------------------------------------------------------


def _series_product(a, b):
    """The product of two integer power series, given as coefficient lists
    and truncated to the length of ``a``."""
    out = [0] * len(a)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b[:len(a) - i]):
                out[i + j] += x * y
    return out


def _one_minus_x_power(i, terms):
    """(1 - x)^i to ``terms`` coefficients, for any integer i: the binomial
    series, whose k-th coefficient is (-1)^k times i(i-1)...(i-k+1)/k!."""
    out = [1]
    for k in range(1, terms):
        out.append(out[-1] * (k - 1 - i) // k)
    return out


def _product_sum(factor, terms):
    """Coefficients 0..terms-1 of the sum over m >= 0 of the product of
    factor(1), ..., factor(m).  Every factor lacks a constant term, so the
    m-th product starts at x^m and m < terms suffices."""
    total = [0] * terms
    product = [1] + [0] * (terms - 1)
    for m in range(terms):
        total = [t + c for t, c in zip(total, product)]
        product = _series_product(product, factor(m + 1))
    return total


def fishburn_series(terms):
    """Zagier's series: the sum over m of the product of 1 - (1 - x)^i,
    i = 1..m, whose n-th coefficient counts Fishburn matrices of size n."""
    def factor(i):
        return [int(k == 0) - c for k, c in enumerate(_one_minus_x_power(i, terms))]
    return _product_sum(factor, terms)


def row_fishburn_series(terms):
    """The sum over m of the product of (1 - x)^-i - 1, i = 1..m, whose n-th
    coefficient counts row-Fishburn matrices of size n."""
    def factor(i):
        return [c - int(k == 0) for k, c in enumerate(_one_minus_x_power(-i, terms))]
    return _product_sum(factor, terms)


# --- poset scans -----------------------------------------------------------------


def all_posets(n):
    """Every strict partial order on elements 1..n, by orienting each pair
    three ways and keeping the transitive outcomes."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    for choice in itertools.product((0, 1, 2), repeat=len(pairs)):
        relation = set()
        for (x, y), direction in zip(pairs, choice):
            if direction == 1:
                relation.add((x, y))
            elif direction == 2:
                relation.add((y, x))
        if all((x, w) in relation
               for x, y in relation for z, w in relation if y == z):
            yield Poset(n, frozenset(relation))


def no_two_plus_two(p):
    """Interval-order test by the definition: no four distinct elements
    form two comparable pairs with all four cross relations absent.  It
    compares every pair of relation pairs, independent of the chain
    characterization in the package."""
    rel = p.relation
    for a, b in rel:
        for c, d in rel:
            if len({a, b, c, d}) == 4 and not any(
                    (u, v) in rel or (v, u) in rel for u in (a, b) for v in (c, d)):
                return False
    return True


def brute_canonical(p):
    """Minimal relation encoding over all n! relabelings."""
    n = p.n_elements
    best = None
    for perm in itertools.permutations(range(1, n + 1)):
        relabel = dict(zip(range(1, n + 1), perm))
        encoded = tuple(sorted((relabel[x], relabel[y]) for x, y in p.relation))
        if best is None or encoded < best:
            best = encoded
    return (n, best)


def reference_closure(n, pairs):
    """The transitive closure of ``pairs`` over elements 1..n, by a walk
    from each element along the pairs, and the least element that the
    walk from it reaches again (one on a cycle), or None."""
    above = {x: [] for x in range(1, n + 1)}
    for x, y in pairs:
        above[x].append(y)
    closure = set()
    for x in above:
        reached = set()
        pending = list(above[x])
        while pending:
            y = pending.pop()
            if y not in reached:
                reached.add(y)
                pending.extend(above[y])
        closure.update((x, y) for y in reached)
    return frozenset(closure), min((x for x, y in closure if x == y), default=None)
