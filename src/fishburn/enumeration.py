"""Exhaustive generators, refined counters, and the identity checker.

Members of each family are generated directly from their defining
constraints rather than filtered out of the full composition space: values
are assigned to the free cells in row-major order with two prunes, a dead
check when a line that still needs mass runs out of cells, and a lower bound
on the mass still required.  A line is a row, a column, or for ``sm`` and
``self_dual`` a pair line, row i together with column d + 1 - i of the
dimension-d half, which must get mass so that the half mirrors into a
matrix with both lines nonzero; it ends at the diagonal cell (i, d + 1 - i).
So the walk yields members only, and every matrix built from it skips the
public constructor's check.  The emission order is part of the
contract: ascending dimension, then ascending lexicographic order on the
row-major entry sequence.  The unpruned composition scan lives in the test
suite as an independent oracle.

Both paths read one plan per dimension: the free cells and their lines,
numbered once in ``_lines``, so the membership conditions are defined in
one place.  ``enumerate_family``, which the identity checker uses, walks
the value tuples and builds each into its member; it is the one path that
materialises a family, and it caches the result.  ``count_refined`` lists
no member: a dynamic program over the same cells carries, for each mass
left and set of still-open lines, the number of prefixes per partial key
sum, so its work and memory grow with those states and not with the family.

``verify_identities`` checks counting identities two ways.  An identity is
a spec: count tables that must agree, and transport legs.  A leg pairs
source members with keys, names a map, and gives the target family as a
table from each target to its key; one routine checks every leg for
injectivity, escape from the target set, image-set equality and key
transport, reading image keys from that table rather than recomputing them.
The identities at one size share one pass, which builds each family's
statistics and each map image once.
"""

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cache, lru_cache

from .bijections import (
    SignedRowFishburn,
    beta,
    em_to_sm,
    embed_rm_in_b,
    project_b_to_signed_rm,
    selfdual_to_signed_rm,
)
from .matrices import (
    Parity,
    TriMatrix,
    _expand,
    b_violation,
    fishburn_violation,
    reduced_size,
    row_fishburn_violation,
    selfdual_violation,
    sm_violation,
    stats,
)

# --- family tags -------------------------------------------------------------


class FamilyTag(Enum):
    FISHBURN = "fishburn"
    SELF_DUAL = "self_dual"
    RM = "rm"
    SM = "sm"
    B = "b"


_VIOLATIONS = {
    FamilyTag.FISHBURN: fishburn_violation,
    FamilyTag.SELF_DUAL: lambda m: selfdual_violation(m) or fishburn_violation(m),
    FamilyTag.RM: row_fishburn_violation,
    FamilyTag.SM: sm_violation,
    FamilyTag.B: b_violation,
}


def family_violation(family, m):
    """None when ``m`` belongs to the family, else the first failed condition."""
    if not isinstance(family, FamilyTag):
        raise ValueError(f"unknown family {family!r}")
    return _VIOLATIONS[family](m)


def family_member(family, m):
    return family_violation(family, m) is None


def family_size(family, m):
    """The family's size notion: entry sum, except the NW plus diagonal sum
    for the self-dual family."""
    if family is FamilyTag.SELF_DUAL:
        return reduced_size(m)
    return m.size()


# --- generators --------------------------------------------------------------


def _upper_cells(d):
    return tuple((i, j) for i in range(1, d + 1) for j in range(i, d + 1))


def _non_se_cells(d):
    return tuple((i, j) for i in range(1, d + 1) for j in range(i, d + 1)
                 if i + j <= d + 1)


def _lines(cells, need_rows, need_cols, need_pairs=()):
    """The lines over ``cells`` that must get mass, numbered from 1: each
    row in need_rows, each column in need_cols, and for each (r, c) in
    need_pairs the pair line made of row r and column c together.  A pair
    whose row or column needs mass by itself is met with it and is not
    kept, and each row and column lies in at most one pair.

    Returns (kinds, plan): kinds[x] is "row", "col" or "pair" for line x,
    and plan holds per cell its line through its row and its line through
    its column, whether it is the last cell of each, and whether they are a
    row and a column (not a pair).  Line 0 stands for the rows and columns
    that need no mass and is never open; the diagonal cell of a pair line
    has it on both sides and counts it once, on the row side.  Every line
    must hold a cell, or nothing could put mass on it.
    """
    row_line = {}
    col_line = {}
    kinds = [None]
    for r in set(need_rows):
        row_line[r] = len(kinds)
        kinds.append("row")
    for c in set(need_cols):
        col_line[c] = len(kinds)
        kinds.append("col")
    for r, c in need_pairs:
        if r not in row_line and c not in col_line:
            row_line[r] = col_line[c] = len(kinds)
            kinds.append("pair")
    ends = [None] * len(kinds)
    for t, (i, j) in enumerate(cells):
        ends[row_line.get(i, 0)] = ends[col_line.get(j, 0)] = t
    plan = []
    for t, (i, j) in enumerate(cells):
        a = row_line.get(i, 0)
        b = col_line.get(j, 0)
        if b == a:
            b = 0
        plan.append((a, b, ends[a] == t, ends[b] == t, kinds[a] == "row", kinds[b] == "col"))
    return kinds, plan


def _fill_assignments(total, kinds, plan):
    """Yield row-major-ascending value tuples over the cells of ``plan``
    summing to ``total`` that put mass on every line of ``_lines``.

    The walk goes depth first over the cells, each taking 0 first and then
    1, 2, ... up to the mass left.  Pending lines are kept as counts plus
    one "still open" flag per line: a positive value closes its cell's two
    lines, and backing out of the cell reopens them.  A cell where a
    still-open line ends starts at 1 instead of 0.  A branch is pruned when
    the mass left cannot close the pending lines: one unit closes at most
    one line through its row and one through its column, so the mass left
    must reach the pending rows, the pending columns, and half of all
    pending lines.  The last cell takes all the mass left, the one value
    that can complete the tuple.
    """
    is_open = [False] + [True] * (len(kinds) - 1)
    last = len(plan) - 1
    values = [0] * len(plan)
    # one frame per cell entered: the mass left and the pending counts
    # before it, and whether its two lines were open
    frames = []
    t = 0
    remaining = total
    rows_pending = kinds.count("row")
    cols_pending = kinds.count("col")
    lines_pending = len(kinds) - 1
    while True:
        if (remaining >= rows_pending and remaining >= cols_pending
                and 2 * remaining >= lines_pending):
            if t == last:
                # every other line has met its last cell, so all the
                # remaining mass goes here
                values[t] = remaining
                yield tuple(values)
                values[t] = 0
            else:
                a, b, a_ends, b_ends, a_row, b_col = plan[t]
                open_a = is_open[a]
                open_b = is_open[b]
                frames.append((remaining, rows_pending, cols_pending, lines_pending,
                               open_a, open_b))
                if open_a and a_ends or open_b and b_ends:
                    is_open[a] = is_open[b] = False
                    rows_pending -= open_a and a_row
                    cols_pending -= open_b and b_col
                    lines_pending -= open_a + open_b
                    values[t] = 1
                    remaining -= 1
                t += 1
                continue
        # back up to the nearest cell that can take one more unit
        while True:
            if not frames:
                return
            t -= 1
            before, rows_pending, cols_pending, lines_pending, open_a, open_b = frames[-1]
            a, b, _, _, a_row, b_col = plan[t]
            if values[t] < before:
                break
            values[t] = 0
            is_open[a] = open_a
            is_open[b] = open_b
            frames.pop()
        values[t] += 1
        remaining = before - values[t]
        is_open[a] = is_open[b] = False
        rows_pending -= open_a and a_row
        cols_pending -= open_b and b_col
        lines_pending -= open_a + open_b
        t += 1


def _builder(d, cells):
    """The map from a value tuple over ``cells`` to the dimension-d matrix
    holding those values there and zeros elsewhere.  In both cell lists each
    row's cells are one run that starts on the main diagonal, so every row
    is zeros, a slice of the values, then zeros."""
    runs = []
    t = 0
    for i in range(1, d + 1):
        width = sum(1 for r, _ in cells if r == i)
        runs.append(((0,) * (i - 1), t, t + width, (0,) * (d + 1 - i - width)))
        t += width

    trusted = TriMatrix._trusted

    def build(values):
        return trusted(tuple(left + values[a:b] + right for left, a, b, right in runs))

    return build


def _plan(family, n):
    """One (d, free cells in row-major order, their ``_lines``) per
    dimension, ascending: the members at d are the value tuples of size n
    over those cells that put mass on every line.  Every line holds a
    cell: row i holds (i, i) and column j holds (1, j).  ``sm`` and
    ``self_dual`` take the zero-SE half: columns 1..h nonzero, and row i or
    column d + 1 - i nonzero for each i up to h."""
    if not isinstance(family, FamilyTag):
        raise ValueError(f"unknown family {family!r}")
    if n < 1:
        raise ValueError("n must be at least 1")
    if family is FamilyTag.SM or family is FamilyTag.SELF_DUAL:
        sm = family is FamilyTag.SM
        for d in range(1, 2 * n + 2, 2) if sm else range(1, 2 * n + 1):
            h = (d - 1) // 2 if sm else (d + 1) // 2
            cells = _non_se_cells(d)
            pairs = [(i, d + 1 - i) for i in range(1, h + 1)]
            yield d, cells, _lines(cells, (), range(1, h + 1), pairs)
        return
    # rows nonzero from the first, or for b from the second, which lets b
    # reach dimension n + 1; fishburn also needs every column nonzero
    first = 2 if family is FamilyTag.B else 1
    for d in range(1, n + first):
        cells = _upper_cells(d)
        rows = range(first, d + 1)
        yield d, cells, _lines(cells, rows, rows if family is FamilyTag.FISHBURN else ())


def _walk(family, n):
    """The members ``enumerate_family`` lists, one at a time.  Expanding a
    ``self_dual`` half fills only SE cells whose mirrors sit in earlier
    rows, so it keeps row-major order."""
    for d, cells, lines in _plan(family, n):
        members = map(_builder(d, cells), _fill_assignments(n, *lines))
        yield from map(_expand, members) if family is FamilyTag.SELF_DUAL else members


@lru_cache(maxsize=None)
def enumerate_family(family, n):
    """Every member of the family at size n (reduced size for SELF_DUAL),
    each exactly once, ascending dimension then ascending row-major
    lexicographic order."""
    return tuple(_walk(family, n))


# --- refined counts ----------------------------------------------------------

_PARITY_ORDER = {Parity.EVEN: 0, Parity.ODD: 1, Parity.ANY: 2}


def _key_cells(family, d):
    """(k cells, p cells, parity) of the family's key at dimension d.
    FISHBURN and SELF_DUAL: first row, diagonal cells (i, d + 1 - i) on or
    above the main diagonal, dimension parity; RM and B: last column, first
    row; SM: first row, center column (none for an even d).  First row,
    diagonal cells and center column lie in the NW-plus-diagonal half."""
    first_row = [(1, j) for j in range(1, d + 1)]
    h = (d + 1) // 2
    if family is FamilyTag.SM:
        return first_row, [(i, h) for i in range(1, h + 1)] if d % 2 else [], Parity.ANY
    if family is FamilyTag.RM or family is FamilyTag.B:
        return [(i, d) for i in range(1, d + 1)], first_row, Parity.ANY
    parity = Parity.ODD if d % 2 else Parity.EVEN
    return first_row, [(i, d + 1 - i) for i in range(1, h + 1)], parity


def refinement_key(family, m):
    """(k, p, parity) cell key for one member; see ``_key_cells``."""
    rows = m.rows
    k, p, parity = _key_cells(family, len(rows))
    return (sum(rows[i - 1][j - 1] for i, j in k),
            sum(rows[i - 1][j - 1] for i, j in p), parity)


@dataclass(frozen=True)
class CountTable:
    """Refined counts for one family at one size."""

    family: FamilyTag
    n: int
    cells: dict
    total: int

    def sorted_cells(self):
        return sorted(self.cells.items(),
                      key=lambda kv: (kv[0][0], kv[0][1], _PARITY_ORDER[kv[0][2]]))

    def to_csv(self):
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["family", "n", "k", "p", "parity", "count"])
        for (k, p, parity), count in self.sorted_cells():
            writer.writerow([self.family.value, self.n, k, p, parity.value, count])
        return out.getvalue()

    def to_json(self):
        doc = {
            "family": self.family.value,
            "n": self.n,
            "total": self.total,
            "cells": [
                {"k": k, "p": p, "parity": parity.value, "count": count}
                for (k, p, parity), count in self.sorted_cells()
            ],
        }
        return json.dumps(doc, indent=2) + "\n"


def _tally(total, kinds, plan, k_at, p_at):
    """{(k, p): count} over the value tuples ``_fill_assignments(total,
    kinds, plan)`` yields, k and p summing a tuple at the positions in k_at
    and p_at, found without listing the tuples.

    A forward dynamic program over the cells in row-major order.  A state is
    the mass left and the bitmask of lines still open, and maps each pair of
    partial (k, p) sums reaching it to its number of prefixes.  A positive
    value closes both lines of its cell.  A line still open past its last
    cell never closes, so a cell takes 0 only where no open line ends, and
    a state is dropped once its open lines outnumber twice the mass left,
    since one unit closes at most two lines.  The tuples are the prefixes
    reaching mass 0 with no line open.
    """
    # a pair of sums is held as k * (total + 1) + p, each sum being at most total
    base = total + 1
    states = {(total, (1 << len(kinds)) - 2): {0: 1}}
    for t, (a, b, a_ends, b_ends, _, _) in enumerate(plan):
        # bit 0 is line 0, which is never open
        through = ((1 << a) | (1 << b)) & ~1
        ending = ((a_ends << a) | (b_ends << b)) & ~1
        step = base * (t in k_at) + (t in p_at)
        following = {}
        for (left, open_lines), table in states.items():
            closed = open_lines & ~through
            moves = [((left - v, closed), v * step)
                     for v in range(1, left - (closed.bit_count() + 1) // 2 + 1)]
            if not open_lines & ending:
                moves.append(((left, open_lines), 0))
            for state, shift in moves:
                target = following.setdefault(state, {})
                for key, count in table.items():
                    key += shift
                    target[key] = target.get(key, 0) + count
        states = following
    return {divmod(key, base): count for key, count in states.get((0, 0), {}).items()}


def count_refined(family, n):
    """The refined count table: the number of members per
    ``refinement_key``, tallied dimension by dimension by ``_tally`` over the
    lines the walk fills, so no member is listed or built.  Every key cell
    of a ``self_dual`` member lies in its walked half."""
    cells = Counter()
    for d, free, lines in _plan(family, n):
        position = {cell: t for t, cell in enumerate(free)}
        k_cells, p_cells, parity = _key_cells(family, d)
        table = _tally(n, *lines, {position[cell] for cell in k_cells},
                       {position[cell] for cell in p_cells})
        cells.update({(k, p, parity): count for (k, p), count in table.items()})
    return CountTable(family=family, n=n, cells=dict(cells), total=sum(cells.values()))


# --- identity checker ---------------------------------------------------------

IDENTITIES = ("eq1", "eq2", "eq3", "eq4", "eq8")


@dataclass(frozen=True)
class IdentityReport:
    identity: str
    n: int
    passed: bool
    detail: str
    counterexample: TriMatrix = None


@dataclass(frozen=True)
class _Leg:
    """One transport leg: ``apply`` must send the ``sources`` (member, key)
    pairs one-to-one onto the ``targets`` table (target -> key), each image
    carrying its source's key; ``inverse``, when given, must send every
    image back to its source."""

    name: str
    sources: list
    apply: object
    targets: dict
    inverse: object = None


def _check_leg(leg):
    """None when the leg holds, else (detail, witness)."""
    images = {}
    for source, key in leg.sources:
        image = leg.apply(source)
        if image in images:
            problem = "two members share an image"
        elif image not in leg.targets:
            problem = "image escapes the target set"
        elif leg.targets[image] != key:
            problem = "statistics not transported"
        else:
            images[image] = source
            continue
        # a signed source is reported by its matrix
        return f"{problem} under {leg.name}", getattr(source, "matrix", source)
    if len(images) != len(leg.targets):
        return f"image set misses targets under {leg.name}", None
    if leg.inverse is not None:
        for image, source in images.items():
            if leg.inverse(image) != source:
                return f"inverse map does not undo {leg.name}", image
    return None


def _spec(identity, n, with_stats, chain, signed):
    """(count tables that must agree, transport legs, passing detail) for
    one identity at size n.  eq1, eq2 and eq3 map slices of the self-dual
    family through the chain into rm x {1}, rm x {0} and rm x {0, 1}; eq4
    embeds rm x {0, 1} into b; eq8 sends the even half of the self-dual
    family into the zero-center slice of sm and that slice on into rm."""
    if identity == "eq8":
        selfdual = with_stats(FamilyTag.SELF_DUAL)
        even = [(m, st.first_row_sum) for m, st in selfdual if m.dim % 2 == 0]
        odd = [(m, st.first_row_sum) for m, st in selfdual if m.dim % 2 == 1]
        rm_k = {r: st.last_col_sum for r, st in with_stats(FamilyTag.RM)}
        zero_center = {s: st.first_row_sum for s, st in with_stats(FamilyTag.SM)
                       if st.center_col_sum == 0}
        tables = [Counter(k for _, k in even), Counter(k for _, k in odd),
                  Counter(rm_k.values())]
        legs = [_Leg("the parity embedding", even, em_to_sm, zero_center),
                _Leg("column relocation on the zero-center slice",
                     list(zero_center.items()),
                     lambda s: project_b_to_signed_rm(beta(s)).matrix, rm_k)]
        return tables, legs, (f"even {len(even)} = odd {len(odd)} = {len(rm_k)} "
                              f"over {len(tables[2])} first-row classes")
    rm = enumerate_family(FamilyTag.RM, n)
    if identity == "eq1":
        leg = _Leg("the map chain on the zero-sum slice",
                   [(m, st.first_row_sum)
                    for m, st in with_stats(FamilyTag.SELF_DUAL) if st.diag_sum == 0],
                   chain,
                   {signed(r, 1): st.last_col_sum
                    for r, st in with_stats(FamilyTag.RM)})
        classes = "first-row classes"
    elif identity == "eq2":
        leg = _Leg("the map chain on the positive-sum slice",
                   [(m, (st.first_row_sum, st.diag_sum))
                    for m, st in with_stats(FamilyTag.SELF_DUAL) if st.diag_sum >= 1],
                   chain,
                   {signed(r, 0): (st.last_col_sum, st.first_row_sum)
                    for r, st in with_stats(FamilyTag.RM)})
        classes = "refined classes"
    elif identity == "eq3":
        leg = _Leg("the full map chain",
                   [(m, None) for m in enumerate_family(FamilyTag.SELF_DUAL, n)],
                   chain,
                   dict.fromkeys(signed(r, flag) for r in rm for flag in (0, 1)))
    else:
        leg = _Leg("the embedding",
                   [(signed(r, flag), None) for r in rm for flag in (0, 1)],
                   lambda s: embed_rm_in_b(s.matrix, s.flag),
                   dict.fromkeys(enumerate_family(FamilyTag.B, n)),
                   inverse=project_b_to_signed_rm)
    # a passing leg is a bijection carrying keys, so its source and target
    # counts agree, in total and per key
    tables = [Counter(key for _, key in leg.sources), Counter(leg.targets.values())]
    if identity in ("eq3", "eq4"):
        return tables, [leg], f"{len(leg.targets)} = 2*{len(rm)}"
    return tables, [leg], f"{len(leg.sources)} = {len(rm)} over {len(tables[0])} {classes}"


def verify_identities(identities, n):
    """Check counting identities at one size by refined count comparison and
    again by member-by-member transport, one report per identity in the
    order given.  Failure is a report with a witness, not an exception."""
    for identity in identities:
        if identity not in IDENTITIES:
            raise ValueError(f"unknown identity {identity!r}, expected one of {IDENTITIES}")
    if n < 1:
        raise ValueError("n must be at least 1")
    # shared by the pass, each built on first use and dropped with the pass;
    # the signed pairs are built from generated rm members, so they skip the
    # row check of the public constructor
    with_stats = cache(lambda family: [(m, stats(m)) for m in enumerate_family(family, n)])
    pieces = (with_stats, cache(selfdual_to_signed_rm), cache(SignedRowFishburn._trusted))
    return [_verify(identity, n, *_spec(identity, n, *pieces)) for identity in identities]


def _verify(identity, n, tables, legs, detail):
    if any(table != tables[0] for table in tables):
        return IdentityReport(identity, n, False, "count tables differ: "
                              + " vs ".join(str(dict(table)) for table in tables))
    for leg in legs:
        failure = _check_leg(leg)
        if failure is not None:
            return IdentityReport(identity, n, False, *failure)
    return IdentityReport(identity, n, True, detail)


def verify_identity(identity, n):
    """One identity at one size; see ``verify_identities``."""
    return verify_identities((identity,), n)[0]
