"""Exhaustive generators, refined counters, and the identity checker.

Members of each family are generated directly from their defining
constraints rather than filtered out of the full composition space.  A
line is a row, a column, or for ``sm`` and ``self_dual`` a pair line, row
i together with column d + 1 - i of the dimension-d half, which must get
mass so that the half mirrors into a matrix with both lines nonzero; it
ends at the diagonal cell (i, d + 1 - i).  Values go to the free cells in
row-major order, and one rule, ``_moves``, says which value a cell may
take from a state (mass left, bitmask of lines still open): no 0 where an
open line ends, and no value that leaves more open lines than twice the
mass left.  The members are the paths of that rule from (total, every
line) to (0, 0).  The emission order is part of the contract: ascending
dimension, then ascending lexicographic order on the row-major entry
sequence.  The unpruned composition scan lives in the test suite as an
independent oracle.

Both paths read one plan per dimension, the free cells and their lines
numbered once in ``_lines``, and walk it by ``_moves``.  Their free cells
and the cells each family's key sums (``_KEYS``) come from ``_cells``.
``enumerate_family``, which the identity checker uses, first keeps the
states that can still reach (0, 0), so its depth-first walk enters no
branch without a member and yields members only; every matrix built from
it skips the public constructor's check.  It is the one path that
materialises a family, and it caches the result.  ``count_refined`` lists
no member: a forward dynamic program over the same states carries the
number of prefixes per partial key sum, so its work and memory grow with
those states and not with the family.

``verify_identities`` checks counting identities two ways.  An identity is
a spec: count tables that must agree, and transport legs.  A leg pairs
source members with keys, names a map, and gives the target family as a
table from each target to its key; one routine checks every leg for
injectivity, escape from the target set, image-set equality and key
transport, reading image keys from that table rather than recomputing them.
Legs run over row tuples: a member is its rows, or (rows, flag) for a
signed matrix, each map is its unchecked body, read from ``bijections``
when the pass starts, and a witness becomes a ``TriMatrix`` only when a
leg fails.  The identities at one size share one pass, which builds each
family's refinement keys, which the legs slice, and each chain image once.

Only the records this module defines values with come in at import time,
from ``records``: ``matrices`` and ``bijections`` load on first use, in
the walk's builder, the membership and size checks, and the verify pass,
so a ``count`` run, which needs neither, loads neither.
"""

from collections import Counter
from enum import Enum
from functools import cache, lru_cache
from operator import attrgetter

from .records import Parity, _cells, _is_int, _Record

# --- family tags -------------------------------------------------------------


class FamilyTag(Enum):
    FISHBURN = "fishburn"
    SELF_DUAL = "self_dual"
    RM = "rm"
    SM = "sm"
    B = "b"


# the conditions of each family, by their names in ``matrices``
_VIOLATIONS = {
    FamilyTag.FISHBURN: ("fishburn_violation",),
    FamilyTag.SELF_DUAL: ("selfdual_violation", "fishburn_violation"),
    FamilyTag.RM: ("row_fishburn_violation",),
    FamilyTag.SM: ("sm_violation",),
    FamilyTag.B: ("b_violation",),
}


def family_violation(family, m):
    """None when ``m`` belongs to the family, else the first failed condition."""
    if not isinstance(family, FamilyTag):
        raise ValueError(f"unknown family {family!r}")
    from . import matrices

    for name in _VIOLATIONS[family]:
        violation = getattr(matrices, name)(m)
        if violation is not None:
            return violation
    return None


def family_member(family, m):
    return family_violation(family, m) is None


def family_size(family, m):
    """The family's size notion: entry sum, except the NW plus diagonal sum
    for the self-dual family."""
    if not isinstance(family, FamilyTag):
        raise ValueError(f"unknown family {family!r}")
    if family is FamilyTag.SELF_DUAL:
        from .matrices import reduced_size

        return reduced_size(m)
    return m.size()


# --- generators --------------------------------------------------------------


def _lines(cells, need_rows, need_cols, need_pairs=()):
    """The lines over ``cells`` that must get mass, one bit each: each row
    in need_rows, each column in need_cols, and for each (r, c) in
    need_pairs the pair line made of row r and column c together.  A pair
    whose row or column needs mass by itself is met with it and is not
    kept, and each row and column lies in at most one pair.

    Returns (lines, plan): lines is the bitmask of every line, and plan
    holds per cell the bitmask of the lines through it and of the lines
    whose last cell it is.  The diagonal cell of a pair line has it on both
    sides and holds its bit once.  A line that holds no cell can get no
    mass, so a plan with one has no member.
    """
    row_line = {r: 1 << x for x, r in enumerate(set(need_rows))}
    col_line = {c: 1 << x for x, c in enumerate(set(need_cols), start=len(row_line))}
    bit = 1 << (len(row_line) + len(col_line))
    for r, c in need_pairs:
        if r not in row_line and c not in col_line:
            row_line[r] = col_line[c] = bit
            bit <<= 1
    through = [row_line.get(i, 0) | col_line.get(j, 0) for i, j in cells]
    # a line ends at the last cell it goes through
    later = 0
    ending = []
    for mask in reversed(through):
        ending.append(mask & ~later)
        later |= mask
    return bit - 1, list(zip(through, reversed(ending)))


def _moves(left, open_lines, through, ending):
    """The values a cell may take from the state (mass left, bitmask of
    lines still open), each with the state it leads to, by ascending
    value: the one membership rule, which both the walk and the count read.

    A line still open past its last cell never closes, so a cell takes 0
    only where no open line ends.  A positive value closes the lines
    through the cell, and must leave at least half the lines still open
    coverable, since one unit closes at most two lines.  The tuples of a
    plan are the paths from (total, lines) to (0, 0).
    """
    moves = [] if open_lines & ending else [(0, (left, open_lines))]
    closed = open_lines & ~through
    moves += [(v, (left - v, closed))
              for v in range(1, left - (closed.bit_count() + 1) // 2 + 1)]
    return moves


def _live(total, lines, plan):
    """Per cell, the states reachable there from (total, lines) that can
    still reach (0, 0) past the last cell, each mapped to those of its
    ``_moves`` that lead to such a state: reachability in one forward pass,
    completion in one backward pass."""
    steps = []
    reached = {(total, lines)}
    for through, ending in plan:
        step = {state: _moves(*state, through, ending) for state in reached}
        steps.append(step)
        reached = {state for moves in step.values() for _, state in moves}
    alive = {(0, 0)}
    for step in reversed(steps):
        for state, moves in list(step.items()):
            moves = [move for move in moves if move[1] in alive]
            if moves:
                step[state] = moves
            else:
                del step[state]
        alive = step
    return steps


def _fill_assignments(total, lines, plan):
    """Yield row-major-ascending value tuples over the cells of ``plan``
    summing to ``total`` that put mass on every line of ``_lines``.

    A depth-first walk over ``_live``: each cell takes its live values in
    ascending order, and as every live state completes, every branch the
    walk enters yields at least one tuple.
    """
    steps = _live(total, lines, plan)
    values = [0] * len(plan)
    # per cell entered, the live moves it has still to take
    untried = [iter(steps[0].get((total, lines), ()))]
    while untried:
        t = len(untried) - 1
        for values[t], state in untried[t]:
            if t + 1 == len(plan):
                yield tuple(values)
            else:
                untried.append(iter(steps[t + 1][state]))
                break
        else:
            untried.pop()


def _builder(d, cells, mirrored):
    """The map from a value tuple over ``cells`` to the dimension-d matrix
    holding those values there and zeros elsewhere, with the NW cells
    mirrored into SE when ``mirrored``.  Its layout holds, per cell, the
    position of its value after a padding 0 (``matrices._gather``'s
    convention), mirrored by the body of ``expand``; a member is then one
    getter per row over its values."""
    from .matrices import TriMatrix, _expand_rows, _getters, _place

    position = {cell: t for t, cell in enumerate(cells, start=1)}
    layout = tuple(tuple(position.get((i, j), 0) for j in range(1, d + 1))
                   for i in range(1, d + 1))
    getters = _getters(_expand_rows(layout) if mirrored else layout)
    trusted = TriMatrix._trusted

    def build(values):
        return trusted(_place(getters, (0, *values)))

    return build


def _check_size(n):
    # a bool or a float such as 2.0 is no size, even where it compares
    # equal to one
    if not _is_int(n) or n < 1:
        raise ValueError(f"n must be an integer of at least 1, not {n!r}")


def _plan(family, n):
    """One (d, free cells in row-major order, their ``_lines``) per
    dimension, ascending: the members at d are the value tuples of size n
    over those cells that put mass on every line.  Every line holds a
    cell: row i holds (i, i) and column j holds (1, j).  ``sm`` and
    ``self_dual`` take the zero-SE half: columns 1..h nonzero, and row i or
    column d + 1 - i nonzero for each i up to h."""
    if not isinstance(family, FamilyTag):
        raise ValueError(f"unknown family {family!r}")
    _check_size(n)
    if family is FamilyTag.SM or family is FamilyTag.SELF_DUAL:
        sm = family is FamilyTag.SM
        for d in range(1, 2 * n + 2, 2) if sm else range(1, 2 * n + 1):
            h = (d - 1) // 2 if sm else (d + 1) // 2
            cells = _cells(d)["half"]
            pairs = [(i, d + 1 - i) for i in range(1, h + 1)]
            yield d, cells, _lines(cells, (), range(1, h + 1), pairs)
        return
    # rows nonzero from the first, or for b from the second, which lets b
    # reach dimension n + 1; fishburn also needs every column nonzero
    first = 2 if family is FamilyTag.B else 1
    for d in range(1, n + first):
        cells = _cells(d)["upper"]
        rows = range(first, d + 1)
        yield d, cells, _lines(cells, rows, rows if family is FamilyTag.FISHBURN else ())


def _walk(family, n):
    """The members ``enumerate_family`` lists, one at a time.  A
    ``self_dual`` member is built mirrored from its half, which fills only
    SE cells whose mirrors sit in earlier rows, so it keeps row-major
    order."""
    mirrored = family is FamilyTag.SELF_DUAL
    for d, cells, lines in _plan(family, n):
        yield from map(_builder(d, cells, mirrored), _fill_assignments(n, *lines))


# typed, so that a call with n = True is no hit on n = 1 and reaches the
# size check
@lru_cache(maxsize=None, typed=True)
def enumerate_family(family, n):
    """Every member of the family at size n (reduced size for SELF_DUAL),
    each exactly once, ascending dimension then ascending row-major
    lexicographic order."""
    return tuple(_walk(family, n))


# --- refined counts ----------------------------------------------------------

_PARITY_ORDER = {Parity.EVEN: 0, Parity.ODD: 1, Parity.ANY: 2}


# each family's refinement key (k, p, parity): the cell sets of ``_cells``
# that k and p sum, each the field of ``stats`` named after it, and whether
# parity is the dimension's or ``Parity.ANY``
_KEYS = {
    FamilyTag.FISHBURN: ("first_row", "diag", True),
    FamilyTag.SELF_DUAL: ("first_row", "diag", True),
    FamilyTag.RM: ("last_col", "first_row", False),
    FamilyTag.B: ("last_col", "first_row", False),
    FamilyTag.SM: ("first_row", "center_col", False),
}


def _key_of(family):
    """The family's refinement key as a function of a member's ``stats``."""
    if not isinstance(family, FamilyTag):
        raise ValueError(f"unknown family {family!r}")
    k, p, by_parity = _KEYS[family]
    get = attrgetter(f"{k}_sum", f"{p}_sum")
    return lambda st: (*get(st), st.dim_parity if by_parity else Parity.ANY)


def refinement_key(family, m):
    """(k, p, parity) key of one member, its family's projection of ``stats``."""
    from .matrices import stats

    return _key_of(family)(stats(m))


class CountTable(_Record):
    """Refined counts for one family at one size."""

    __slots__ = ("family", "n", "cells", "total")

    def sorted_cells(self):
        return sorted(self.cells.items(),
                      key=lambda kv: (kv[0][0], kv[0][1], _PARITY_ORDER[kv[0][2]]))

    # every field is an int or a lowercase word, which csv.writer never
    # quotes, so the rows are joined here and ``csv`` is never loaded
    def to_csv(self):
        rows = [f"{self.family.value},{self.n},{k},{p},{parity.value},{count}\n"
                for (k, p, parity), count in self.sorted_cells()]
        return "family,n,k,p,parity,count\n" + "".join(rows)

    # imported here, so a run that prints no JSON never loads it
    def to_json(self):
        import json

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


def _tally(total, lines, plan, k_at, p_at):
    """{(k, p): count} over the value tuples ``_fill_assignments(total,
    lines, plan)`` yields, k and p summing a tuple at the positions in k_at
    and p_at, found without listing the tuples.

    A forward dynamic program over the cells in row-major order and the
    states of ``_moves``: each state reached maps each pair of partial
    (k, p) sums to its number of prefixes.  The tuples are the prefixes
    reaching (0, 0).
    """
    # a pair of sums is held as k * (total + 1) + p, each sum being at most total
    base = total + 1
    states = {(total, lines): {0: 1}}
    for t, (through, ending) in enumerate(plan):
        step = base * (t in k_at) + (t in p_at)
        following = {}
        for state, table in states.items():
            for v, after in _moves(*state, through, ending):
                shift = v * step
                target = following.get(after)
                # the first table to reach a state is copied whole
                if target is None:
                    following[after] = (table.copy() if not shift else
                                        {key + shift: count for key, count in table.items()})
                    continue
                for key, count in table.items():
                    key += shift
                    target[key] = target.get(key, 0) + count
        states = following
    return {divmod(key, base): count for key, count in states.get((0, 0), {}).items()}


def count_refined(family, n):
    """The refined count table: the number of members per
    ``refinement_key``, tallied dimension by dimension by ``_tally`` over the
    lines the walk fills, so no member is listed or built.  Every key cell
    of a ``self_dual`` or ``sm`` member lies in its walked half."""
    cells = Counter()
    for d, free, lines in _plan(family, n):
        k_set, p_set, by_parity = _KEYS[family]
        parity = (Parity.ODD if d % 2 else Parity.EVEN) if by_parity else Parity.ANY
        position = {cell: t for t, cell in enumerate(free)}
        table = _tally(n, *lines, {position[cell] for cell in _cells(d)[k_set]},
                       {position[cell] for cell in _cells(d)[p_set]})
        cells.update({(k, p, parity): count for (k, p), count in table.items()})
    return CountTable(family=family, n=n, cells=dict(cells), total=sum(cells.values()))


# --- identity checker ---------------------------------------------------------

IDENTITIES = ("eq1", "eq2", "eq3", "eq4", "eq8")


class IdentityReport(_Record):
    __slots__ = ("identity", "n", "passed", "detail", "counterexample")
    _defaults = {"counterexample": None}


class _Leg(_Record):
    """One transport leg over row tuples: ``apply`` must send the
    ``sources`` (member, key) pairs one-to-one onto the ``targets`` table
    (target -> key), each image carrying its source's key; ``inverse``, when
    given, must send every image back to its source.  A member is its rows,
    or the pair (rows, flag) of a signed matrix."""

    __slots__ = ("name", "sources", "apply", "targets", "inverse")
    _defaults = {"inverse": None}


def _matrix(member):
    # the witness of a member, a signed one being reported by its matrix
    from .matrices import TriMatrix

    return TriMatrix._trusted(member[0] if isinstance(member[0][0], tuple) else member)


_MISSING = object()


def _check_leg(leg):
    """None when the leg holds, else (detail, witness), the witness built as
    a ``TriMatrix`` only here, on failure."""
    images = {}
    apply, targets = leg.apply, leg.targets
    for source, key in leg.sources:
        image = apply(source)
        target_key = targets.get(image, _MISSING)
        # one insertion per source: a shared image leaves the size as it was
        size = len(images)
        images[image] = source
        if len(images) == size:
            problem = "two members share an image"
        elif target_key is _MISSING:
            problem = "image escapes the target set"
        elif target_key != key:
            problem = "statistics not transported"
        else:
            continue
        return f"{problem} under {leg.name}", _matrix(source)
    if len(images) != len(targets):
        return f"image set misses targets under {leg.name}", None
    if leg.inverse is not None:
        for image, source in images.items():
            if leg.inverse(image) != source:
                return f"inverse map does not undo {leg.name}", _matrix(image)
    return None


def _spec(identity, n, keyed, chain):
    """(count tables that must agree, transport legs, passing detail) for
    one identity at size n, reading each family's members with their
    refinement keys from ``keyed``.  eq1, eq2 and eq3 map slices of the
    self-dual family through the chain into rm x {1}, rm x {0} and
    rm x {0, 1}; eq4 embeds rm x {0, 1} into b; eq8 sends the even half of
    the self-dual family into the zero-center slice of sm and that slice
    on into rm."""
    from .bijections import _beta, _embed, _embed_even, _project

    if identity == "eq8":
        selfdual = keyed(FamilyTag.SELF_DUAL)
        even = [(m, k) for m, (k, _, parity) in selfdual if parity is Parity.EVEN]
        odd = [(m, k) for m, (k, _, parity) in selfdual if parity is Parity.ODD]
        rm_k = {r: k for r, (k, _, _) in keyed(FamilyTag.RM)}
        zero_center = {s: k for s, (k, p, _) in keyed(FamilyTag.SM) if p == 0}
        tables = [Counter(k for _, k in even), Counter(k for _, k in odd),
                  Counter(rm_k.values())]
        legs = [_Leg("the parity embedding", even, _embed_even, zero_center),
                _Leg("column relocation on the zero-center slice",
                     list(zero_center.items()), lambda s: _project(_beta(s))[0], rm_k)]
        return tables, legs, (f"even {len(even)} = odd {len(odd)} = {len(rm_k)} "
                              f"over {len(tables[2])} first-row classes")
    rm = [r.rows for r in enumerate_family(FamilyTag.RM, n)]
    if identity == "eq1":
        leg = _Leg("the map chain on the zero-sum slice",
                   [(m, k) for m, (k, p, _) in keyed(FamilyTag.SELF_DUAL) if p == 0],
                   chain,
                   {(r, 1): k for r, (k, _, _) in keyed(FamilyTag.RM)})
        classes = "first-row classes"
    elif identity == "eq2":
        leg = _Leg("the map chain on the positive-sum slice",
                   [(m, (k, p)) for m, (k, p, _) in keyed(FamilyTag.SELF_DUAL) if p >= 1],
                   chain,
                   {(r, 0): (k, p) for r, (k, p, _) in keyed(FamilyTag.RM)})
        classes = "refined classes"
    elif identity == "eq3":
        leg = _Leg("the full map chain",
                   [(m.rows, None) for m in enumerate_family(FamilyTag.SELF_DUAL, n)],
                   chain,
                   dict.fromkeys((r, flag) for r in rm for flag in (0, 1)))
    else:
        leg = _Leg("the embedding",
                   [((r, flag), None) for r in rm for flag in (0, 1)],
                   lambda s: _embed(*s),
                   dict.fromkeys(b.rows for b in enumerate_family(FamilyTag.B, n)),
                   inverse=_project)
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
    _check_size(n)
    from .bijections import _chain
    from .matrices import stats

    def keyed(family):
        key = _key_of(family)
        return [(m.rows, key(stats(m))) for m in enumerate_family(family, n)]

    # shared by the pass, each built on first use and dropped with the pass:
    # each family's rows with their refinement keys, and each self-dual
    # member's chain image, which eq1, eq2 and eq3 all read
    pieces = (cache(keyed), cache(_chain))
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
