"""Size-preserving maps between the matrix families.

The two core maps are ``alpha``, which folds a self-dual matrix with all
rows and columns nonzero into an odd-dimension matrix with zero SE cells,
and ``beta``, which places each nonzero column right of center just after
its mirror column on the left, then keeps the top-left block (the input's
top-left (r + 1) x (r + 1) block, dimension 2r + 1, with those columns
inserted) and dualizes it.
Around them sit the embedding and projection maps that account for the
factor 2 between the row-nonzero family and the rows-after-the-first
family, plus the even-dimension embedding used by the parity-refined count.

Every map works on immutable row tuples: ``alpha`` and ``alpha_inv`` share
one center swap, and ``beta`` and ``beta_inv`` lay lines out by one
placement rule, ``_relocation``, which ``beta_inv`` reads back from the
dual in one scan.

Each map has one unchecked body on row tuples, which takes the rows of a
member and returns rows, or (rows, flag) for a signed matrix: ``_fold``
(``alpha``), ``_unfold`` (``alpha_inv``), ``_relocate`` of the
``_moved`` columns (``beta``), ``_project``, ``_embed``
(``embed_rm_in_b``) and ``_pad_center`` (``em_to_sm``).  The public map
checks its input once, at entry, and wraps what the body returns in
``TriMatrix._trusted``, which skips the per-cell check of the public
constructor.  ``alpha_inv`` checks only that its image has every row
nonzero, which is what rejects the 1 x 1 zero matrix.

The bodies that only move cells and insert zeros are applied through
``matrices._gather``: the cells a body moves depend only on the dimension
and on which columns ``beta`` moves, so each shape's layout is derived
once, by running the body, and then read by one getter per row.
``_chain`` (the whole chain), ``_beta`` and ``_embed_even`` are compiled
forms of the bodies.  The identity checker calls them, ``_project`` and
``_embed`` on the rows of members it generated, so it runs no entry
check and hashes plain tuples; it reads them from this module when a
pass starts, so a body replaced here is the one the pass runs.
``selfdual_to_signed_rm``, ``beta`` and ``em_to_sm`` apply the same
compiled forms after their entry checks, ``alpha`` the layout of
``_fold`` and ``alpha_inv`` that of ``_unfold``: a stream of 2 000
single requests builds about 190 layouts and reads each about 17 times.
A trace takes that image as its last snapshot and runs the bodies only
for the intermediate rows.  ``beta_inv`` alone always runs directly:
its shapes seldom repeat within a stream, so a layout for it costs
more to build than its reads save.

``alpha``, ``alpha_inv``, ``beta``, ``beta_inv`` and the chain
``selfdual_to_signed_rm`` can optionally record a trace: a sequence of
labeled snapshots, one per algorithm step, with the input first and the
output last.  Traces are value copies, never views, and are built only
when requested.
"""

from operator import itemgetter

from .matrices import (
    DegenerateMatrix,
    MatrixConditionError,
    NotBMember,
    NotExpandable,
    NotFishburn,
    NotRowFishburn,
    NotSelfDual,
    NotSMMember,
    OddDimension,
    TriMatrix,
    _cell_getters,
    _dual_rows,
    _expand_rows,
    _flat,
    _gather,
    _is_int,
    _place,
    _Record,
    _reduce,
    b_violation,
    expandable_violation,
    fishburn_violation,
    require,
    row_fishburn_violation,
    selfdual_violation,
    sm_violation,
)

# --- trace plumbing ---------------------------------------------------------


class BijectionTrace(_Record):
    """Labeled snapshots of one map application, input first, output last."""

    __slots__ = ("steps",)


def _require_bit(value, name):
    # the ints 0 and 1 only, as ``TriMatrix`` takes no bool or float cell
    if not _is_int(value) or value not in (0, 1):
        raise ValueError(f"{name} must be 0 or 1")


class SignedRowFishburn(_Record):
    """A matrix with every row nonzero plus one bit.

    The bit records whether the preimage in the rows-after-the-first family
    had a zero first row; it is the factor 2 in the doubling identities.
    """

    __slots__ = ("matrix", "flag")

    def __post_init__(self):
        _require_bit(self.flag, "flag")
        if not isinstance(self.matrix, TriMatrix):
            raise ValueError(f"matrix must be a TriMatrix, not {self.matrix!r}")
        require(row_fishburn_violation, NotRowFishburn, self.matrix)


def _signed(pair):
    # the public value of a body's (rows, flag)
    rows, flag = pair
    return SignedRowFishburn._trusted(TriMatrix._trusted(rows), flag)


def _insert_zero_line(rows, k):
    # rows with a zero row and a zero column at 0-based index k
    rows = tuple(row[:k] + (0,) + row[k:] for row in rows)
    return rows[:k] + ((0,) * (len(rows) + 1),) + rows[k:]


def _drop_line(rows, k):
    # rows without the row and column at 0-based index k
    return tuple(row[:k] + row[k + 1:] for row in rows[:k] + rows[k + 1:])


# --- center fold and its inverse --------------------------------------------


def alpha(m, want_trace=False):
    """Fold a self-dual matrix with nonzero rows and columns into the
    odd-dimension zero-SE family.

    The SE half is zeroed first.  An even dimension 2k gains a zero column
    and a zero row at position k + 1.  Then, writing m' for the (odd)
    working dimension and k for (m' - 1) // 2, cells (i, k + 1) and
    (i, m' + 1 - i) swap for i = 1..k, which moves the diagonal-cell values
    into the center column.  The first-row sum is unchanged and the
    diagonal-cell sum of the input becomes the center-column sum of the
    output.
    """
    require(selfdual_violation, NotSelfDual, m)
    require(fishburn_violation, NotFishburn, m)
    out = TriMatrix._trusted(_place(_gather(_fold, m.dim), _flat(m.rows)))
    if not want_trace:
        return out
    r = _reduce(m.rows)
    steps = [("A(0)", m), ("A(1)", TriMatrix._trusted(r))]
    if m.dim % 2 == 0:
        steps.append(("A(2)", TriMatrix._trusted(_insert_zero_line(r, m.dim // 2))))
    steps.append(("S", out))
    return out, BijectionTrace(tuple(steps))


def _fold(rows):
    # ``alpha`` on the rows of a self-dual matrix with nonzero rows and
    # columns; at an even dimension the reduced rows are padded as
    # ``em_to_sm`` pads them
    return _swap_center(_pad_center(rows) if len(rows) % 2 == 0 else _reduce(rows))


def alpha_inv(s, want_trace=False):
    """Invert ``alpha``: swap the center column back onto the diagonal
    cells, drop the center column and row when both ended up zero (the even
    case leaves them so), and mirror the NW half back into SE."""
    require(sm_violation, NotSMMember, s)
    rows = s.rows
    d = len(rows)
    k = d // 2
    if not want_trace:
        # the swap leaves column k + 1 and row k + 1 zero exactly when row
        # k + 1 and the diagonal cells of rows 1..k are
        flat = _flat(rows)
        drop = k >= 1 and not any(rows[k]) and not any(_cell_getters(d)["diag"](flat))
        out = _place(_gather(_unfold, d, drop), flat)
        # the image is self-dual, so it has every row and column nonzero,
        # which is what expanding needs, exactly when every row is nonzero;
        # an image with a zero row takes the direct path, whose check names
        # the first zero line
        if all(map(any, out)):
            return TriMatrix._trusted(out)
    g = TriMatrix._trusted(_swap_center(rows))
    steps = [("A(0)", s), ("A(1)", g)]
    if k >= 1 and not any(map(itemgetter(k), g.rows)) and not any(g.rows[k]):
        g = TriMatrix._trusted(_drop_line(g.rows, k))
        steps.append(("A(2)", g))
    # the swap and the drop keep SE zero, so only expandability is left to
    # check: the 1 x 1 zero matrix is an sm member that has no preimage
    require(expandable_violation, NotExpandable, g)
    out = TriMatrix._trusted(_expand_rows(g.rows))
    if want_trace:
        steps.append(("M", out))
        return out, BijectionTrace(tuple(steps))
    return out


def _unfold(rows, drop):
    # ``alpha_inv`` on the rows of an sm member without the expandability
    # check, dropping the center line when ``drop``
    g = _swap_center(rows)
    return _expand_rows(_drop_line(g, len(rows) // 2) if drop else g)


def _swap_center(rows):
    # at odd dimension 2k + 1, row i's center cell (i, k + 1) and diagonal
    # cell (i, 2k + 2 - i) trade places for i = 1..k; its own inverse
    k = len(rows) // 2
    swapped = []
    for i, row in enumerate(rows[:k]):
        row = list(row)
        row[k], row[-1 - i] = row[-1 - i], row[k]
        swapped.append(tuple(row))
    return tuple(swapped) + rows[k:]


# --- column relocation and its inverse ---------------------------------------


def beta(a, want_trace=False):
    """Relocate the nonzero columns right of center, then truncate and
    dualize, landing in the family whose rows past the first are nonzero.

    At dimension 2r + 1, each nonzero column r + 1 + i moves, largest
    offset first, to just after its mirror column r + 1 - i, with a zero row
    at the same index; a zero column and row go in just before the emptied
    column (dimension grows by 2 per column).  A move leaves every other
    column right of center as it was, so the moved columns are exactly the
    input's nonzero ones.  With s of them moved, the kept block is the
    top-left (r + 1 + s) x (r + 1 + s): the input's top-left
    (r + 1) x (r + 1) block with the moved columns inserted, all rows below
    it being zero.  The result is the dual of that block.  The last-column
    sum of the output equals the first-row sum of the input, and the
    first-row sum of the output equals the center-column sum of the input.
    """
    require(sm_violation, NotSMMember, a)
    if a.size() == 0:
        raise DegenerateMatrix("the all-zero matrix has no image")
    out = TriMatrix._trusted(_beta(a.rows))
    if not want_trace:
        return out
    moved = _moved(a.rows)
    block = _block(a.rows, moved)
    steps = [("A(0)", a)]
    steps += ((f"A({t})", x) for t, x in enumerate(_relocation_steps(a.rows, moved), 1))
    if len(block) > 1:
        steps.append(("B", TriMatrix._trusted(block)))
    steps.append(("A'", out))
    return out, BijectionTrace(tuple(steps))


def _relocation(d, moved):
    # the source (row, column) of each line, 0-based, after the columns at
    # offsets ``moved`` right of center of a dimension-d input are moved;
    # None marks a zero row or column
    r = (d - 1) // 2
    lines = []
    for p in range(r + 1):
        lines.append((p, p))
        if r - p in moved:
            lines.append((None, 2 * r - p))
    for p in range(r + 1, d):
        lines += [(None, None), (p, None)] if p - r in moved else [(p, p)]
    return lines


def _lay_out(rows, lines):
    # a zero appended to each source row is read through index -1
    cols = [-1 if c is None else c for _, c in lines]
    zero = (0,) * len(lines)
    return tuple(zero if r is None else tuple(map((rows[r] + (0,)).__getitem__, cols))
                 for r, _ in lines)


def _right_columns(rows):
    # the columns right of center, innermost first
    return tuple(zip(*rows))[len(rows) // 2 + 1:]


def _nonzero_offsets(columns):
    # the offsets of the nonzero ones of ``_right_columns``, largest first
    return tuple(i for i in range(len(columns), 0, -1) if any(columns[i - 1]))


def _moved(rows):
    # the offsets right of center of the nonzero columns, largest first
    return _nonzero_offsets(_right_columns(rows))


def _block(rows, moved):
    # the kept top-left block once the columns at offsets ``moved`` are moved
    r = (len(rows) - 1) // 2
    return _lay_out(rows, _relocation(len(rows), moved)[:r + 1 + len(moved)])


def _relocate(rows, moved):
    # ``beta`` on rows whose nonzero columns right of center lie at the
    # offsets ``moved``
    return _dual_rows(_block(rows, moved))


def _beta(rows):
    # ``beta`` on the rows of an sm member of positive size, compiled
    return _place(_gather(_relocate, len(rows), _moved(rows)), _flat(rows))


def _relocation_steps(rows, moved):
    # the steps A(1)..A(s) of ``beta`` on rows: the first t of its s moves
    return [TriMatrix._trusted(_lay_out(rows, _relocation(len(rows), moved[:t])))
            for t in range(1, len(moved) + 1)]


def beta_inv(a_prime, want_trace=False):
    """Invert ``beta``: dualize, read the relocated columns back, and lay
    the preimage out by the same placement rule.

    In the dual B the last line is the center.  Scanning the lines left of
    it outward, with offset i starting at 1, a line with a zero row right
    after a kept line is a relocated column and goes back to offset +i, right
    of center; every other line is kept as the next line left of center, and
    i goes up by 1.  A kept line with a zero row always follows the column
    it pairs with, as the preimage has row or column nonzero at each offset.
    The steps are those of ``beta`` on the preimage, in reverse.
    """
    require(b_violation, NotBMember, a_prime)
    if a_prime.size() == 0:
        raise DegenerateMatrix("the all-zero matrix has no preimage")
    rows = _dual_rows(a_prime.rows)
    # B's first row is the reversed last column of a b member of positive
    # size, which is nonzero, so the scan keeps the first line
    kept = [len(rows) - 1]
    relocated = {}
    for q in range(len(rows) - 2, -1, -1):
        if kept[-1] == q + 1 and not any(rows[q]):
            relocated[len(kept)] = q
        else:
            kept.append(q)
    r = len(kept) - 1
    lines = [(q, q) for q in reversed(kept)]
    lines += ((None, relocated.get(i)) for i in range(1, r + 1))
    out = TriMatrix._trusted(_lay_out(rows, lines))
    if want_trace:
        moved = sorted(relocated, reverse=True)
        snapshots = _relocation_steps(out.rows, moved)[::-1] + [out]
        steps = [("A(0)", a_prime)]
        steps += ((f"A({t})", x) for t, x in enumerate(snapshots, 1))
        return out, BijectionTrace(tuple(steps))
    return out


# --- doubling maps -----------------------------------------------------------


def embed_rm_in_b(a, add_zero_first):
    """Send a matrix with nonzero rows into the rows-after-the-first family,
    either unchanged (flag 0) or with a zero first row and column prepended
    (flag 1).  The pair map is injective, which gives the factor 2."""
    _require_bit(add_zero_first, "add_zero_first")
    require(row_fishburn_violation, NotRowFishburn, a)
    return TriMatrix._trusted(_embed(a.rows, add_zero_first))


def _embed(rows, flag):
    # ``embed_rm_in_b`` on the rows of a matrix with nonzero rows
    return _insert_zero_line(rows, 0) if flag else rows


def project_b_to_signed_rm(m):
    """Invert ``embed_rm_in_b``: a zero first row is stripped (flag 1), a
    nonzero first row already makes every row nonzero (flag 0)."""
    require(b_violation, NotBMember, m)
    if m.size() == 0:
        raise DegenerateMatrix("the all-zero matrix cannot be projected")
    return _signed(_project(m.rows))


def _project(rows):
    # ``project_b_to_signed_rm`` on the rows of a b member of positive
    # size, as (rows, flag)
    if not any(rows[0]):
        # rows 2.. are nonzero and hold 0 in column 1, so stripping that
        # row and column leaves every row nonzero
        return tuple(row[1:] for row in rows[1:]), 1
    return rows, 0


def selfdual_to_signed_rm(m, want_trace=False):
    """The full chain from a self-dual matrix with nonzero rows and columns
    to a row-nonzero matrix plus one bit: fold to the odd-dimension zero-SE
    family, relocate columns, project the first row away when it is zero.
    Only ``alpha``'s entry check runs: the fold's image is an ``sm``
    member of positive size, and the image of that under ``beta`` a ``b``
    member."""
    require(selfdual_violation, NotSelfDual, m)
    require(fishburn_violation, NotFishburn, m)
    signed = _signed(_chain(m.rows))
    if not want_trace:
        return signed
    s = TriMatrix._trusted(_fold(m.rows))
    b_rows = _relocate(s.rows, _moved(s.rows))
    steps = (("A(0)", m), ("alpha", s), ("beta", TriMatrix._trusted(b_rows)),
             ("R", signed.matrix))
    return signed, BijectionTrace(steps)


def _chain(rows):
    # ``selfdual_to_signed_rm`` on the rows of a self-dual matrix with
    # nonzero rows and columns, as (rows, flag), compiled: the moved
    # columns are read from the cells the fold puts right of center, and
    # the fold and relocation run as one layout
    d = len(rows)
    flat = _flat(rows)
    return _project(_place(_gather(_fold_relocate, d, _fold_moved(d, flat)), flat))


def _fold_moved(d, flat):
    # ``_moved(_fold(rows))`` for the dimension-d rows of ``flat``
    return _nonzero_offsets(_place(_gather(_fold_columns, d), flat))


def _fold_columns(rows):
    return _right_columns(_fold(rows))


def _fold_relocate(rows, moved):
    return _relocate(_fold(rows), moved)


# --- parity embedding --------------------------------------------------------


def em_to_sm(m):
    """Send an even-dimension self-dual matrix with nonzero rows and columns
    into the odd-dimension zero-SE family with zero center column: zero the
    SE half, then insert a zero column and zero row at position m + 1 where
    2m is the input dimension.  First-row sum is preserved and the
    center-column sum of the image is 0."""
    require(selfdual_violation, NotSelfDual, m)
    if m.dim % 2:
        raise OddDimension(f"dimension {m.dim} is odd, expected even")
    require(fishburn_violation, NotFishburn, m)
    return TriMatrix._trusted(_embed_even(m.rows))


def _pad_center(rows):
    # ``em_to_sm`` on the rows of an even-dimension self-dual matrix with
    # nonzero rows and columns
    return _insert_zero_line(_reduce(rows), len(rows) // 2)


def _embed_even(rows):
    # ``_pad_center``, compiled
    return _place(_gather(_pad_center, len(rows)), _flat(rows))


def sm_to_em(s):
    """Invert ``em_to_sm``: delete the (necessarily zero) center column and
    row, then mirror the NW half back into SE.  What is left is zero on
    SE and expandable, since the input is an ``sm`` member."""
    require(sm_violation, NotSMMember, s)
    k = s.dim // 2
    if k == 0:
        raise MatrixConditionError("dimension 1 input has no even-dimension preimage")
    if any(map(itemgetter(k), s.rows)) or any(s.rows[k]):
        raise MatrixConditionError(
            f"column {k + 1} or row {k + 1} nonzero, not in the embedding image")
    return TriMatrix._trusted(_expand_rows(_drop_line(s.rows, k)))
