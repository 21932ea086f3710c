"""Brute-force reference implementations used only by the tests.

Everything here trades speed for obviousness.  Matrices come from raw
integer compositions over cell lists and posets from orienting every
element pair all three ways, so none of the pruning or ordering logic in
the package is shared with the code that checks it.
"""

import itertools

from fishburn import (
    FamilyTag,
    Poset,
    TriMatrix,
    family_member,
    reduced_size,
)

# --- integer compositions ------------------------------------------------------


def compositions(total, parts):
    """Every tuple of ``parts`` nonnegative integers summing to ``total``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


# --- matrix scans ---------------------------------------------------------------


def upper_matrices(dim, total):
    """Every upper-triangular dim x dim matrix with entry sum ``total``."""
    cells = [(i, j) for i in range(dim) for j in range(i, dim)]
    for values in compositions(total, len(cells)):
        rows = [[0] * dim for _ in range(dim)]
        for (i, j), value in zip(cells, values):
            rows[i][j] = value
        yield TriMatrix(tuple(tuple(row) for row in rows))


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


def downsets_form_chain(p):
    """Interval-order test by the chain characterization, independent of
    the induced-subposet scan in the package."""
    downs = [p.down_set(x) for x in range(1, p.n_elements + 1)]
    return all(a <= b or b <= a for a in downs for b in downs)


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
