"""Finite strict posets, interval-order structure, and the matrix encoding.

An interval order is a poset with no induced pair of disjoint 2-element
chains.  Equivalently its strict down-sets form a chain under inclusion,
and the index of an element's down-set in that chain (its level), together
with the index of its up-set in the dual chain (its up-level), encodes the
poset as an upper-triangular matrix: cell (i, j) counts the elements with
level i and up-level j.  Every row and column of the encoding is nonzero,
and the encoding inverts exactly, which makes matrix enumeration double as
interval-order enumeration up to isomorphism.

Self-duality of a poset (isomorphism with its order reversal) is decided
here by backtracking search, independently of the matrix mirror test, so
the two notions can be compared rather than assumed to agree.
"""

import itertools
from dataclasses import dataclass

from .matrices import (
    NotFishburn,
    NotSelfDual,
    ParseError,
    TriMatrix,
    _is_uint,
    fishburn_violation,
    reduced_size,
    require,
)

# --- exceptions ---------------------------------------------------------------


class NotIntervalOrder(ValueError):
    """The poset contains two disjoint comparable pairs with no relation
    between them, so its down-sets do not form a chain."""


class NotSelfDualMatrix(NotSelfDual):
    """The matrix encoding of the poset is not equal to its mirror."""


# --- core types ----------------------------------------------------------------


@dataclass(frozen=True)
class Poset:
    """Strict partial order on elements 1..n_elements.

    ``relation`` holds the full set of ordered pairs (x, y) with x below y.
    The public constructor (and ``parse_poset``, which goes through it)
    validates irreflexivity and transitivity; antisymmetry follows from
    the two.  The posets the package builds itself, the images of
    ``fishburn_to_poset`` and ``dual_poset``, are built by ``_trusted``,
    which skips that check.
    """

    n_elements: int
    relation: frozenset

    @classmethod
    def _trusted(cls, n_elements, relation):
        """A poset over ``relation`` without validation, for a relation the
        caller built to satisfy every condition ``__post_init__`` checks."""
        p = object.__new__(cls)
        object.__setattr__(p, "n_elements", n_elements)
        object.__setattr__(p, "relation", relation)
        return p

    def __post_init__(self):
        if self.n_elements < 1:
            raise ValueError("a poset needs at least one element")
        for x, y in self.relation:
            if not (1 <= x <= self.n_elements and 1 <= y <= self.n_elements):
                raise ValueError(f"pair ({x}, {y}) outside elements 1..{self.n_elements}")
            if x == y:
                raise ValueError(f"relation is not irreflexive at element {x}")
        for x, y in self.relation:
            for z, w in self.relation:
                if y == z and (x, w) not in self.relation:
                    raise ValueError(
                        f"relation is not transitive: ({x}, {y}) and ({z}, {w}) "
                        f"without ({x}, {w})")

    def less(self, x, y):
        return (x, y) in self.relation

    def down_set(self, x):
        return frozenset(z for z in range(1, self.n_elements + 1)
                         if (z, x) in self.relation)

    def up_set(self, x):
        return frozenset(z for z in range(1, self.n_elements + 1)
                         if (x, z) in self.relation)


@dataclass(frozen=True)
class LevelDecomposition:
    """Magnitude plus per-element chain indices.

    ``level[x]`` and ``up_level[x]`` are dicts keyed by element; levels
    index the increasing chain of distinct down-sets, up-levels the
    decreasing chain of distinct up-sets, both 1-based and of equal length.
    """

    magnitude: int
    level: dict
    up_level: dict


# --- interval-order structure ----------------------------------------------------


def is_interval_order(p):
    """True when no four distinct elements form two comparable pairs with
    all four cross relations absent."""
    rel = p.relation
    pairs = tuple(rel)
    for a, b in pairs:
        for c, d in pairs:
            if len({a, b, c, d}) != 4:
                continue
            if ((a, c) not in rel and (c, a) not in rel
                    and (a, d) not in rel and (d, a) not in rel
                    and (b, c) not in rel and (c, b) not in rel
                    and (b, d) not in rel and (d, b) not in rel):
                return False
    return True


def _chain_of_sets(sets, ascending):
    """Sort distinct sets by size and verify consecutive proper inclusion."""
    distinct = sorted(set(sets), key=lambda s: (len(s), sorted(s)))
    if not ascending:
        distinct.reverse()
    for a, b in zip(distinct, distinct[1:]):
        small, large = (a, b) if ascending else (b, a)
        if not (small < large):
            return None
    return distinct


def _down_up_sets(p):
    """Every element's down-set and up-set, from one pass over the relation."""
    downs = {x: [] for x in range(1, p.n_elements + 1)}
    ups = {x: [] for x in downs}
    for x, y in p.relation:
        downs[y].append(x)
        ups[x].append(y)
    return ({x: frozenset(s) for x, s in downs.items()},
            {x: frozenset(s) for x, s in ups.items()})


def level_decomposition(p):
    """Down-set and up-set chains with per-element indices.  Raises
    NotIntervalOrder when either family of sets fails to form a chain."""
    elements = range(1, p.n_elements + 1)
    downs, ups = _down_up_sets(p)
    down_chain = _chain_of_sets(downs.values(), ascending=True)
    up_chain = _chain_of_sets(ups.values(), ascending=False)
    if down_chain is None or up_chain is None:
        raise NotIntervalOrder("down-sets or up-sets do not form a chain")
    if len(down_chain) != len(up_chain):
        raise NotIntervalOrder("down-set and up-set chains have different lengths")
    down_index = {s: i for i, s in enumerate(down_chain, start=1)}
    up_index = {s: i for i, s in enumerate(up_chain, start=1)}
    return LevelDecomposition(
        magnitude=len(down_chain),
        level={x: down_index[downs[x]] for x in elements},
        up_level={x: up_index[ups[x]] for x in elements},
    )


# --- matrix encoding ---------------------------------------------------------------


def poset_to_fishburn(p):
    """Encode an interval order as the matrix counting elements by
    (level, up-level).  Raises NotIntervalOrder on other posets."""
    ld = level_decomposition(p)
    m = ld.magnitude
    g = [[0] * m for _ in range(m)]
    for x in range(1, p.n_elements + 1):
        g[ld.level[x] - 1][ld.up_level[x] - 1] += 1
    # an element's level never exceeds its up-level, so every count lies on
    # or above the main diagonal
    return TriMatrix._trusted(tuple(map(tuple, g)))


def fishburn_to_poset(m):
    """Decode a matrix with nonzero rows and columns into an interval order.

    Cell (i, j) contributes entry-many elements labeled consecutively in
    row-major cell order, and an element finishing at up-level j precedes
    every element starting at a level above j.  That relation is an order
    as built, irreflexive since ia <= ja and transitive since
    ja < ib <= jb < ic, so the poset skips the constructor's check.
    """
    require(fishburn_violation, NotFishburn, m)
    labels = []
    for i in range(1, m.dim + 1):
        for j in range(i, m.dim + 1):
            labels.extend([(i, j)] * m.entry(i, j))
    relation = frozenset(
        (a + 1, b + 1)
        for a, (_, ja) in enumerate(labels)
        for b, (ib, _) in enumerate(labels)
        if ja < ib)
    return Poset._trusted(len(labels), relation)


# --- duality -------------------------------------------------------------------------


def dual_poset(p):
    """Reverse the order; an involution, and the reversal of a valid order
    is one."""
    return Poset._trusted(p.n_elements, frozenset((y, x) for x, y in p.relation))


def _profile(p):
    downs, ups = _down_up_sets(p)
    return {x: (len(downs[x]), len(ups[x])) for x in downs}


def is_self_dual_poset(p):
    """Decide isomorphism between the poset and its reversal by backtracking
    over element assignments, pruning on (down-set size, up-set size)."""
    n = p.n_elements
    rel = p.relation
    dual_rel = frozenset((y, x) for x, y in rel)
    prof = _profile(p)
    # the reversal swaps each element's profile pair
    dual_prof = {x: (b, a) for x, (a, b) in prof.items()}
    if sorted(prof.values()) != sorted(dual_prof.values()):
        return False
    elements = sorted(range(1, n + 1), key=lambda x: prof[x])
    candidates = {x: [y for y in range(1, n + 1) if dual_prof[y] == prof[x]]
                  for x in elements}

    assigned = {}
    used = set()

    def extend(idx):
        if idx == n:
            return True
        x = elements[idx]
        for y in candidates[x]:
            if y in used:
                continue
            ok = True
            for x2, y2 in assigned.items():
                if ((x, x2) in rel) != ((y, y2) in dual_rel):
                    ok = False
                    break
                if ((x2, x) in rel) != ((y2, y) in dual_rel):
                    ok = False
                    break
            if ok:
                assigned[x] = y
                used.add(y)
                if extend(idx + 1):
                    return True
                del assigned[x]
                used.discard(y)
        return False

    return extend(0)


# --- isomorphism classes ----------------------------------------------------------------


def canonical_form(p):
    """Minimal relation encoding over relabelings, a complete isomorphism
    invariant.

    Any isomorphism preserves the (down-set size, up-set size) profile, so
    it suffices to fix one profile-sorted arrangement and minimize over
    permutations inside equal-profile blocks.
    """
    n = p.n_elements
    if not p.relation:
        return (n, ())
    prof = _profile(p)
    order = sorted(range(1, n + 1), key=lambda x: (prof[x], x))
    blocks = []
    for _, group in itertools.groupby(order, key=lambda x: prof[x]):
        blocks.append(tuple(group))
    best = None
    for perms in itertools.product(*(itertools.permutations(b) for b in blocks)):
        relabel = {}
        position = 1
        for block, perm in zip(blocks, perms):
            for element in perm:
                relabel[element] = position
                position += 1
        encoded = tuple(sorted((relabel[x], relabel[y]) for x, y in p.relation))
        if best is None or encoded < best:
            best = encoded
    return (n, best)


# --- reduced size -------------------------------------------------------------------------


def reduced_size_of_interval_order(p):
    """NW plus diagonal sum of the matrix encoding.  The encoding of a
    self-dual interval order is itself a self-dual matrix; anything else is
    rejected rather than searched for a relabeling."""
    try:
        return reduced_size(poset_to_fishburn(p))
    except NotSelfDual:
        raise NotSelfDualMatrix("the matrix encoding differs from its mirror") from None


# --- text format ----------------------------------------------------------------------------
# Line 1 holds the element count n; each further nonempty line holds one
# pair "x y" meaning x below y.  The reader adds the transitive closure and
# rejects cycles, so cover pairs suffice.


def parse_poset(text):
    lines = text.splitlines()
    if not lines or not lines[0].split():
        raise ParseError("line 1: expected a positive element count")
    head = lines[0].split()
    if len(head) != 1 or not _is_uint(head[0]) or int(head[0]) < 1:
        raise ParseError("line 1: expected a positive element count")
    n = int(head[0])
    relation = set()
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2 or not all(map(_is_uint, parts)):
            raise ParseError(f"line {lineno}: expected a pair of element numbers")
        x, y = int(parts[0]), int(parts[1])
        if not (1 <= x <= n and 1 <= y <= n):
            raise ParseError(f"line {lineno}: pair ({x}, {y}) outside elements 1..{n}")
        if x == y:
            raise ParseError(f"line {lineno}: element {x} cannot be below itself")
        relation.add((x, y))
    changed = True
    while changed:
        changed = False
        for x, y in tuple(relation):
            for z, w in tuple(relation):
                if y == z and (x, w) not in relation:
                    relation.add((x, w))
                    changed = True
    for x, y in sorted(relation):
        if x == y or (y, x) in relation:
            raise ParseError(f"element {x} lies on a cycle")
    return Poset(n, frozenset(relation))


def format_poset(p):
    lines = [str(p.n_elements)]
    lines.extend(f"{x} {y}" for x, y in sorted(p.relation))
    return "\n".join(lines) + "\n"
