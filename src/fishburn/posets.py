"""Finite strict posets, interval-order structure, and the matrix encoding.

An interval order is a poset with no induced pair of disjoint 2-element
chains.  Equivalently its strict down-sets form a chain under inclusion,
which is how ``is_interval_order`` decides it, and the index of an
element's down-set in that chain (its level), together with the index of
its up-set in the dual chain (its up-level), encodes the poset as an
upper-triangular matrix: cell (i, j) counts the elements with level i and
up-level j.  Every row and column of the encoding is nonzero,
and the encoding inverts exactly, which makes matrix enumeration double as
interval-order enumeration up to isomorphism.

Self-duality of a poset (isomorphism with its order reversal) is decided
here independently of the matrix mirror test, so the two notions can be
compared rather than assumed to agree.  An isomorphism onto the reversal
sends a twin class (elements with equal down-set and up-set) of
(down-set size, up-set size, class size) = (a, b, s) onto a class of
(b, a, s).  A class alone in its group has one candidate and is paired
by force, as every class of an interval order is; the forced pairs are
checked once, together, and only the classes of larger groups are
searched, by backtracking.

A poset stores only its per-element down-set and up-set bitmasks (bit
x - 1 stands for element x), and every kernel works on them.  The level
chains sort distinct masks by popcount and test inclusion as
``a & ~b == 0``; the down-sets form a chain exactly when the up-sets do,
so only the down-sets are tested.  Twins are interchangeable, and
``_twin_classes`` holds each class as one mask of its members, which
``is_self_dual_poset`` and ``canonical_form`` both read: a forced pair is
checked as one mask comparison per class, a searched candidate image
class with three, and ``canonical_form`` permutes classes rather than
elements.  The public constructor builds the masks in the pass that
checks the pairs, then checks transitivity as one mask inclusion per
pair, the up-set of y inside that of x for x below y.  ``parse_poset``
checks its pairs itself, closes the relation over the up-set masks of
the elements that have something above them, rejects a cycle and reads
the down-set masks off the closed up-sets.  The decoder
``fishburn_to_poset`` reads the masks off the matrix and builds no
pairs: its row-major labels put the elements above any up-level in one
suffix of the labels, and those below any level in the columns before
it.  ``dual_poset`` passes its input's masks on, swapped.  ``relation``
is built from the up-set masks when it is read.
"""

import itertools

from .matrices import (
    NotFishburn,
    NotSelfDual,
    ParseError,
    TriMatrix,
    _is_int,
    _is_uint,
    _read_uint,
    _Record,
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


class Poset(_Record):
    """Strict partial order on elements 1..n_elements.

    The poset stores ``_down_up``, every element's down-set and up-set as
    two tuples of bitmasks: index x - 1 holds element x's set, in which
    bit y - 1 stands for element y.  ``relation``, the set of pairs (x, y)
    with x below y, is built from the up-set masks on each read.  The
    public constructor reads a relation rather than the fields: it checks
    that the relation is irreflexive and transitive (antisymmetry follows
    from the two), then stores the masks through ``_Record.__init__``.
    ``parse_poset``, which checks its text itself, ``fishburn_to_poset``
    and ``dual_poset`` build their posets with ``_trusted(n_elements,
    down_up)``, which checks nothing.  Equality and hash compare the
    masks, which fix the relation; repr, copy and pickle write the
    relation out.
    """

    __slots__ = ("n_elements", "_down_up")

    def __init__(self, n_elements, relation):
        n = n_elements
        if not _is_int(n):
            raise ValueError(f"the element count must be an integer, not {n!r}")
        if n < 1:
            raise ValueError("a poset needs at least one element")
        # read once, so a one-shot iterable is checked in full
        pairs = tuple(relation)
        downs = [0] * n
        ups = [0] * n
        for x, y in pairs:
            if not (_is_int(x) and _is_int(y) and 1 <= x <= n and 1 <= y <= n):
                raise ValueError(f"pair ({x}, {y}) outside elements 1..{n}")
            if x == y:
                raise ValueError(f"relation is not irreflexive at element {x}")
            downs[y - 1] |= 1 << (x - 1)
            ups[x - 1] |= 1 << (y - 1)
        # transitive exactly when each y above x has its up-set inside x's
        for x, y in pairs:
            missing = ups[y - 1] & ~ups[x - 1]
            if missing:
                w = (missing & -missing).bit_length()
                raise ValueError(
                    f"relation is not transitive: ({x}, {y}) and ({y}, {w}) "
                    f"without ({x}, {w})")
        super().__init__(n, (tuple(downs), tuple(ups)))

    @property
    def relation(self):
        return frozenset((x, y) for x, up in enumerate(self._down_up[1], start=1)
                         for y in _elements(up))

    def __repr__(self):
        return (f"{type(self).__qualname__}(n_elements={self.n_elements!r}, "
                f"relation={self.relation!r})")

    def __reduce__(self):
        return type(self), (self.n_elements, self.relation)

    def _is_element(self, x):
        # a bool or a float such as 1.5 is no element, even where it
        # compares equal to one
        return _is_int(x) and 1 <= x <= self.n_elements

    def less(self, x, y):
        return (self._is_element(x) and self._is_element(y)
                and bool(self._down_up[1][x - 1] >> (y - 1) & 1))

    def down_set(self, x):
        return frozenset(_elements(self._down_up[0][x - 1]) if self._is_element(x) else ())

    def up_set(self, x):
        return frozenset(_elements(self._down_up[1][x - 1]) if self._is_element(x) else ())


class LevelDecomposition(_Record):
    """Magnitude plus per-element chain indices.

    ``level[x]`` and ``up_level[x]`` are dicts keyed by element; levels
    index the increasing chain of distinct down-sets, up-levels the
    decreasing chain of distinct up-sets, both 1-based and of equal length.
    """

    __slots__ = ("magnitude", "level", "up_level")


# --- interval-order structure ----------------------------------------------------


def is_interval_order(p):
    """True when no four distinct elements form two comparable pairs with
    all four cross relations absent, that is, when the down-sets form a
    chain."""
    return _chain(p._down_up[0]) is not None


def _elements(mask):
    """The elements whose bits ``mask`` sets, ascending."""
    elements = []
    while mask:
        low = mask & -mask
        elements.append(low.bit_length())
        mask ^= low
    return elements


def _chain(masks):
    """The distinct masks in ascending size, or None unless each is a proper
    subset of the next (distinct sets of one size are not nested)."""
    chain = sorted(set(masks), key=int.bit_count)
    for a, b in zip(chain, chain[1:]):
        if a & ~b:
            return None
    return chain


def _levels(p):
    """The magnitude and every element's level and up-level, as two lists
    indexed by element - 1.  Raises NotIntervalOrder unless the down-sets
    form a chain; the up-sets then form one too, of the same length."""
    downs, ups = p._down_up
    down_chain = _chain(downs)
    if down_chain is None:
        raise NotIntervalOrder("down-sets or up-sets do not form a chain")
    magnitude = len(down_chain)
    level = {s: i for i, s in enumerate(down_chain, start=1)}
    # up-levels index the up-sets from the largest down
    up_level = {s: magnitude - i for i, s in enumerate(_chain(ups))}
    return magnitude, [level[s] for s in downs], [up_level[s] for s in ups]


def level_decomposition(p):
    """Down-set and up-set chains with per-element indices.  Raises
    NotIntervalOrder when either family of sets fails to form a chain."""
    magnitude, levels, up_levels = _levels(p)
    elements = range(1, p.n_elements + 1)
    return LevelDecomposition(
        magnitude=magnitude,
        level=dict(zip(elements, levels)),
        up_level=dict(zip(elements, up_levels)),
    )


# --- matrix encoding ---------------------------------------------------------------


def poset_to_fishburn(p):
    """Encode an interval order as the matrix counting elements by
    (level, up-level).  Raises NotIntervalOrder on other posets."""
    m, levels, up_levels = _levels(p)
    g = [[0] * m for _ in range(m)]
    for i, j in zip(levels, up_levels):
        g[i - 1][j - 1] += 1
    # an element's level never exceeds its up-level, so every count lies on
    # or above the main diagonal
    return TriMatrix._trusted(tuple(map(tuple, g)))


def fishburn_to_poset(m):
    """Decode a matrix with nonzero rows and columns into an interval order.

    Cell (i, j) contributes entry-many elements labeled consecutively in
    row-major cell order, and an element finishing at up-level j precedes
    every element starting at a level above j.  Row-major labels make those
    a suffix, the labels from the first one of row j + 1 on, so each cell's
    up-set is one suffix, and the down-set of a level i element holds every
    label in the columns before i.  The poset holds those masks; its
    relation pairs each cell's labels with its suffix, an order as built,
    irreflexive since ia <= ja and transitive since ja < ib <= jb < ic, so
    the poset skips the constructor's check.
    """
    require(fishburn_violation, NotFishburn, m)
    rows = m.rows
    d = len(rows)
    # starts[r] is the first label of row r + 1, and starts[-1] - 1 the count
    starts = tuple(itertools.accumulate(map(sum, rows), initial=1))
    end = starts[-1]
    # top - (1 << (s - 1)) is the mask of the labels s..end - 1
    top = 1 << (end - 1)
    # below[c] is the mask of the labels in the first c columns
    below = [0] * (d + 1)
    downs = []
    ups = []
    label = 1
    for i, row in enumerate(rows):
        for j in range(i, d):
            count = row[j]
            if count:
                ups += [top - (1 << (starts[j + 1] - 1))] * count
                below[j + 1] |= (1 << (label + count - 1)) - (1 << (label - 1))
                label += count
        downs += [below[i]] * (starts[i + 1] - starts[i])
        # no later row reaches column i + 1, so its labels are all in
        below[i + 1] |= below[i]
    return Poset._trusted(end - 1, (tuple(downs), tuple(ups)))


# --- duality -------------------------------------------------------------------------


def dual_poset(p):
    """Reverse the order; an involution, and the reversal of a valid order
    is one.  The image holds its input's masks with downs and ups
    exchanged."""
    return Poset._trusted(p.n_elements, p._down_up[::-1])


def _twin_classes(p):
    """Twins, elements with equal down-set and up-set, grouped by those two
    masks: the mask of each class's members, keyed by (down, up).  A twin
    class lies wholly inside or wholly outside every down-set and up-set,
    and swapping two twins is an automorphism, so self-duality pairs
    classes and ``canonical_form`` permutes them."""
    classes = {}
    for x, key in enumerate(zip(*p._down_up)):
        classes[key] = classes.get(key, 0) | 1 << x
    return classes


def is_self_dual_poset(p):
    """Decide isomorphism between the poset and its reversal.

    Such an isomorphism pairs the twin classes, each (down-set size,
    up-set size, class size) = (a, b, s) class with a (b, a, s) class that
    no other takes.  A class alone in its group, as each of an interval
    order's is, has one candidate, and these forced pairs are checked
    once: each class's up-set, cut to the paired classes, must map onto
    its image's down-set cut to the images taken (for a bijection f, y in
    up(x) iff f(y) in down(f(x)) says x < y iff f(y) < f(x), so down-sets
    need no check).  The classes of larger groups are then paired by
    backtracking: a free candidate agrees with every pair made so far
    when the images in its down-set are those of the classes above the
    current one, and those in its up-set of the classes below.  Nothing
    reads the matrix encoding.
    """
    # each group holds its classes as ((down, up), members) items
    groups = {}
    for item in _twin_classes(p).items():
        (down, up), members = item
        groups.setdefault((down.bit_count(), up.bit_count(), members.bit_count()),
                          []).append(item)
    # the forced pairs, each class's up-set with its image's down-set, the
    # images taken, and the classes that have a choice with their candidates
    paired = []
    checks = []
    used = 0
    free = []
    for (a, b, size), group in groups.items():
        images = groups.get((b, a, size))
        if images is None or len(images) != len(group):
            return False
        if len(group) == 1:
            ((_, up), members), = group
            ((image_down, _), image), = images
            paired.append((members, image))
            checks.append((up, image_down))
            used |= image
        else:
            free += [(item, images) for item in group]
    if free:
        # the forced check sees only the images taken
        checks = [(up, image_down & used) for up, image_down in checks]
    # an up-set is a union of twin classes, and its image the union of theirs
    for up, image_down in checks:
        mapped = 0
        for members, image in paired:
            if members & up:
                mapped |= image
        if mapped != image_down:
            return False
    if not free:
        return True

    def extend(k, paired, used):
        if k == len(free):
            return True
        ((down, up), members), candidates = free[k]
        # the reversal turns what lies above the class into what lies below
        # its image
        above = below = 0
        for source, image in paired:
            if source & up:
                above |= image
            elif source & down:
                below |= image
        for (image_down, image_up), image in candidates:
            if image & used or image_down & used != above or image_up & used != below:
                continue
            if extend(k + 1, paired + [(members, image)], used | image):
                return True
        return False

    return extend(0, paired, used)


# --- isomorphism classes ----------------------------------------------------------------


def _multiset_permutations(items):
    """Every distinct ordering of the sorted list ``items``, in ascending
    lexicographic order (the classic next-permutation step)."""
    a = list(items)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = reversed(a[i + 1:])


def canonical_form(p):
    """Minimal relation encoding over relabelings, a complete isomorphism
    invariant.

    Any isomorphism preserves the (down-set size, up-set size) profile, so
    it suffices to fix one profile-sorted arrangement and minimize over
    permutations inside equal-profile blocks.  Permuting twins leaves the
    encoding as it is, so inside each block only the order of its twin
    classes varies: the distinct orderings of a multiset of class indices.
    """
    n = p.n_elements
    relation = p.relation
    if not relation:
        return (n, ())
    by_profile = {}
    for (down, up), members in _twin_classes(p).items():
        by_profile.setdefault((down.bit_count(), up.bit_count()), []).append(
            _elements(members))
    blocks = [by_profile[key] for key in sorted(by_profile)]
    # class k of a block appears len(class k) times in its index multiset
    slots = [[k for k, members in enumerate(block) for _ in members]
             for block in blocks]
    relabel = [0] * (n + 1)
    best = None
    for arrangement in itertools.product(*map(_multiset_permutations, slots)):
        position = 1
        for block, indices in zip(blocks, arrangement):
            pending = [iter(members) for members in block]
            for k in indices:
                relabel[next(pending[k])] = position
                position += 1
        encoded = tuple(sorted((relabel[x], relabel[y]) for x, y in relation))
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
    head = lines[0].split() if lines else ()
    n = _read_uint(head[0], "line 1: the element count") \
        if len(head) == 1 and _is_uint(head[0]) else 0
    if n < 1:
        raise ParseError("line 1: expected a positive element count")
    # bit y - 1 of ups[x] stands for y above x
    ups = [0] * (n + 1)
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2 or not all(map(_is_uint, parts)):
            raise ParseError(f"line {lineno}: expected a pair of element numbers")
        x, y = (_read_uint(part, f"line {lineno}: an element number") for part in parts)
        if not (1 <= x <= n and 1 <= y <= n):
            raise ParseError(f"line {lineno}: pair ({x}, {y}) outside elements 1..{n}")
        if x == y:
            raise ParseError(f"line {lineno}: element {x} cannot be below itself")
        ups[x] |= 1 << (y - 1)
    # the transitive closure: once every element up to k has been passed
    # through, ups[x] holds each y reached from x by a path whose inner
    # elements are all at most k.  An element with nothing above it gains
    # nothing and passes nothing on, so only the others take part
    sources = [x for x in range(1, n + 1) if ups[x]]
    for k in sources:
        for x in sources:
            if ups[x] >> (k - 1) & 1:
                ups[x] |= ups[k]
    downs = [0] * n
    for x in sources:
        if ups[x] >> (x - 1) & 1:
            raise ParseError(f"element {x} lies on a cycle")
        for y in _elements(ups[x]):
            downs[y - 1] |= 1 << (x - 1)
    return Poset._trusted(n, (tuple(downs), tuple(ups[1:])))


def format_poset(p):
    lines = [str(p.n_elements)]
    lines.extend(f"{x} {y}" for x, y in sorted(p.relation))
    return "\n".join(lines) + "\n"
