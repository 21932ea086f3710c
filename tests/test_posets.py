"""Poset carrier, interval-order detection, the matrix encoding, duality,
and isomorphism classes, cross-checked against brute-force oracles."""

import copy
import itertools
import pickle
import random
import sys
import time
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from fishburn import (
    FamilyTag,
    NotIntervalOrder,
    NotSelfDualMatrix,
    ParseError,
    Poset,
    TriMatrix,
    canonical_form,
    dual_poset,
    enumerate_family,
    fishburn_to_poset,
    format_poset,
    is_interval_order,
    is_self_dual_poset,
    level_decomposition,
    parse_poset,
    poset_to_fishburn,
    reduced_size,
    reduced_size_of_interval_order,
)
from fishburn import matrices, posets
from fishburn.matrices import selfdual_violation
from matrix_strategies import fishburn_matrices
from oracles import all_posets, brute_canonical, no_two_plus_two, reference_closure
from vectors import A5, INTERVAL_ORDER_COUNTS, POSET_MATRIX, POSET_RELATION

TWO_PLUS_TWO = Poset(4, frozenset({(1, 2), (3, 4)}))


def fishburn_members(max_size):
    return [m for n in range(1, max_size + 1)
            for m in enumerate_family(FamilyTag.FISHBURN, n)]


def relabeled(p, mapping):
    return Poset(p.n_elements,
                 frozenset((mapping[x], mapping[y]) for x, y in p.relation))


# --- construction ------------------------------------------------------------


def test_poset_validates_bounds_and_irreflexivity():
    with pytest.raises(ValueError, match="at least one element"):
        Poset(0, frozenset())
    with pytest.raises(ValueError, match="outside elements"):
        Poset(2, frozenset({(1, 3)}))
    with pytest.raises(ValueError, match="outside elements"):
        Poset(2, frozenset({(1.5, 2)}))
    with pytest.raises(ValueError, match="irreflexive"):
        Poset(2, frozenset({(1, 1)}))


def test_poset_rejects_non_integer_elements():
    # True equals 1 and 2.0 equals 2, yet neither is an element
    for pair in ((True, 2), (1, 2.0)):
        with pytest.raises(ValueError) as caught:
            Poset(2, frozenset({pair}))
        assert str(caught.value) == f"pair ({pair[0]}, {pair[1]}) outside elements 1..2"
    for n in (2.5, 2.0, True):
        with pytest.raises(ValueError) as caught:
            Poset(n, frozenset())
        assert str(caught.value) == f"the element count must be an integer, not {n!r}"


def test_poset_validates_transitivity():
    with pytest.raises(ValueError, match="not transitive"):
        Poset(3, frozenset({(1, 2), (2, 3)}))


def test_constructor_takes_any_iterable_of_pairs():
    # the pairs are read once, so a one-shot iterator is checked in full
    # and answers from every pair it held
    with pytest.raises(ValueError) as caught:
        Poset(3, iter([(1, 2), (2, 3)]))
    assert str(caught.value) == \
        "relation is not transitive: (1, 2) and (2, 3) without (1, 3)"
    assert Poset(3, iter([(1, 2), (2, 3), (1, 3)])).less(1, 2)
    # a poset over a set hashes, and one over a list with a repeated pair
    # is the poset over its pairs
    assert hash(Poset(2, {(1, 2)})) == hash(Poset(2, frozenset({(1, 2)})))
    listed = Poset(2, [(1, 2), (1, 2)])
    frozen = Poset(2, frozenset({(1, 2)}))
    assert listed == frozen and hash(listed) == hash(frozen)
    assert repr(listed) == repr(frozen) == "Poset(n_elements=2, relation=frozenset({(1, 2)}))"


def test_down_and_up_sets():
    p = Poset(4, POSET_RELATION)
    assert p.down_set(4) == frozenset({1, 2})
    assert p.down_set(1) == frozenset()
    assert p.up_set(1) == frozenset({4})
    assert p.up_set(3) == frozenset()
    assert p.less(1, 4) and not p.less(4, 1)


# --- interval-order detection ---------------------------------------------------


def test_two_plus_two_is_not_an_interval_order():
    assert not is_interval_order(TWO_PLUS_TWO)
    with pytest.raises(NotIntervalOrder):
        level_decomposition(TWO_PLUS_TWO)


def test_small_interval_orders():
    assert is_interval_order(Poset(1, frozenset()))
    assert is_interval_order(Poset(4, POSET_RELATION))
    # a 3-chain plus an isolated element has no 2+2
    chain = Poset(4, frozenset({(1, 2), (2, 3), (1, 3)}))
    assert is_interval_order(chain)


def test_detection_agrees_with_two_plus_two_scan():
    for n in range(1, 5):
        for p in all_posets(n):
            assert is_interval_order(p) == no_two_plus_two(p), p


def test_decomposition_succeeds_exactly_on_interval_orders():
    for p in all_posets(3):
        if is_interval_order(p):
            ld = level_decomposition(p)
            assert ld.magnitude >= 1
        else:
            with pytest.raises(NotIntervalOrder):
                level_decomposition(p)
    # the decomposition tests only the down-sets: they form a chain exactly
    # when the up-sets do, and the two chains are then equally long
    for n in range(1, 6):
        for p in all_posets(n):
            downs, ups = map(posets._chain, p._down_up)
            assert (downs is None) == (ups is None) \
                and (downs is None or len(downs) == len(ups)), p


def test_level_decomposition_golden():
    ld = level_decomposition(Poset(4, POSET_RELATION))
    assert ld.magnitude == 2
    assert ld.level == {1: 1, 2: 1, 3: 1, 4: 2}
    assert ld.up_level == {1: 1, 2: 1, 3: 2, 4: 2}


# --- matrix encoding ---------------------------------------------------------------


def test_poset_to_fishburn_golden():
    assert poset_to_fishburn(Poset(4, POSET_RELATION)) == POSET_MATRIX


def test_fishburn_to_poset_golden():
    assert fishburn_to_poset(POSET_MATRIX) == Poset(4, POSET_RELATION)


def test_encode_decode_roundtrip_exhaustive():
    for n in range(1, 5):
        for m in enumerate_family(FamilyTag.FISHBURN, n):
            p = fishburn_to_poset(m)
            assert is_interval_order(p)
            assert p.n_elements == n
            assert poset_to_fishburn(p) == m


def test_decoder_relation_matches_definition():
    # labels run over the cells in row-major order, cell (i, j) contributing
    # entry-many elements, and a precedes b exactly when a's up-level j_a is
    # below b's level i_b
    for n in range(1, 6):
        for m in enumerate_family(FamilyTag.FISHBURN, n):
            labels = [(i, j) for i in range(1, m.dim + 1)
                      for j in range(i, m.dim + 1) for _ in range(m.entry(i, j))]
            relation = {(a, b)
                        for a, (_, ja) in enumerate(labels, start=1)
                        for b, (ib, _) in enumerate(labels, start=1) if ja < ib}
            p = fishburn_to_poset(m)
            assert p.n_elements == n
            assert p.relation == relation, m


def test_decoder_and_dual_build_trusted_posets(monkeypatch):
    # the decoder's relation is a valid order as built, so the constructor's
    # quadratic transitivity check is skipped, yet the result is the same
    members = [m for n in range(1, 6) for m in enumerate_family(FamilyTag.FISHBURN, n)]
    checks = []
    init = Poset.__init__

    def counting(p, *args, **kwargs):
        checks.append(args)
        init(p, *args, **kwargs)

    monkeypatch.setattr(Poset, "__init__", counting)
    images = [fishburn_to_poset(m) for m in members]
    duals = [dual_poset(p) for p in images]
    assert checks == []
    for p in images + duals:
        assert p == Poset(p.n_elements, p.relation)
    assert len(checks) == 2 * len(members)


def test_one_pass_sets_match_down_set_and_up_set():
    # the decoder stores masks read off the matrix, and the dual its
    # input's masks swapped; both must be the masks the constructor's one
    # pass over the relation gives, and the sets the definition gives
    for n in range(1, 7):
        for m in enumerate_family(FamilyTag.FISHBURN, n):
            decoded = fishburn_to_poset(m)
            for p in (decoded, dual_poset(decoded)):
                downs, ups = p._down_up
                relation = p.relation
                assert (downs, ups) == Poset(p.n_elements, relation)._down_up, m
                elements = range(1, p.n_elements + 1)

                def members(mask):
                    return frozenset(y for y in elements if mask >> (y - 1) & 1)

                assert {x: members(downs[x - 1]) for x in elements} == \
                    {x: frozenset(w for w, y in relation if y == x) for x in elements} == \
                    {x: p.down_set(x) for x in elements}, m
                assert {x: members(ups[x - 1]) for x in elements} == \
                    {x: frozenset(y for w, y in relation if w == x) for x in elements} == \
                    {x: p.up_set(x) for x in elements}, m


def test_kept_masks_change_nothing_about_a_poset():
    # the masks are the only stored state: a poset the package built from
    # masks is the same value, with the same hash and repr, as the public
    # poset over its relation, and copies and pickles, which go through
    # the relation, keep the masks
    parsed = parse_poset("4\n1 2\n3 4\n1 4\n")
    decoded = fishburn_to_poset(A5)
    posets = [parsed, decoded, dual_poset(parsed), dual_poset(decoded)]
    assert Poset.__slots__ == ("n_elements", "_down_up")
    for p in posets:
        public = Poset(p.n_elements, p.relation)
        assert hash(p) == hash(public)
        assert p == public and public == p
        assert repr(p) == repr(public) == (
            f"Poset(n_elements={p.n_elements!r}, relation={p.relation!r})")
        for other in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p)):
            assert type(other) is Poset
            assert other == p and hash(other) == hash(p)
            assert repr(other) == repr(p)
            assert other._down_up == p._down_up
    assert dual_poset(dual_poset(decoded)) == decoded


def label_suffix_pairs(m):
    """The relation the decoder once built eagerly: each cell's row-major
    labels paired with the labels from the first one of row j + 1 on, in
    the order those pairs were listed."""
    rows = m.rows
    starts = list(itertools.accumulate(map(sum, rows), initial=1))
    pairs = []
    label = 1
    for i, row in enumerate(rows):
        for j in range(i, len(rows)):
            count = row[j]
            pairs.extend(itertools.product(range(label, label + count),
                                           range(starts[j + 1], starts[-1])))
            label += count
    return frozenset(pairs)


def count_relation_reads(monkeypatch):
    """The posets whose ``relation`` is read from now on, one entry a read."""
    reads = []
    relation = Poset.relation

    def counting(p):
        reads.append(p)
        return relation.fget(p)

    monkeypatch.setattr(Poset, "relation", property(counting))
    return reads


def test_lazy_relation_equals_the_label_suffix_pairs():
    # the relation is no stored state: each read builds it from the masks
    for m in fishburn_members(7):
        p = fishburn_to_poset(m)
        relation = p.relation
        assert relation == label_suffix_pairs(m), m
        assert p.relation == relation and p.relation is not relation
        assert Poset(p.n_elements, relation) == p


def test_lazy_and_eager_posets_agree():
    # a decoded poset holds the masks read off the matrix, a public one
    # those its constructor derives from the same pairs
    reads = [
        lambda p: p,
        hash,
        repr,
        lambda p: pickle.loads(pickle.dumps(p)),
        copy.copy,
        copy.deepcopy,
        lambda p: [(x, y, p.less(x, y)) for x in range(1, p.n_elements + 1)
                   for y in range(1, p.n_elements + 1)],
        lambda p: [p.down_set(x) for x in range(1, p.n_elements + 1)],
        lambda p: [p.up_set(x) for x in range(1, p.n_elements + 1)],
        format_poset,
        canonical_form,
        dual_poset,
        lambda p: dual_poset(p).relation,
    ]
    for m in fishburn_members(5) + [A5, POSET_MATRIX]:
        eager = Poset(sum(map(sum, m.rows)), label_suffix_pairs(m))
        for read in reads:
            lazy = fishburn_to_poset(m)
            assert read(lazy) == read(eager), m
        assert eager == fishburn_to_poset(m) and fishburn_to_poset(m) == eager


# what is no element: out of range, or no int, even where it compares
# equal to one
NON_ELEMENTS = (0, -1, True, False, 1.0, 2.5, "1", None)


def test_poset_leg_never_reads_the_relation(monkeypatch):
    reads = count_relation_reads(monkeypatch)
    for m in fishburn_members(6):
        p = fishburn_to_poset(m)
        is_self_dual_poset(p)
        assert poset_to_fishburn(p) == m
        q = dual_poset(p)
        is_self_dual_poset(q)
        poset_to_fishburn(q)
        assert is_interval_order(p)
        # the element reads answer from the masks, and a non-element too
        n = p.n_elements
        elements = range(1, n + 2)
        for x in elements:
            p.down_set(x)
            q.up_set(x)
            for y in elements:
                p.less(x, y)
        for x in NON_ELEMENTS:
            assert not p.less(x, n) and not p.less(1, x)
            assert p.down_set(x) == p.up_set(x) == frozenset()
        assert reads == [], m
    # the count sees a read
    assert fishburn_to_poset(A5).relation and len(reads) == 1


def test_non_elements_are_below_nothing():
    # as in the constructor, a bool or a float is no element, so True is
    # not below 2 where 1 is
    for p in (Poset(2, frozenset({(1, 2)})), fishburn_to_poset(TriMatrix(((1, 0), (0, 1))))):
        assert p.less(1, 2) and p.down_set(2) == {1} and p.up_set(1) == {2}
        for x in NON_ELEMENTS + (3,):
            assert not p.less(x, 2) and not p.less(1, x), x
            assert p.down_set(x) == p.up_set(x) == frozenset(), x


def test_missing_names_raise_the_usual_error():
    for p in (fishburn_to_poset(A5), Poset(4, POSET_RELATION)):
        with pytest.raises(AttributeError) as caught:
            p.no_such_name
        assert str(caught.value) == "'Poset' object has no attribute 'no_such_name'"
        assert caught.value.name == "no_such_name" and caught.value.obj is p
        assert not hasattr(p, "no_such_name")
        assert getattr(p, "no_such_name", 5) == 5


def test_encoder_builds_trusted_matrices(monkeypatch):
    # the encoding is upper-triangular as built, so the per-cell check of the
    # public matrix constructor is skipped, yet the result is the same
    posets = [fishburn_to_poset(m)
              for n in range(1, 6) for m in enumerate_family(FamilyTag.FISHBURN, n)]
    checks = []
    post_init = TriMatrix.__post_init__

    def counting(m):
        checks.append(m)
        post_init(m)

    monkeypatch.setattr(TriMatrix, "__post_init__", counting)
    images = [poset_to_fishburn(p) for p in posets]
    assert checks == []
    for m in images:
        assert TriMatrix(m.rows) == m
    assert len(checks) == len(images)


@given(fishburn_matrices())
def test_encode_decode_roundtrip_generated(m):
    assert poset_to_fishburn(fishburn_to_poset(m)) == m


def test_decode_encode_reaches_an_isomorphic_poset():
    for p in all_posets(4):
        if not is_interval_order(p):
            continue
        q = fishburn_to_poset(poset_to_fishburn(p))
        assert brute_canonical(q) == brute_canonical(p)


def test_isomorphism_class_counts_match_matrix_counts():
    for n in range(1, 5):
        classes = {brute_canonical(p)
                   for p in all_posets(n) if is_interval_order(p)}
        assert len(classes) == INTERVAL_ORDER_COUNTS[n - 1]
        assert len(classes) == len(enumerate_family(FamilyTag.FISHBURN, n))


# --- duality ------------------------------------------------------------------------


def test_dual_poset_is_an_involution():
    for p in all_posets(3):
        assert dual_poset(dual_poset(p)) == p


def test_self_duality_vectors():
    assert not is_self_dual_poset(Poset(4, POSET_RELATION))
    assert is_self_dual_poset(fishburn_to_poset(A5))
    assert is_self_dual_poset(Poset(1, frozenset()))
    # a 2-chain reverses onto itself by swapping its endpoints
    assert is_self_dual_poset(Poset(2, frozenset({(1, 2)})))
    # the fence 4 > 2 < 1 > 5 < 3 > 6 is self-dual: its ends 4 and 6 pair
    # by force, and its middle is searched
    assert is_self_dual_poset(Poset(6, frozenset({(2, 1), (2, 4), (5, 1), (5, 3), (6, 3)})))


def test_self_duality_is_isomorphism_invariant():
    for p in all_posets(3):
        value = is_self_dual_poset(p)
        for perm in itertools.permutations(range(1, 4)):
            mapping = dict(zip(range(1, 4), perm))
            assert is_self_dual_poset(relabeled(p, mapping)) == value


def grouped(p):
    """Whether some twin classes of ``p`` share (down-set size, up-set
    size, class size), so that the self-duality test searches."""
    groups = Counter((down.bit_count(), up.bit_count(), members.bit_count())
                     for (down, up), members in posets._twin_classes(p).items())
    return max(groups.values()) > 1


def test_self_duality_matches_canonical_forms_on_every_small_poset():
    # every labeled poset up to five elements, interval orders or not; the
    # self-duality test and the canonical form share no code path through
    # the matrix.  The posets in which some group holds two twin classes
    # reach the search, the rest are decided by the forced pairs alone,
    # and both kinds occur
    total = searched = 0
    for n in range(1, 6):
        for p in all_posets(n):
            total += 1
            searched += grouped(p)
            assert is_self_dual_poset(p) == \
                (canonical_form(p) == canonical_form(dual_poset(p))), p
    assert (total, searched) == (4473, 552)


def random_order(rng, n):
    """The pairs of a random poset on 1..n: the closure of a random graph
    oriented along a random labelling, with its edge probability drawn
    too."""
    edge = rng.random()
    labels = rng.sample(range(1, n + 1), n)
    return reference_closure(n, [(labels[i], labels[j]) for i in range(n)
                                 for j in range(i + 1, n) if rng.random() < edge])[0]


def test_self_duality_matches_canonical_forms_on_mixed_posets():
    # the disjoint union of an interval order, whose classes pair by
    # force, and a random poset, whose classes may have a choice, labelled
    # at random: the forced pairs and the search must agree on one poset
    rng = random.Random(29)
    orders = [fishburn_to_poset(m) for m in fishburn_members(4)]
    kinds = Counter()
    for _ in range(1500):
        q = rng.choice(orders)
        m = rng.randint(3, 7)
        n = q.n_elements + m
        pairs = q.relation | {(x + q.n_elements, y + q.n_elements)
                              for x, y in random_order(rng, m)}
        labels = rng.sample(range(1, n + 1), n)
        p = Poset(n, frozenset((labels[x - 1], labels[y - 1]) for x, y in pairs))
        verdict = is_self_dual_poset(p)
        assert verdict == (canonical_form(p) == canonical_form(dual_poset(p))), p
        kinds[grouped(p), verdict] += 1
    assert len(kinds) == 4, kinds


def test_forced_class_map_must_pair_equal_sizes():
    # a crown of twin classes: bottom class i (sizes 1, 2, 3, 3) lies below
    # top classes i and i + 1 mod 4 (sizes 1, 2, 2, 4).  Every profile
    # names one class and the class map by profile reverses the crown, but
    # it pairs classes of unequal sizes, so no isomorphism onto the
    # reversal exists; the groups, keyed on class size too, find no image
    # for the first bottom class
    bottoms = [i for i, size in enumerate((1, 2, 3, 3)) for _ in range(size)]
    tops = [j for j, size in enumerate((1, 2, 2, 4)) for _ in range(size)]
    below = len(bottoms)
    p = Poset(below + len(tops), frozenset(
        (x, below + y) for x, i in enumerate(bottoms, start=1)
        for y, j in enumerate(tops, start=1) if j in (i, (i + 1) % 4)))
    assert not is_self_dual_poset(p)
    assert canonical_form(p) != canonical_form(dual_poset(p))


@pytest.mark.parametrize("relation", [
    # six groups of two classes: a class would take an image already
    # taken were the search to let it
    {(3, 1), (3, 4), (3, 9), (3, 11), (5, 1), (5, 2), (5, 6), (5, 9), (7, 6),
     (7, 9), (7, 11), (8, 1), (8, 6), (8, 11), (10, 1), (10, 2), (10, 4),
     (10, 9), (10, 11), (12, 2), (12, 4), (12, 6), (12, 9), (12, 11)},
    # a pairing would pass on the images below each class alone
    {(2, 6), (2, 7), (2, 8), (3, 1), (5, 6), (9, 4), (9, 6), (10, 1), (10, 8)},
    # and another on the images above each class alone
    {(1, 7), (1, 10), (4, 2), (5, 2), (5, 10), (6, 9), (8, 2), (8, 3), (8, 9)},
])
def test_search_rejects_pairings_that_fail_one_test(relation):
    # none of these is self-dual, and each has a group of two twin
    # classes, so it reaches the search.  The search turns each down only
    # by the free-image test, the down-set test or the up-set test
    # respectively, and posets of up to five elements need none of the
    # three.  The last two also hold forced pairs, which every candidate
    # is tested against.  Each was found by a seeded search over randomly
    # labelled posets, some of them unions with an interval order
    p = Poset(max(map(max, relation)), frozenset(relation))
    assert grouped(p)
    assert not is_self_dual_poset(p)
    assert canonical_form(p) != canonical_form(dual_poset(p))


def test_forced_pairs_are_checked_beside_the_search():
    # not self-dual, and only the check of the forced pairs among
    # themselves says so: every group has its reversed group, and the
    # groups of two have a pairing that agrees with the forced images.
    # Found like the witnesses above
    relation = {(3, 4), (3, 9), (3, 10), (5, 10), (6, 1), (6, 9), (7, 9), (7, 10),
                (8, 1), (8, 2), (8, 4), (8, 9)}
    p = Poset(10, frozenset(relation))
    assert grouped(p)
    assert not is_self_dual_poset(p)
    assert canonical_form(p) != canonical_form(dual_poset(p))


def test_self_duality_reads_no_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("self-duality read the matrix encoding")

    monkeypatch.setattr(posets, "poset_to_fishburn", refuse)
    monkeypatch.setattr(matrices, "selfdual_violation", refuse)
    monkeypatch.setattr(matrices, "_dual_rows", refuse)
    for m in fishburn_members(5):
        is_self_dual_poset(fishburn_to_poset(m))
    for p in all_posets(4):
        is_self_dual_poset(p)


def test_poset_self_duality_matches_matrix_self_duality():
    # an interval order's twin classes have distinct profiles, so every
    # class pairs by force and nothing is searched
    for m in fishburn_members(7):
        p = fishburn_to_poset(m)
        assert not grouped(p)
        assert is_self_dual_poset(p) == (selfdual_violation(m) is None)


# --- isomorphism classes ----------------------------------------------------------


def test_canonical_form_partition_matches_brute_force():
    for n in range(1, 5):
        by_fast = {}
        by_brute = {}
        for p in all_posets(n):
            by_fast.setdefault(canonical_form(p), set()).add(p)
            by_brute.setdefault(brute_canonical(p), set()).add(p)
        assert set(map(frozenset, by_fast.values())) == \
            set(map(frozenset, by_brute.values()))


def _elementwise_canonical_form(p):
    """The canonical form by its definition: the least sorted relation over
    every arrangement that sorts elements by (down-set size, up-set size)
    and permutes elements freely inside each equal-profile block."""
    n = p.n_elements
    if not p.relation:
        return (n, ())
    prof = {x: (len(p.down_set(x)), len(p.up_set(x))) for x in range(1, n + 1)}
    order = sorted(range(1, n + 1), key=lambda x: (prof[x], x))
    blocks = [tuple(g) for _, g in itertools.groupby(order, key=prof.get)]
    best = None
    for perms in itertools.product(*map(itertools.permutations, blocks)):
        relabel = {x: i for i, x in enumerate(itertools.chain(*perms), start=1)}
        encoded = tuple(sorted((relabel[x], relabel[y]) for x, y in p.relation))
        if best is None or encoded < best:
            best = encoded
    return (n, best)


def test_canonical_form_matches_elementwise_definition():
    for n in range(1, 6):
        for p in all_posets(n):
            assert canonical_form(p) == _elementwise_canonical_form(p), p
    for m in enumerate_family(FamilyTag.FISHBURN, 6):
        p = fishburn_to_poset(m)
        assert canonical_form(p) == _elementwise_canonical_form(p), m


def test_canonical_form_permutes_twin_classes_not_twins():
    # three cells of five twins each: 5!^3 arrangements element by element,
    # one arrangement of the twin classes.  Profiles put cell (1, 2)'s
    # elements, (0, 0), at positions 1-5, cell (1, 1)'s, (0, 5), at 6-10 and
    # cell (2, 2)'s, (5, 0), at 11-15, and 6-10 precede 11-15.
    p = fishburn_to_poset(TriMatrix(((5, 5), (0, 5))))
    start = time.perf_counter()
    form = canonical_form(p)
    assert time.perf_counter() - start < 5.0
    assert form == (15, tuple((x, y) for x in range(6, 11) for y in range(11, 16)))
    assert canonical_form(fishburn_to_poset(TriMatrix(((6, 6), (0, 6)))))[0] == 18


@given(fishburn_matrices(max_dim=3), st.randoms(use_true_random=False))
def test_canonical_form_is_relabeling_invariant(m, rng):
    p = fishburn_to_poset(m)
    order = list(range(1, p.n_elements + 1))
    rng.shuffle(order)
    mapping = dict(zip(range(1, p.n_elements + 1), order))
    assert canonical_form(relabeled(p, mapping)) == canonical_form(p)


# --- reduced size -----------------------------------------------------------------


def test_reduced_size_of_interval_order_golden():
    assert reduced_size_of_interval_order(fishburn_to_poset(A5)) == 5


def test_reduced_size_agrees_with_matrix_reduced_size():
    for n in range(1, 4):
        for m in enumerate_family(FamilyTag.SELF_DUAL, n):
            assert reduced_size_of_interval_order(fishburn_to_poset(m)) == n
            assert reduced_size(m) == n


def test_reduced_size_rejects_non_self_dual():
    with pytest.raises(NotSelfDualMatrix):
        reduced_size_of_interval_order(Poset(4, POSET_RELATION))
    with pytest.raises(NotIntervalOrder):
        reduced_size_of_interval_order(TWO_PLUS_TWO)


# --- text format -------------------------------------------------------------------


def test_format_poset_golden():
    assert format_poset(Poset(4, POSET_RELATION)) == "4\n1 4\n2 4\n"


def test_parse_poset_takes_transitive_closure():
    p = parse_poset("3\n1 2\n2 3\n")
    assert p.relation == frozenset({(1, 2), (2, 3), (1, 3)})
    # a 60-chain's cover pairs, given top down
    n = 60
    p = parse_poset(f"{n}\n" + "".join(f"{x} {x + 1}\n" for x in range(n - 1, 0, -1)))
    assert p.relation == frozenset(itertools.combinations(range(1, n + 1), 2))
    assert is_interval_order(p)


def test_parse_poset_matches_a_walk_over_the_pairs():
    # seeded texts of 1 to 30 elements: sparse ones, with a few pairs among
    # many elements, dense ones, every pair drawn along one random order,
    # and cyclic ones, pairs drawn in both directions.  The reader's
    # closure must give the pairs an independent walk reaches, or name the
    # least element on a cycle
    rng = random.Random(478)
    outcomes = Counter()
    for trial in range(3000):
        kind = ("sparse", "dense", "cyclic")[trial % 3]
        n = rng.randint(1, 30)
        if kind == "sparse":
            pairs = [tuple(rng.sample(range(1, n + 1), 2)) for _ in range(rng.randint(0, 3))] \
                if n > 1 else []
        else:
            pairs = sorted(random_order(rng, n))
            if kind == "cyclic":
                pairs += [(y, x) for x, y in pairs if rng.random() < 0.05]
            rng.shuffle(pairs)
        text = f"{n}\n" + "".join(f"{x} {y}\n" for x, y in pairs)
        closure, on_cycle = reference_closure(n, pairs)
        if on_cycle is None:
            p = parse_poset(text)
            assert p.relation == closure, text
            assert p == Poset(n, closure), text
        else:
            with pytest.raises(ParseError) as caught:
                parse_poset(text)
            assert str(caught.value) == f"element {on_cycle} lies on a cycle", text
        outcomes[kind, on_cycle is None] += 1
    assert len(outcomes) == 5, outcomes
    # the closure runs over the elements with something above them, so an
    # element count far beyond the pairs costs little; over every pair of
    # elements it took about 1 s at 4 000 elements, growing as the square
    start = time.perf_counter()
    p = parse_poset("20000\n1 2\n2 3\n7 9\n")
    assert time.perf_counter() - start < 5.0
    assert p.relation == {(1, 2), (2, 3), (1, 3), (7, 9)} and p.n_elements == 20000


def test_parse_poset_skips_blank_lines():
    # only nonempty lines hold pairs: empty and whitespace-only lines
    # between and after them are skipped
    p = parse_poset("3\n\n1 2\n   \n\t\n2 3\n\n \n")
    assert p == parse_poset("3\n1 2\n2 3\n")
    assert p.relation == frozenset({(1, 2), (2, 3), (1, 3)})


def test_parse_poset_roundtrip():
    # the reader checks its text itself and builds the masks that the
    # public constructor, which builds every poset of all_posets, builds
    for n in range(1, 6):
        for p in all_posets(n):
            parsed = parse_poset(format_poset(p))
            assert parsed == p and hash(parsed) == hash(p)


def test_order_error_messages_pinned():
    # the constructor names a missing pair and the two pairs that need it
    with pytest.raises(ValueError) as caught:
        Poset(3, frozenset({(1, 2), (2, 3)}))
    assert str(caught.value) == \
        "relation is not transitive: (1, 2) and (2, 3) without (1, 3)"
    # the reader names the smallest element on a cycle, here 3 and not 1
    with pytest.raises(ParseError) as caught:
        parse_poset("5\n1 2\n2 4\n4 3\n3 4\n5 3\n")
    assert str(caught.value) == "element 3 lies on a cycle"


def test_parse_poset_refuses_numbers_longer_than_int_converts():
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ParseError) as err:
        parse_poset("7" * (limit + 1) + "\n")
    assert str(err.value) == f"line 1: the element count has more than {limit} digits"
    with pytest.raises(ParseError) as err:
        parse_poset("3\n1 2\n2 " + "3" * (limit + 1) + "\n")
    assert str(err.value) == f"line 3: an element number has more than {limit} digits"


def test_parse_poset_errors():
    with pytest.raises(ParseError, match="element count"):
        parse_poset("")
    with pytest.raises(ParseError, match="element count"):
        parse_poset("0\n")
    # digits outside ASCII are not element numbers
    with pytest.raises(ParseError, match="element count"):
        parse_poset("\u0663\n")
    with pytest.raises(ParseError, match="element count"):
        parse_poset("\u00b2\n")
    with pytest.raises(ParseError, match="pair of element numbers"):
        parse_poset("2\n1\n")
    with pytest.raises(ParseError, match="outside elements"):
        parse_poset("2\n1 3\n")
    with pytest.raises(ParseError, match="below itself"):
        parse_poset("2\n1 1\n")
    with pytest.raises(ParseError, match="cycle"):
        parse_poset("2\n1 2\n2 1\n")
    with pytest.raises(ParseError, match="cycle"):
        parse_poset("3\n1 2\n2 3\n3 1\n")
