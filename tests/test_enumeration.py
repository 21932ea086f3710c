"""Family enumeration order and completeness, refined count tables, and the
five counting identities."""

import pathlib

import pytest

from fishburn import (
    IDENTITIES,
    FamilyTag,
    Parity,
    SignedRowFishburn,
    TriMatrix,
    count_refined,
    enumerate_family,
    family_member,
    family_size,
    family_violation,
    refinement_key,
    stats,
    verify_identity,
)
from fishburn import enumeration
from fishburn.enumeration import verify_identities
from vectors import A5, A6, B_1, M_1, RM_2_ORDER, SM_1

GOLDEN = pathlib.Path(__file__).parent / "golden"

# hand-derived leading counts; the reduced-size family and the rows-after-
# the-first family stay in lockstep at twice the row-nonzero family
FISHBURN_COUNTS = (1, 2, 5, 15, 53)
RM_COUNTS = (1, 3, 12, 61, 380)

# --- enumeration contract -------------------------------------------------------


def test_listing_order_rm_2():
    assert enumerate_family(FamilyTag.RM, 2) == RM_2_ORDER


def test_listing_order_self_dual_1():
    assert enumerate_family(FamilyTag.SELF_DUAL, 1) == (
        TriMatrix(((1,),)),
        TriMatrix(((1, 0), (0, 1))),
    )


def test_size_one_families():
    assert set(enumerate_family(FamilyTag.SELF_DUAL, 1)) == M_1
    assert set(enumerate_family(FamilyTag.SM, 1)) == SM_1
    assert set(enumerate_family(FamilyTag.B, 1)) == B_1
    assert enumerate_family(FamilyTag.FISHBURN, 1) == (TriMatrix(((1,),)),)
    assert enumerate_family(FamilyTag.RM, 1) == (TriMatrix(((1,),)),)


def test_listing_is_ascending_dim_then_lex():
    for family in FamilyTag:
        for n in range(1, 5):
            members = enumerate_family(family, n)
            keys = [(m.dim, m.rows) for m in members]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)


def test_members_satisfy_predicate_and_size():
    for family in FamilyTag:
        for n in range(1, 5):
            for m in enumerate_family(family, n):
                assert family_member(family, m)
                assert family_size(family, m) == n


def test_leading_counts():
    for n, expected in enumerate(FISHBURN_COUNTS, start=1):
        assert len(enumerate_family(FamilyTag.FISHBURN, n)) == expected
    for n, expected in enumerate(RM_COUNTS, start=1):
        assert len(enumerate_family(FamilyTag.RM, n)) == expected
        assert len(enumerate_family(FamilyTag.SELF_DUAL, n)) == 2 * expected
        assert len(enumerate_family(FamilyTag.B, n)) == 2 * expected
        assert len(enumerate_family(FamilyTag.SM, n)) == 2 * expected


def test_enumerate_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        enumerate_family(FamilyTag.RM, 0)
    # a family is a FamilyTag, not its value
    with pytest.raises(ValueError, match="unknown family 'rm'"):
        enumerate_family("rm", 2)
    with pytest.raises(ValueError, match="unknown family 'rm'"):
        count_refined("rm", 2)


def test_enumeration_is_deterministic():
    # bypass the cache so two independent walks are compared
    walk = enumerate_family.__wrapped__
    assert walk(FamilyTag.SELF_DUAL, 3) == walk(FamilyTag.SELF_DUAL, 3)
    assert walk(FamilyTag.SM, 3) == walk(FamilyTag.SM, 3)


# --- family dispatch helpers ---------------------------------------------------


def test_family_violation_dispatch():
    assert family_violation(FamilyTag.FISHBURN, A5) is None
    assert family_violation(FamilyTag.SELF_DUAL, A5) is None
    assert family_violation(FamilyTag.SM, A6) is None
    bad = TriMatrix(((0, 0), (0, 1)))
    assert family_violation(FamilyTag.RM, bad) == "row 1 zero"
    assert family_violation(FamilyTag.B, bad) is None
    assert family_violation(FamilyTag.SELF_DUAL, TriMatrix(((1, 1), (0, 0)))) \
        is not None


def test_family_size_dispatch():
    assert family_size(FamilyTag.FISHBURN, A5) == 9
    assert family_size(FamilyTag.SELF_DUAL, A5) == 5


# --- refinement keys --------------------------------------------------------------


def test_refinement_keys():
    assert refinement_key(FamilyTag.SELF_DUAL, A5) == (2, 1, Parity.ODD)
    assert refinement_key(FamilyTag.FISHBURN, A5) == (2, 1, Parity.ODD)
    assert refinement_key(FamilyTag.SM, A6) == (3, 1, Parity.ANY)
    assert refinement_key(FamilyTag.RM, TriMatrix(((1, 0), (0, 1)))) == \
        (1, 1, Parity.ANY)
    assert refinement_key(FamilyTag.B, TriMatrix(((0, 1), (0, 1)))) == \
        (2, 1, Parity.ANY)


# --- count tables -----------------------------------------------------------------


def test_count_table_totals():
    for family in FamilyTag:
        for n in range(1, 5):
            table = count_refined(family, n)
            assert table.total == len(enumerate_family(family, n))
            assert sum(table.cells.values()) == table.total


def test_count_csv_golden_bytes():
    assert count_refined(FamilyTag.RM, 2).to_csv() == \
        (GOLDEN / "count_rm_2.csv").read_text()
    assert count_refined(FamilyTag.SELF_DUAL, 2).to_csv() == \
        (GOLDEN / "count_self_dual_2.csv").read_text()


def test_count_json_golden_bytes():
    assert count_refined(FamilyTag.SELF_DUAL, 1).to_json() == \
        (GOLDEN / "count_self_dual_1.json").read_text()
    assert count_refined(FamilyTag.SM, 1).to_json() == \
        (GOLDEN / "count_sm_1.json").read_text()


def test_count_output_is_stable_across_calls():
    first = count_refined(FamilyTag.SELF_DUAL, 3).to_csv()
    second = count_refined(FamilyTag.SELF_DUAL, 3).to_csv()
    assert first == second


# --- identities --------------------------------------------------------------------


def test_all_identities_pass_small():
    for identity in ("eq1", "eq2", "eq3", "eq4", "eq8"):
        for n in range(1, 5):
            report = verify_identity(identity, n)
            assert report.passed, (identity, n, report.detail)
            assert report.counterexample is None


def test_identity_details_at_size_one():
    assert verify_identity("eq3", 1).detail == "2 = 2*1"
    assert verify_identity("eq4", 1).detail == "2 = 2*1"


def test_identity_rejects_bad_arguments():
    with pytest.raises(ValueError, match="unknown identity"):
        verify_identity("eq9", 2)
    with pytest.raises(ValueError):
        verify_identity("eq1", 0)


def test_parity_split_is_even():
    # within the reduced-size family, even and odd dimensions each carry
    # exactly the row-nonzero family's count, refined by first-row sum
    for n in range(1, 5):
        table = count_refined(FamilyTag.SELF_DUAL, n)
        even = {}
        odd = {}
        for (k, p, parity), count in table.cells.items():
            side = even if parity is Parity.EVEN else odd
            side[k] = side.get(k, 0) + count
        rm = {}
        for (k, _, _), count in count_refined(FamilyTag.RM, n).cells.items():
            rm[k] = rm.get(k, 0) + count
        assert even == odd == rm


# --- one pass per size ---------------------------------------------------------------


@pytest.fixture
def calls(monkeypatch):
    """Counts of chain, stats and SignedRowFishburn calls made after setup."""
    counts = dict.fromkeys(("chain", "stats", "signed"), 0)

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for family in FamilyTag:
        enumerate_family(family, 4)
    monkeypatch.setattr(enumeration, "selfdual_to_signed_rm",
                        counting("chain", enumeration.selfdual_to_signed_rm))
    monkeypatch.setattr(enumeration, "stats", counting("stats", enumeration.stats))
    monkeypatch.setattr(SignedRowFishburn, "__post_init__",
                        counting("signed", SignedRowFishburn.__post_init__))
    return counts


def test_one_pass_maps_each_member_once(calls):
    reports = verify_identities(IDENTITIES, 4)
    members = {family: len(enumerate_family(family, 4)) for family in FamilyTag}
    assert calls["chain"] == members[FamilyTag.SELF_DUAL]
    assert calls["stats"] <= (members[FamilyTag.SELF_DUAL] + members[FamilyTag.RM]
                              + members[FamilyTag.SM])
    assert reports == [verify_identity(identity, 4) for identity in IDENTITIES]


# (chain, stats, SignedRowFishburn) calls of each identity checked alone at
# n = 4 when every identity was checked from scratch
ALONE_AT_4 = {
    "eq1": (61, 183, 122),
    "eq2": (61, 183, 122),
    "eq3": (122, 0, 244),
    "eq4": (0, 0, 244),
    "eq8": (0, 305, 61),
}


@pytest.mark.parametrize("identity", IDENTITIES)
def test_identity_alone_does_no_extra_work(calls, identity):
    assert verify_identity(identity, 4).passed
    made = (calls["chain"], calls["stats"], calls["signed"])
    assert all(now <= before for now, before in zip(made, ALONE_AT_4[identity]))

# --- injected faults ---------------------------------------------------------------
# Each test breaks one map where the checker looks it up and asserts that the
# identity built on that map fails with a witness.

_chain = enumeration.selfdual_to_signed_rm


def _flipped_chain(m, want_trace=False):
    signed = _chain(m)
    return SignedRowFishburn(signed.matrix, 1 - signed.flag)


@pytest.mark.parametrize("identity", ["eq1", "eq2"])
def test_flipped_chain_flag_fails_slice_identity(monkeypatch, identity):
    monkeypatch.setattr(enumeration, "selfdual_to_signed_rm", _flipped_chain)
    report = verify_identity(identity, 3)
    assert report.passed is False
    # eq1 slices the zero diagonal-cell sums, eq2 the positive ones
    first = next(m for m in enumerate_family(FamilyTag.SELF_DUAL, 3)
                 if (stats(m).diag_sum >= 1) == (identity == "eq2"))
    assert report.counterexample == first


def test_flipped_chain_flag_still_passes_eq3(monkeypatch):
    # a global flag flip is a bijection onto rm x {0, 1}
    monkeypatch.setattr(enumeration, "selfdual_to_signed_rm", _flipped_chain)
    assert verify_identity("eq3", 3).passed


def test_merging_chain_fails_eq3(monkeypatch):
    members = enumerate_family(FamilyTag.SELF_DUAL, 3)

    def merging(m, want_trace=False):
        return _chain(members[0] if m == members[1] else m)

    monkeypatch.setattr(enumeration, "selfdual_to_signed_rm", merging)
    report = verify_identity("eq3", 3)
    assert report.passed is False
    assert report.counterexample == members[1]


def test_swapping_chain_fails_eq2_transport(monkeypatch):
    # still a bijection onto rm x {0}, but two images trade refined classes
    positive = [m for m in enumerate_family(FamilyTag.SELF_DUAL, 3)
                if stats(m).diag_sum >= 1]
    first = positive[0]
    other = next(m for m in positive
                 if stats(m).first_row_sum != stats(first).first_row_sum)
    swap = {first: other, other: first}

    def swapping(m, want_trace=False):
        return _chain(swap.get(m, m))

    monkeypatch.setattr(enumeration, "selfdual_to_signed_rm", swapping)
    report = verify_identity("eq2", 3)
    assert report.passed is False
    assert report.counterexample == first


def test_flag_blind_embedding_fails_eq4(monkeypatch):
    embed = enumeration.embed_rm_in_b
    monkeypatch.setattr(enumeration, "embed_rm_in_b", lambda a, flag: embed(a, 0))
    report = verify_identity("eq4", 3)
    assert report.passed is False
    assert report.counterexample == enumerate_family(FamilyTag.RM, 3)[0]


def test_flag_flipping_projection_fails_eq4(monkeypatch):
    project = enumeration.project_b_to_signed_rm

    def flipped(m):
        signed = project(m)
        return SignedRowFishburn(signed.matrix, 1 - signed.flag)

    monkeypatch.setattr(enumeration, "project_b_to_signed_rm", flipped)
    report = verify_identity("eq4", 3)
    assert report.passed is False
    assert report.counterexample == enumerate_family(FamilyTag.RM, 3)[0]


def test_short_family_fails_count_tables(monkeypatch):
    # a count mismatch has no single member to blame
    walk = enumeration.enumerate_family

    def short(family, n):
        members = walk(family, n)
        return members[:-1] if family is FamilyTag.RM else members

    monkeypatch.setattr(enumeration, "enumerate_family", short)
    report = verify_identity("eq3", 3)
    assert report.passed is False
    assert report.counterexample is None


def test_unreached_target_fails_eq8(monkeypatch):
    # a zero-center stranger in sm that no even member maps to; the count
    # tables compare even, odd and rm, so only the leg can notice it
    stranger = TriMatrix(((0, 0, 3), (0, 0, 0), (0, 0, 0)))
    walk = enumeration.enumerate_family

    def padded(family, n):
        members = walk(family, n)
        return members + (stranger,) if family is FamilyTag.SM else members

    monkeypatch.setattr(enumeration, "enumerate_family", padded)
    report = verify_identity("eq8", 3)
    assert report.passed is False
    assert "misses" in report.detail


def test_constant_parity_embedding_fails_eq8(monkeypatch):
    # the constant image carries a first-row sum the first even member lacks
    even = [m for m in enumerate_family(FamilyTag.SELF_DUAL, 3) if m.dim % 2 == 0]
    other = next(m for m in even if m.row_sum(1) != even[0].row_sum(1))
    image = enumeration.em_to_sm(other)
    monkeypatch.setattr(enumeration, "em_to_sm", lambda m: image)
    report = verify_identity("eq8", 3)
    assert report.passed is False
    assert report.counterexample == even[0]


def test_flipped_chain_in_one_pass_matches_single_checks(monkeypatch):
    monkeypatch.setattr(enumeration, "selfdual_to_signed_rm", _flipped_chain)
    reports = verify_identities(("eq1", "eq2", "eq3"), 3)
    assert [report.passed for report in reports] == [False, False, True]
    assert reports == [verify_identity(identity, 3) for identity in ("eq1", "eq2", "eq3")]
