"""Acceptance gate: one test per shipped claim, each printing a single
verdict line.  Run with -v to get one PASSED/FAILED row per criterion."""

import contextlib
import time

from fishburn import (
    FamilyTag,
    SignedRowFishburn,
    alpha,
    alpha_inv,
    beta,
    beta_inv,
    canonical_form,
    count_refined,
    dual_poset,
    embed_rm_in_b,
    enumerate_family,
    family_member,
    fishburn_to_poset,
    is_self_dual_poset,
    poset_to_fishburn,
    project_b_to_signed_rm,
    stats,
)
from fishburn.enumeration import IDENTITIES, verify_identities
from fishburn.matrices import selfdual_violation
from oracles import (
    all_posets,
    brute_canonical,
    brute_family,
    brute_self_dual_full,
    brute_self_dual_mirrored,
    no_two_plus_two,
    upper_matrices,
)
from vectors import (
    A5,
    A6,
    A6_BLOCK,
    A6_IMAGE,
    A6_STEP1,
    A6_STEP2,
    INTERVAL_ORDER_COUNTS,
    S5,
)


@contextlib.contextmanager
def verdict(number, label):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS")


def test_criterion_1_fold_golden_example():
    with verdict(1, "fold golden example"):
        assert alpha(A5) == S5
        assert alpha_inv(S5) == A5


def test_criterion_2_relocation_golden_trace():
    with verdict(2, "relocation golden trace"):
        image, trace = beta(A6, want_trace=True)
        assert trace.steps == (
            ("A(0)", A6),
            ("A(1)", A6_STEP1),
            ("A(2)", A6_STEP2),
            ("B", A6_BLOCK),
            ("A'", A6_IMAGE),
        )
        assert A6_STEP1.dim == 7 and A6_STEP2.dim == 9
        assert image == A6_IMAGE
        assert beta_inv(A6_IMAGE) == A6


def test_criterion_3_exhaustive_roundtrips_to_size_6():
    with verdict(3, "exhaustive roundtrips, sizes 1..6"):
        started = time.monotonic()
        for n in range(1, 7):
            for m in enumerate_family(FamilyTag.SELF_DUAL, n):
                assert alpha_inv(alpha(m)) == m
            for s in enumerate_family(FamilyTag.SM, n):
                assert beta_inv(beta(s)) == s
            b_set = set(enumerate_family(FamilyTag.B, n))
            for b in b_set:
                assert beta(beta_inv(b)) == b
            seen = set()
            for a in enumerate_family(FamilyTag.RM, n):
                for flag in (0, 1):
                    image = embed_rm_in_b(a, flag)
                    assert project_b_to_signed_rm(image) == \
                        SignedRowFishburn(a, flag)
                    seen.add(image)
            assert seen == b_set
        assert time.monotonic() - started < 300


def test_criterion_4_doubling_counts_to_size_6():
    with verdict(4, "doubling counts, sizes 1..6"):
        assert len(enumerate_family(FamilyTag.SELF_DUAL, 1)) == 2
        assert len(enumerate_family(FamilyTag.RM, 1)) == 1
        assert len(enumerate_family(FamilyTag.SELF_DUAL, 2)) == 6
        assert len(enumerate_family(FamilyTag.RM, 2)) == 3
        for n in range(1, 7):
            assert len(enumerate_family(FamilyTag.SELF_DUAL, n)) == \
                2 * len(enumerate_family(FamilyTag.RM, n))


def test_criterion_5_refined_identities_to_size_6():
    with verdict(5, "refined identities, sizes 1..6"):
        # the entry point of `fishburn verify`: one pass per size
        for n in range(1, 7):
            for report in verify_identities(IDENTITIES, n):
                assert report.passed, (report.identity, n, report.detail)


def test_criterion_6_statistic_transport_to_size_6():
    with verdict(6, "statistic transport, sizes 1..6"):
        for n in range(1, 7):
            for m in enumerate_family(FamilyTag.SELF_DUAL, n):
                before, after = stats(m), stats(alpha(m))
                assert after.first_row_sum == before.first_row_sum
                assert after.center_col_sum == before.diag_sum
            for s in enumerate_family(FamilyTag.SM, n):
                before, after = stats(s), stats(beta(s))
                assert after.last_col_sum == before.first_row_sum
                assert after.first_row_sum == before.center_col_sum


def test_criterion_7_poset_leg_to_size_5():
    with verdict(7, "interval-order leg, sizes 1..5"):
        for n in range(1, 6):
            matrices = enumerate_family(FamilyTag.FISHBURN, n)
            assert len(matrices) == INTERVAL_ORDER_COUNTS[n - 1]
            for m in matrices:
                p = fishburn_to_poset(m)
                assert poset_to_fishburn(p) == m
                self_dual = is_self_dual_poset(p)
                assert self_dual == (selfdual_violation(m) is None)
                assert self_dual == (canonical_form(p) == canonical_form(dual_poset(p)))
        # independent cross-check: enumerate every poset and count the
        # isomorphism classes of the interval orders among them
        for n in range(1, 5):
            classes = {brute_canonical(p)
                       for p in all_posets(n) if no_two_plus_two(p)}
            assert len(classes) == INTERVAL_ORDER_COUNTS[n - 1]


def test_criterion_8_generators_match_brute_force():
    with verdict(8, "generators equal brute-force scans, sizes 1..4"):
        for n in range(1, 5):
            assert set(enumerate_family(FamilyTag.FISHBURN, n)) == \
                brute_family(FamilyTag.FISHBURN, n, n)
            assert set(enumerate_family(FamilyTag.RM, n)) == \
                brute_family(FamilyTag.RM, n, n)
            assert set(enumerate_family(FamilyTag.B, n)) == \
                brute_family(FamilyTag.B, n, n + 1)
        # the odd-dimension family: even dimensions fail membership by
        # definition, so the scan walks odd dimensions up to the bound
        for n in range(1, 5):
            found = set()
            for dim in range(1, 2 * n + 2, 2):
                for m in upper_matrices(dim, n):
                    if family_member(FamilyTag.SM, m):
                        found.add(m)
            assert set(enumerate_family(FamilyTag.SM, n)) == found
        # the reduced-size family: unrestricted scan through size 3, free
        # NW plus diagonal parameterization at size 4
        for n in range(1, 4):
            assert set(enumerate_family(FamilyTag.SELF_DUAL, n)) == \
                brute_self_dual_full(n, 2 * n)
        assert set(enumerate_family(FamilyTag.SELF_DUAL, 4)) == \
            brute_self_dual_mirrored(4, 8)
        # nothing lives beyond the dimension bounds at small sizes
        for n in range(1, 3):
            for dim in (n + 1, n + 2):
                assert not brute_family(FamilyTag.FISHBURN, n, dim) - \
                    brute_family(FamilyTag.FISHBURN, n, n)
                assert not brute_family(FamilyTag.RM, n, dim) - \
                    brute_family(FamilyTag.RM, n, n)
            assert brute_family(FamilyTag.B, n, n + 3) == \
                brute_family(FamilyTag.B, n, n + 1)
            assert brute_family(FamilyTag.SM, n, 2 * n + 3) == \
                brute_family(FamilyTag.SM, n, 2 * n + 1)
            assert brute_self_dual_full(n, 2 * n + 2) == \
                brute_self_dual_full(n, 2 * n)
        # identical flags give identical bytes
        walk = enumerate_family.__wrapped__
        assert walk(FamilyTag.SELF_DUAL, 3) == walk(FamilyTag.SELF_DUAL, 3)
        assert count_refined(FamilyTag.SM, 3).to_csv() == \
            count_refined(FamilyTag.SM, 3).to_csv()
