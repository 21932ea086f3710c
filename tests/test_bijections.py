"""The fold, relocation, embedding, and parity maps, against hand-checked
vectors, exhaustive small-size roundtrips, and generated members."""

import hashlib

import pytest
from hypothesis import given

from fishburn import (
    DegenerateMatrix,
    FamilyTag,
    MatrixConditionError,
    NotBMember,
    NotExpandable,
    NotFishburn,
    NotRowFishburn,
    NotSelfDual,
    NotSMMember,
    OddDimension,
    SignedRowFishburn,
    TriMatrix,
    alpha,
    alpha_inv,
    beta,
    beta_inv,
    em_to_sm,
    embed_rm_in_b,
    enumerate_family,
    family_member,
    format_matrix,
    project_b_to_signed_rm,
    reduced_size,
    selfdual_to_signed_rm,
    sm_to_em,
    stats,
)
from fishburn import bijections, matrices
from fishburn.matrices import sm_violation, super_triangular_violation
from matrix_strategies import (
    b_members,
    row_fishburn_matrices,
    self_dual_fishburn_matrices,
    sm_members,
)
from oracles import cell_sum_stats
from vectors import (
    A5,
    A6,
    A6_BLOCK,
    A6_IMAGE,
    A6_STEP1,
    A6_STEP2,
    ALPHA_EM2_FULL,
    CHAIN_A5,
    EM2_DIAG,
    EM2_FULL,
    EM_TO_SM_DIAG,
    EM_TO_SM_FULL,
    EMBED_FULL_FLAG1,
    R5,
    S5,
    S5_IMAGE,
)

ZERO_1 = TriMatrix(((0,),))

# --- fold map -------------------------------------------------------------------


def test_alpha_golden():
    assert alpha(A5) == S5


def test_alpha_golden_trace():
    out, trace = alpha(A5, want_trace=True)
    assert out == S5
    assert trace.steps == (("A(0)", A5), ("A(1)", R5), ("S", S5))


def test_alpha_even_dimension_inserts_center():
    out, trace = alpha(EM2_FULL, want_trace=True)
    assert out == ALPHA_EM2_FULL
    labels = [label for label, _ in trace.steps]
    assert labels == ["A(0)", "A(1)", "A(2)", "S"]
    assert trace.steps[2][1].dim == 3


def test_alpha_rejects_bad_input():
    with pytest.raises(NotSelfDual):
        alpha(TriMatrix(((1, 1), (0, 0))))
    with pytest.raises(NotFishburn):
        alpha(TriMatrix(((0, 0), (0, 0))))


def test_alpha_inv_golden():
    assert alpha_inv(S5) == A5
    out, trace = alpha_inv(S5, want_trace=True)
    assert out == A5
    assert trace.steps[0] == ("A(0)", S5)
    assert trace.steps[-1] == ("M", A5)


def test_alpha_inv_rejects_non_member():
    with pytest.raises(NotSMMember):
        alpha_inv(TriMatrix(((1, 0), (0, 1))))


def test_alpha_inv_rejects_the_zero_sm_member():
    # the 1 x 1 zero matrix is an sm member with no preimage: its swapped
    # rows are zero-SE but do not expand
    assert sm_violation(ZERO_1) is None
    with pytest.raises(NotExpandable) as err:
        alpha_inv(ZERO_1)
    assert str(err.value) == "column 1 zero"


def test_alpha_roundtrip_exhaustive_small():
    for n in range(1, 4):
        for m in enumerate_family(FamilyTag.SELF_DUAL, n):
            image = alpha(m)
            assert family_member(FamilyTag.SM, image)
            assert image.size() == n
            assert alpha_inv(image) == m
        for s in enumerate_family(FamilyTag.SM, n):
            assert alpha(alpha_inv(s)) == s


def test_alpha_statistic_transport_exhaustive_small():
    for n in range(1, 4):
        for m in enumerate_family(FamilyTag.SELF_DUAL, n):
            before = stats(m)
            after = stats(alpha(m))
            assert after.first_row_sum == before.first_row_sum
            assert after.center_col_sum == before.diag_sum


@given(self_dual_fishburn_matrices())
def test_alpha_roundtrip_generated(m):
    image = alpha(m)
    assert family_member(FamilyTag.SM, image)
    assert image.size() == reduced_size(m)
    assert alpha_inv(image) == m


@given(sm_members())
def test_alpha_inv_roundtrip_generated(s):
    assert alpha(alpha_inv(s)) == s


# --- relocation map ------------------------------------------------------------


def test_beta_golden_trace():
    out, trace = beta(A6, want_trace=True)
    assert out == A6_IMAGE
    assert trace.steps == (
        ("A(0)", A6),
        ("A(1)", A6_STEP1),
        ("A(2)", A6_STEP2),
        ("B", A6_BLOCK),
        ("A'", A6_IMAGE),
    )


def test_beta_second_golden():
    assert beta(S5) == S5_IMAGE


def test_beta_intermediates_stay_in_shape():
    _, trace = beta(A6, want_trace=True)
    for label, snapshot in trace.steps:
        if label.startswith("A("):
            assert snapshot.dim % 2 == 1
            assert super_triangular_violation(snapshot) is None
            assert snapshot.size() == A6.size()


def test_beta_inv_golden_trace():
    out, trace = beta_inv(A6_IMAGE, want_trace=True)
    assert out == A6
    assert trace.steps == (
        ("A(0)", A6_IMAGE),
        ("A(1)", A6_STEP2),
        ("A(2)", A6_STEP1),
        ("A(3)", A6),
    )


# SHA-256 over every traced step of beta on each sm member of size 1..5 and of
# beta_inv on each b member of size 1..5, in enumeration order
_TRACE_DIGESTS = {
    "beta": "dca9c55ac74063d2b2ffe18ddbb472bcdfc70c666063cb40522021b01f742651",
    "beta_inv": "452f331d0bc1ef478f371990d5632043683d89bcd9c125aa99eaa49121bbbf6f",
}


def _trace_digest(fn, family):
    h = hashlib.sha256()
    for n in range(1, 6):
        for m in enumerate_family(family, n):
            _, trace = fn(m, want_trace=True)
            for label, snapshot in trace.steps:
                h.update(f"{label}\n{format_matrix(snapshot)}".encode())
            h.update(b"--\n")
    return h.hexdigest()


def test_relocation_traces_pinned_up_to_size_5():
    assert _trace_digest(beta, FamilyTag.SM) == _TRACE_DIGESTS["beta"]
    assert _trace_digest(beta_inv, FamilyTag.B) == _TRACE_DIGESTS["beta_inv"]


# SHA-256 over every traced step of alpha on each self_dual member of size 1..5
# and of alpha_inv on each sm member of size 1..5, in enumeration order
_FOLD_TRACE_DIGESTS = {
    "alpha": "b9372966384450b3dd4cd2390629622bbb29127b84e0fbcd70e3150752f1bc56",
    "alpha_inv": "aee955f9393fd63acb42bb3523c98559bd4cdd462bcc8531c3cb9a53e355a46c",
}


def test_fold_traces_pinned_up_to_size_5():
    assert _trace_digest(alpha, FamilyTag.SELF_DUAL) == _FOLD_TRACE_DIGESTS["alpha"]
    assert _trace_digest(alpha_inv, FamilyTag.SM) == _FOLD_TRACE_DIGESTS["alpha_inv"]


def test_beta_rejects_bad_input():
    with pytest.raises(NotSMMember):
        beta(TriMatrix(((1, 0), (0, 1))))
    with pytest.raises(DegenerateMatrix):
        beta(ZERO_1)


def test_beta_inv_rejects_bad_input():
    with pytest.raises(NotBMember):
        beta_inv(TriMatrix(((1, 0), (0, 0))))
    with pytest.raises(DegenerateMatrix):
        beta_inv(ZERO_1)


def test_beta_roundtrip_exhaustive_small():
    for n in range(1, 4):
        for s in enumerate_family(FamilyTag.SM, n):
            image = beta(s)
            assert image.size() == n
            assert beta_inv(image) == s
        for b in enumerate_family(FamilyTag.B, n):
            assert beta(beta_inv(b)) == b


def test_beta_statistic_transport_exhaustive_small():
    for n in range(1, 4):
        for s in enumerate_family(FamilyTag.SM, n):
            before = stats(s)
            after = stats(beta(s))
            assert after.last_col_sum == before.first_row_sum
            assert after.first_row_sum == before.center_col_sum


@given(sm_members())
def test_beta_roundtrip_generated(s):
    if s.size() == 0:
        return
    assert beta_inv(beta(s)) == s


@given(b_members(max_dim=9))
def test_beta_inv_roundtrip_generated(b):
    # inverse first: runs of zero rows in the dual are read back past the
    # exhaustive sizes
    if b.size() == 0:
        return
    s = beta_inv(b)
    assert family_member(FamilyTag.SM, s)
    assert beta(s) == b


# --- embedding pair ---------------------------------------------------------------


def test_embed_golden():
    inner = TriMatrix(((1, 1), (0, 1)))
    assert embed_rm_in_b(inner, 0) == inner
    assert embed_rm_in_b(inner, 1) == EMBED_FULL_FLAG1


def test_embed_rejects_bad_input():
    # a bool or float equal to 0 or 1 is rejected too, as in a cell
    for flag in (2, True, False, 1.0, 0.0):
        with pytest.raises(ValueError, match="add_zero_first must be 0 or 1"):
            embed_rm_in_b(TriMatrix(((1,),)), flag)
    with pytest.raises(NotRowFishburn):
        embed_rm_in_b(TriMatrix(((1, 0), (0, 0))), 0)


def test_project_golden():
    signed = project_b_to_signed_rm(EMBED_FULL_FLAG1)
    assert signed == SignedRowFishburn(TriMatrix(((1, 1), (0, 1))), 1)
    kept = TriMatrix(((1, 0), (0, 1)))
    assert project_b_to_signed_rm(kept) == SignedRowFishburn(kept, 0)


def test_project_rejects_bad_input():
    with pytest.raises(NotBMember):
        project_b_to_signed_rm(TriMatrix(((1, 0), (0, 0))))
    with pytest.raises(DegenerateMatrix):
        project_b_to_signed_rm(ZERO_1)


def test_embed_project_exhaustive_small():
    for n in range(1, 4):
        b_set = set(enumerate_family(FamilyTag.B, n))
        seen = set()
        for a in enumerate_family(FamilyTag.RM, n):
            for flag in (0, 1):
                image = embed_rm_in_b(a, flag)
                assert image in b_set
                assert image not in seen
                seen.add(image)
                assert project_b_to_signed_rm(image) == SignedRowFishburn(a, flag)
        assert seen == b_set


@given(row_fishburn_matrices())
def test_embed_project_generated(a):
    for flag in (0, 1):
        assert project_b_to_signed_rm(embed_rm_in_b(a, flag)) == \
            SignedRowFishburn(a, flag)


@given(b_members())
def test_project_embed_generated(b):
    if b.size() == 0:
        return
    signed = project_b_to_signed_rm(b)
    assert embed_rm_in_b(signed.matrix, signed.flag) == b


def test_signed_row_fishburn_validates():
    for flag in (2, True, False, 1.0, 0.0):
        with pytest.raises(ValueError, match="flag must be 0 or 1"):
            SignedRowFishburn(TriMatrix(((1,),)), flag)
    with pytest.raises(NotRowFishburn):
        SignedRowFishburn(TriMatrix(((1, 0), (0, 0))), 0)


# --- full chain --------------------------------------------------------------------


def test_chain_golden():
    signed, trace = selfdual_to_signed_rm(A5, want_trace=True)
    assert (signed.matrix, signed.flag) == CHAIN_A5
    assert [label for label, _ in trace.steps] == ["A(0)", "alpha", "beta", "R"]
    assert trace.steps[1][1] == S5
    assert trace.steps[2][1] == S5_IMAGE


def test_chain_exhaustive_small():
    for n in range(1, 4):
        rm_set = set(enumerate_family(FamilyTag.RM, n))
        images = set()
        for m in enumerate_family(FamilyTag.SELF_DUAL, n):
            signed = selfdual_to_signed_rm(m)
            assert signed.matrix in rm_set
            pair = (signed.matrix, signed.flag)
            assert pair not in images
            images.add(pair)
        assert images == {(a, f) for a in rm_set for f in (0, 1)}


def test_chain_checks_its_input_once(monkeypatch):
    # alpha's check at the chain's entry settles membership; beta and the
    # projection inside the chain run unchecked
    members = [m for n in range(1, 5) for m in enumerate_family(FamilyTag.SELF_DUAL, n)]
    calls = dict.fromkeys(("selfdual", "fishburn", "sm", "b"), 0)
    for name in calls:
        violation = getattr(bijections, f"{name}_violation")

        def counting(m, name=name, violation=violation):
            calls[name] += 1
            return violation(m)

        monkeypatch.setattr(bijections, f"{name}_violation", counting)
    for m in members:
        selfdual_to_signed_rm(m)
    assert calls == {"selfdual": len(members), "fishburn": len(members), "sm": 0, "b": 0}


# --- parity embedding ----------------------------------------------------------------


def test_em_to_sm_golden():
    assert em_to_sm(EM2_FULL) == EM_TO_SM_FULL
    assert em_to_sm(EM2_DIAG) == EM_TO_SM_DIAG


def test_em_to_sm_rejects_bad_input():
    with pytest.raises(OddDimension):
        em_to_sm(TriMatrix(((1,),)))
    with pytest.raises(NotSelfDual):
        em_to_sm(TriMatrix(((1, 1), (0, 0))))
    with pytest.raises(NotFishburn):
        em_to_sm(TriMatrix(((0, 0), (0, 0))))


def test_sm_to_em_golden():
    assert sm_to_em(EM_TO_SM_FULL) == EM2_FULL
    assert sm_to_em(EM_TO_SM_DIAG) == EM2_DIAG


def test_sm_to_em_rejects_bad_input():
    with pytest.raises(NotSMMember):
        sm_to_em(TriMatrix(((1, 0), (0, 1))))
    with pytest.raises(MatrixConditionError, match="no even-dimension preimage"):
        sm_to_em(TriMatrix(((1,),)))
    with pytest.raises(MatrixConditionError, match="nonzero"):
        sm_to_em(S5)


def test_parity_embedding_exhaustive_small():
    for n in range(1, 4):
        for m in enumerate_family(FamilyTag.SELF_DUAL, n):
            if m.dim % 2:
                continue
            image = em_to_sm(m)
            assert family_member(FamilyTag.SM, image)
            assert stats(image).center_col_sum == 0
            assert stats(image).first_row_sum == stats(m).first_row_sum
            assert image.size() == n
            assert sm_to_em(image) == m


# --- row bodies -------------------------------------------------------------
# The verify pass calls each map's unchecked body on row tuples, most of them
# through layouts compiled per shape from the bodies, and so do ``alpha``,
# ``alpha_inv``, ``beta``, the chain and ``em_to_sm`` without a trace; a
# trace runs the bodies directly.  Each compiled form must give exactly the
# rows (and flag) of its direct body, and of the last snapshot of its trace,
# on every member the pass sees and on larger generated ones, and the
# compiled ``stats`` the sums of its cell helpers.


def _pair(signed):
    return signed.matrix.rows, signed.flag


def _direct_chain(rows):
    folded = bijections._fold(rows)
    return bijections._project(bijections._relocate(folded, bijections._moved(folded)))


def _check_compiled_fold(m):
    image = alpha(m)
    assert image.rows == bijections._fold(m.rows)
    assert alpha(m, want_trace=True)[1].steps[-1] == ("S", image)


def _check_compiled_chain(m):
    signed = selfdual_to_signed_rm(m)
    assert _pair(signed) == bijections._chain(m.rows) == _direct_chain(m.rows)
    traced, trace = selfdual_to_signed_rm(m, want_trace=True)
    assert traced == signed
    assert trace.steps[-1] == ("R", signed.matrix)


def _check_compiled_parity_embedding(m):
    image = em_to_sm(m)
    assert image.rows == bijections._embed_even(m.rows) == bijections._pad_center(m.rows)


def _check_compiled_relocation(s):
    image = beta(s)
    assert image.rows == bijections._beta(s.rows) == (
        bijections._relocate(s.rows, bijections._moved(s.rows)))
    assert beta(s, want_trace=True)[1].steps[-1] == ("A'", image)


def _check_compiled_unfold(s):
    # the direct bodies decide the drop from the swapped rows, as the
    # trace does; the compiled path decides it from the input's cells
    image = alpha_inv(s)
    assert image == alpha_inv(s, want_trace=True)[0]
    swapped = bijections._swap_center(s.rows)
    k = s.dim // 2
    if k >= 1 and not any(row[k] for row in swapped) and not any(swapped[k]):
        swapped = bijections._drop_line(swapped, k)
    assert image.rows == matrices._expand_rows(swapped)


def test_row_bodies_match_public_maps_up_to_size_6():
    for n in range(1, 7):
        for m in enumerate_family(FamilyTag.SELF_DUAL, n):
            _check_compiled_fold(m)
            # the moved columns, read from the input's cells
            assert bijections._fold_moved(m.dim, matrices._flat(m.rows)) == (
                bijections._moved(bijections._fold(m.rows)))
            _check_compiled_chain(m)
            if m.dim % 2 == 0:
                _check_compiled_parity_embedding(m)
        for s in enumerate_family(FamilyTag.SM, n):
            _check_compiled_relocation(s)
            _check_compiled_unfold(s)
            image = beta(s)
            assert bijections._project(image.rows) == _pair(project_b_to_signed_rm(image))
        for a in enumerate_family(FamilyTag.RM, n):
            for flag in (0, 1):
                image = embed_rm_in_b(a, flag)
                assert bijections._embed(a.rows, flag) == image.rows
                assert bijections._project(image.rows) == _pair(project_b_to_signed_rm(image))
        for b in enumerate_family(FamilyTag.B, n):
            assert bijections._project(b.rows) == _pair(project_b_to_signed_rm(b))


def test_stats_match_cell_by_cell_sums_up_to_size_6():
    for n in range(1, 7):
        for family in (FamilyTag.SELF_DUAL, FamilyTag.RM, FamilyTag.SM):
            for m in enumerate_family(family, n):
                assert stats(m) == cell_sum_stats(m)


@given(sm_members(max_dim=12))
def test_compiled_relocation_matches_beta_generated(s):
    # members larger than the sweep's reach some (dimension, moved columns)
    # shapes that no member at n <= 6 has; ``alpha_inv``'s layouts are
    # checked on the same members
    _check_compiled_relocation(s)
    _check_compiled_unfold(s)
    assert stats(s) == cell_sum_stats(s)


@given(self_dual_fishburn_matrices(max_dim=12, max_entry=3))
def test_compiled_fold_chain_and_parity_embedding_match_bodies_generated(m):
    _check_compiled_fold(m)
    _check_compiled_chain(m)
    if m.dim % 2 == 0:
        _check_compiled_parity_embedding(m)
