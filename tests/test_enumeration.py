"""Family enumeration order and completeness, refined count tables, and the
five counting identities."""

import hashlib
import pathlib
from collections import Counter

import pytest

from fishburn import (
    IDENTITIES,
    FamilyTag,
    Parity,
    SignedRowFishburn,
    TriMatrix,
    alpha,
    alpha_inv,
    beta,
    beta_inv,
    count_refined,
    dual,
    em_to_sm,
    embed_rm_in_b,
    enumerate_family,
    family_member,
    family_size,
    family_violation,
    format_matrix,
    parse_matrix,
    project_b_to_signed_rm,
    refinement_key,
    selfdual_to_signed_rm,
    stats,
    verify_identity,
)
from fishburn import bijections, enumeration, matrices
from fishburn.enumeration import verify_identities
from oracles import cell_sum_key, fishburn_series, row_fishburn_series
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


@pytest.mark.parametrize("n", [True, False, 2.0, 0, -1, "2"])
def test_sized_entry_points_reject_a_size_that_is_no_positive_int(n):
    # True equals 1 and 2.0 equals 2, yet neither is a size.  The cache of
    # enumerate_family is typed, so a cached n = 1 does not answer n = True
    enumerate_family(FamilyTag.RM, 1)
    message = f"n must be an integer of at least 1, not {n!r}"
    for family in (FamilyTag.RM, FamilyTag.SELF_DUAL):
        for call in (enumerate_family, count_refined):
            with pytest.raises(ValueError) as caught:
                call(family, n)
            assert str(caught.value) == message
    with pytest.raises(ValueError) as caught:
        verify_identities(IDENTITIES, n)
    assert str(caught.value) == message


# SHA-256 of repr([m.rows for m in members]) and of count_refined(...).to_json()
# for every family and n = 1..7: n <= 6 recorded from the recursive walk,
# n = 7 from the frame-stack walk, each before the walk that replaced it;
# any change to the emission order or to a count table changes a digest
_WALK_DIGESTS = {
    ("fishburn", 1): ("f2cb19bf566e9bf781b8e71a38981c8a1bb826bcc238e08031749d5b9c42af51",
                      "e33b9a88c97873b85a0e30bf887109f1dee0b74e176f1130dc68d282772f7993"),
    ("fishburn", 2): ("7c11abd38d3a892cfb24be3eda0018caee4b982fff45cfa6eb86810093fa34c8",
                      "fb1b46f09f7ba116b83e64d899f311d9508d266cb4ed5971ec93a98faeebbf3d"),
    ("fishburn", 3): ("b243516542f2f564a44f5b53fa42dec2f439f59d0a09d8a82b83d4bfdd5f3596",
                      "cb3a26fecb6cabaca131403265c492e40a5f774b5765afa7b80b2883c61aad68"),
    ("fishburn", 4): ("50fef426e06f6cf7cd0ad6026b6cba260ac19644c1e5e4555cbc0ad359b21576",
                      "30dc2d7481bd7e56f1b1e1dac2514a94d2870d03348da225d901028ea70390db"),
    ("fishburn", 5): ("262a1c904dcedcdd17288a5b0b92495fbcaa4968d20e371438b9cc75a60abfa7",
                      "cb8deeb40b0317e6d56d824f0dad14ece86232960078760e8928079f70f3137a"),
    ("fishburn", 6): ("dd94d6c71f18e583e7e73581914161a9ba972acb1f90daab615c61a235c2ced8",
                      "7cffcfd5805d1e6341bd52438d2dd0427091b2894e53e50ac8b44d64babeb219"),
    ("fishburn", 7): ("ad6fcf322f5c1c03544006136ccd6c37402c8e10dd86e40c6e82ac425d3c6bf0",
                      "4f6cb9c7178ece77f168ab7eaf8f1ccd723359659b939f64b1a181911594c5c0"),
    ("self_dual", 1): ("de9cd646d9058fa1663c6c5bc94f26f9c8bdf681abd1937055ee45541bb3c340",
                       "59de618aeafddee451f98ebf33700ecbd5e676ebede029dee94d485fbae530c1"),
    ("self_dual", 2): ("3935c7d33749431a1baf88f1caa24e4161435fa1ccb31b3cf654bd3b53614060",
                       "b56bfc2dca6ecc00673e9f527da3e5470e195e37e995aa101d4ed4563cfd41f6"),
    ("self_dual", 3): ("58c6eed7845d817e0994b670bc1b08ac870d858e6de7e7f88de3202ad0d31aa9",
                       "4f3d25f7ab8dcdc3521cbde347824759ba2e4c7a4a8302e82b1f541e1dffcdd0"),
    ("self_dual", 4): ("db186170d2e63cae5c3429643985b1e85b443397e8021aacecd1ef6ba96869b3",
                       "9b9d5d674681683a8e7f1e3969a7df1e994a83d623ac4de719cb1556d51c1da0"),
    ("self_dual", 5): ("46a71a785b21d4efd72871ccb53a4a65106d1a01a9f45c3d70d1fb857d69f448",
                       "437a0fb5127c61acea31ae553ce7798bd95cee5af4a1aa5287f6a6824fc8a1e9"),
    ("self_dual", 6): ("8b7eb57bde467529955e3cd1ce26b8f8cc7523b61701ca75fda87903029b751d",
                       "4e6e3ef44076e4a8b4e4b8a3b7010b2c98a4efa96a364a380e796d35b12bc121"),
    ("self_dual", 7): ("e6d8aa60d01910334e9bf84a340c9a58d69a97cfe2a18a2bb0c1e142d6c10a4b",
                       "ecf677ed9aadc78942ba03db4c5d25e0d8118a501eedd815194857e73aa0d667"),
    ("rm", 1): ("f2cb19bf566e9bf781b8e71a38981c8a1bb826bcc238e08031749d5b9c42af51",
                "82c4877f1439268f5f90bc07b907c2e16de82d16913dfbb21772dde22aa0daf4"),
    ("rm", 2): ("ef9ee4e0317531b37282c9bd2d9840e174b23f731463b1d76686137181383a31",
                "058a921ab08810278650b65174d2824c1c0a136d30f170857639f707c5d5b983"),
    ("rm", 3): ("69acff2b9982a3b140d270388e9b6dbdd19e1eb8043fea4bd9156ece955734de",
                "091111ab67af2070c449cbacbf4eb78f787a6d9eaca3d6972fb1cef3d3b92ae9"),
    ("rm", 4): ("848d6fd9725fc393f502bab0a3f935b14df6a8b92c370122d88c5dc62f8c9313",
                "727d7d392a852c96b5d4be3abdee96cc1233a5fdcef900cd558b01d834b16e0d"),
    ("rm", 5): ("2f321eb45591eee5b23ebace8d644c910abe225a42f519530173c04bff9eec34",
                "2f8b5b2154721a5faeee2204be15bb823817979420e6a80db2fa6d016c8deba3"),
    ("rm", 6): ("e259ab60811f459a45cffdc2a516e357d1b4384e35707b46c043353ed71674a6",
                "5320f8311f82788b6cc47359c077ec488b6fe1e26a77120305e75d7f1b83b975"),
    ("rm", 7): ("1919c6be0bcc75e24652a2db23e9db958ba2a563ba7ed47a85eaa5673b9c5312",
                "2f78bf9286361a9c4173f11826c7133eff3027bd66a13283229e21fe026d2ca5"),
    ("sm", 1): ("047d8c0a355aba2353550b4f272fe4da687324f0883b3edc7bcbc4aad5219c45",
                "f8246121cb12e0c97fc7fa8e49d7c553009eb419cf7e5ec07ff753d21af53f67"),
    ("sm", 2): ("27c700c0ddf5718e953323d0de2952a722d7de18266d0d5551c3ccf595ec57e8",
                "622e3ae1da68e1331c6bd628edee6e57e209702697cbe12d82dfd0fd1d8877dc"),
    ("sm", 3): ("66bac71ad47476a5ddd8175ecc8cbe2402e5778fad23d2e418b7c726d1b29db2",
                "d94657d3134a69fc161f71e080d361032e2f17d845059fe2feefcaf556a1dcc7"),
    ("sm", 4): ("f71d21fc490dc8e1d4b8a5b925fced3633f9079a10177edfc2d284ea518c319f",
                "d6678fe3de64c1c81874e871318d5abdf85a9a6936908f683a45d2726de3c8e9"),
    ("sm", 5): ("3e63e5486146635efd6c1a2b08355e8652663927728aaa3d1966c1c0dff272a2",
                "fbc1cadd01b13755cd2f80996c90d877414295890f25000e2084cc7b1ca21bee"),
    ("sm", 6): ("0248c2149c99f54dff67cb6ae591412bae7d47b68db6a5102b01c1f01fa8d64f",
                "e2ffa62b01814da43eb8db9350f5436bb053e82d63f8156ac35408696fb9eab5"),
    ("sm", 7): ("0c070966fba1b96f83a103978b6ac3c468764e1fcbf236c753030d8826a82ec6",
                "e257a0796cb2480d25f1b435ae2ab0df81d625381a5b44517188f649825d9d3d"),
    ("b", 1): ("52fff728db7c4273e51c68077de4defd4f00226ed97a9e751b21a0381d9335b1",
               "bb39a33fb27d78551a154caf30aee4113c749b499613db9f2b9343a535b1eeb8"),
    ("b", 2): ("ed62673c1633bc8cfc3fb30115ada94bf7c9dfd623212f65facafb5b0b79cce7",
               "89f95ff1680736fa076b0f8f4e56dc0c92066f6510265ce057dd473613fc1296"),
    ("b", 3): ("93fcbfeec28fee22d559cc8ee9a004a9c716d82b5d23e1221b903df4244d078b",
               "b9bebdfed5ee57db641bff2bf35f719c8e2b1067b7dd4bb772bb33a7c50cc094"),
    ("b", 4): ("aafcc692169be4940f68145d0b31258ca63948f16f9cec1e2da07ab1ad0fb01b",
               "7fa7aa5141350d50730a22ac9ecd52d5f0f51d9301cfbbf7a2899d8a59cc20b2"),
    ("b", 5): ("c7fa099a9ef4bac021b60464cd5b07ba3098d8647f28846de86426d739bad5a9",
               "94dac687a5e5c4699413c31b1f9b74619d678db861e1bfac7958d187d76d82db"),
    ("b", 6): ("8880571077e4221af1785b64e543598e52280c80a77d4bc97e9b23d3dcfbac3a",
               "82aa1d79d917a59eb778016f1c7e5aaa07388efc82f2f4a14b08ae078c4cdd7b"),
    ("b", 7): ("f35507bbff241ee686c5e8e8970f82c29b76f87722d3fcab28c8bb6554a52b9f",
               "b4bc8bd711d27138f2a2dc0306d151df756c565a3c112e632d0b988fedc75832"),
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("family", list(FamilyTag), ids=lambda f: f.value)
def test_emission_order_and_count_tables_pinned(family):
    for n in range(1, 8):
        members = enumerate_family.__wrapped__(family, n)
        assert (_sha256(repr([m.rows for m in members])),
                _sha256(count_refined(family, n).to_json())) \
            == _WALK_DIGESTS[(family.value, n)], n


def test_count_refined_streams_without_the_cache():
    before = enumerate_family.cache_info()
    for family in FamilyTag:
        count_refined(family, 3)
    assert enumerate_family.cache_info() == before


def test_enumeration_is_deterministic():
    # bypass the cache so two independent walks are compared
    walk = enumerate_family.__wrapped__
    assert walk(FamilyTag.SELF_DUAL, 3) == walk(FamilyTag.SELF_DUAL, 3)
    assert walk(FamilyTag.SM, 3) == walk(FamilyTag.SM, 3)


def test_plans_without_members_yield_nothing():
    cells = ((1, 1), (1, 2), (2, 2))
    # one unit closes at most two of the four lines; row 3 holds no cell
    for total, lines in ((1, enumeration._lines(cells, (1, 2), (1, 2))),
                         (3, enumeration._lines(cells, (1, 3), ()))):
        assert list(enumeration._fill_assignments(total, *lines)) == []
        assert enumeration._tally(total, *lines, {0}, {1}) == {}
    # with the mass to close them, both lines of row 1 and column 2 meet at (1, 2)
    lines = enumeration._lines(cells, (1,), (2,))
    assert list(enumeration._fill_assignments(1, *lines)) == [(0, 1, 0)]
    assert enumeration._tally(1, *lines, {0}, {1}) == {(0, 1): 1}


def _placed(d, cells, values, mirrored):
    # the dimension-d rows holding ``values`` at ``cells``, each NW value
    # also at its mirror cell when ``mirrored``, and zeros elsewhere
    rows = [[0] * d for _ in range(d)]
    for (i, j), value in zip(cells, values):
        rows[i - 1][j - 1] = value
        if mirrored:
            rows[d - j][d - i] = value
    return tuple(map(tuple, rows))


@pytest.mark.parametrize("family", list(FamilyTag), ids=lambda f: f.value)
def test_compiled_builder_places_every_member(family):
    # the walk builds each member through getters compiled per dimension;
    # they must place the values as a cell-by-cell build does
    mirrored = family is FamilyTag.SELF_DUAL
    for n in range(1, 7):
        for d, cells, lines in enumeration._plan(family, n):
            build = enumeration._builder(d, cells, mirrored)
            for values in enumeration._fill_assignments(n, *lines):
                assert build(values).rows == _placed(d, cells, values, mirrored)


# --- trusted construction ---------------------------------------------------------
# Generators and maps build their matrices without the public constructor's
# per-cell check.  These tests show that the check would accept every one of
# them, that it runs at the parse boundary and nowhere on those paths, and that
# the walk builds no candidate it then throws away.


def _built_from(family, m):
    """Every matrix the package builds from member ``m``: the member itself
    and its dual, the images of each map that takes the family, and the
    steps of each map's trace."""
    built = [m, dual(m)]
    traces = []
    if family is FamilyTag.SELF_DUAL:
        traces.append(alpha(m, want_trace=True)[1])
        built.append(selfdual_to_signed_rm(m).matrix)
        if m.dim % 2 == 0:
            built.append(em_to_sm(m))
    elif family is FamilyTag.SM:
        traces += [beta(m, want_trace=True)[1], alpha_inv(m, want_trace=True)[1]]
    elif family is FamilyTag.RM:
        built += [embed_rm_in_b(m, flag) for flag in (0, 1)]
    elif family is FamilyTag.B:
        built.append(project_b_to_signed_rm(m).matrix)
        traces.append(beta_inv(m, want_trace=True)[1])
    for trace in traces:
        built += [step for _, step in trace.steps]
    return built


def test_public_constructor_accepts_every_built_matrix():
    for family in FamilyTag:
        for n in range(1, 6):
            for m in enumerate_family(family, n):
                for built in _built_from(family, m):
                    checked = TriMatrix(built.rows)
                    assert checked == built and hash(checked) == hash(built), built


def test_validation_runs_only_at_the_parse_boundary(monkeypatch):
    validated = []
    post_init = TriMatrix.__post_init__

    def counting(self):
        validated.append(self)
        post_init(self)

    monkeypatch.setattr(TriMatrix, "__post_init__", counting)
    for family in FamilyTag:
        count_refined(family, 4)
    # rebuild the families, so the generators run inside the pass too
    enumerate_family.cache_clear()
    assert all(report.passed for report in verify_identities(IDENTITIES, 4))
    assert validated == []
    for m in enumerate_family(FamilyTag.SELF_DUAL, 3):
        assert parse_matrix(format_matrix(m)) == m
        assert validated == [m]
        validated.clear()


@pytest.mark.parametrize("family", [FamilyTag.SM, FamilyTag.SELF_DUAL],
                         ids=lambda f: f.value)
def test_pairing_walk_builds_only_members(monkeypatch, family):
    builds = []
    builder = enumeration._builder

    def counting_builder(d, cells, mirrored):
        build = builder(d, cells, mirrored)

        def counted(values):
            builds.append(values)
            return build(values)

        return counted

    monkeypatch.setattr(enumeration, "_builder", counting_builder)
    for n in range(1, 7):
        builds.clear()
        total = len(enumerate_family.__wrapped__(family, n))
        assert len(builds) == total, n
        # the count path tallies over the walk's lines and builds nothing
        builds.clear()
        assert count_refined(family, n).total == total, n
        assert builds == [], n
    # twice the 2 815 row-Fishburn matrices of size 6
    assert total == 5630


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


def test_refinement_keys_agree_with_stats():
    # each key against its statistics summed cell by cell over their
    # defining conditions, with no code shared with ``stats``
    for family in FamilyTag:
        for n in range(1, 6):
            for m in enumerate_family(family, n):
                assert refinement_key(family, m) == cell_sum_key(family, m), m


@pytest.mark.parametrize("family", ["rm", None, "fishburn", 2])
def test_refinement_key_rejects_an_unknown_family(family):
    # a family named by its value is no tag, as for the membership checks,
    # the size notion and the count tables
    m = TriMatrix(((1, 0), (0, 1)))
    for call in (refinement_key, family_violation, family_size):
        with pytest.raises(ValueError, match=f"unknown family {family!r}"):
            call(family, m)
    with pytest.raises(ValueError, match=f"unknown family {family!r}"):
        count_refined(family, 2)


def test_tuple_keys_match_refinement_key():
    # the count path tallies key sums over the walk's lines without listing
    # a member, while refinement_key sums the key cells of built matrices
    for family in FamilyTag:
        for n in range(1, 7):
            members = enumerate_family.__wrapped__(family, n)
            assert count_refined(family, n).cells == \
                Counter(refinement_key(family, m) for m in members), (family, n)


# --- count tables -----------------------------------------------------------------


def test_count_table_totals():
    for family in FamilyTag:
        for n in range(1, 5):
            table = count_refined(family, n)
            assert table.total == len(enumerate_family(family, n))
            assert sum(table.cells.values()) == table.total


def test_count_totals_match_the_series():
    # closed forms that share nothing with the walk: Zagier's series for
    # Fishburn matrices and the row-Fishburn series
    fishburn = fishburn_series(13)
    rm = row_fishburn_series(13)
    assert fishburn[1:6] == list(FISHBURN_COUNTS) and rm[1:6] == list(RM_COUNTS)
    assert fishburn[11:] == [1422074, 10886503]
    assert rm[11:] == [428481472, 6271362282]
    for n in range(1, 13):
        assert count_refined(FamilyTag.FISHBURN, n).total == fishburn[n], n
        assert count_refined(FamilyTag.RM, n).total == rm[n], n


def _grouped(table, key):
    """The table's counts summed over cells with the same key(k, p, parity),
    leaving out cells whose key is None."""
    out = Counter()
    for cell, count in table.cells.items():
        group = key(*cell)
        if group is not None:
            out[group] += count
    return out


def test_count_tables_hold_the_identities():
    # the count halves of eq1 to eq4, read from the tables alone, at sizes
    # past what the transport check lists; eq8 is test_parity_split_is_even
    for n in range(1, 9):
        self_dual = count_refined(FamilyTag.SELF_DUAL, n)
        rm = count_refined(FamilyTag.RM, n)
        assert self_dual.total == count_refined(FamilyTag.SM, n).total == \
            count_refined(FamilyTag.B, n).total == 2 * rm.total, n
        # eq1: zero diagonal-cell sum, either parity, by first-row sum
        assert _grouped(self_dual, lambda k, p, _: k if p == 0 else None) == \
            _grouped(rm, lambda k, p, _: k), n
        # eq2: positive diagonal-cell sum, by both sums
        assert _grouped(self_dual, lambda k, p, _: (k, p) if p >= 1 else None) == \
            _grouped(rm, lambda k, p, _: (k, p)), n


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
    for n in range(1, 9):
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
    """Counts of chain, stats and SignedRowFishburn calls made after setup;
    the pass runs the chain through its row body."""
    counts = dict.fromkeys(("chain", "stats", "signed"), 0)

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for family in FamilyTag:
        enumerate_family(family, 4)
    monkeypatch.setattr(bijections, "_chain", counting("chain", bijections._chain))
    monkeypatch.setattr(matrices, "stats", counting("stats", matrices.stats))
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
# Each test breaks one map's row body where the checker looks it up, on
# ``bijections``, and asserts that the identity built on that map fails with
# its detail and a witness matrix.  A body takes the rows of a member and returns rows, or
# (rows, flag) for a signed matrix.

_chain = bijections._chain


def _flipped_chain(rows):
    image, flag = _chain(rows)
    return image, 1 - flag


@pytest.mark.parametrize("identity", ["eq1", "eq2"])
def test_flipped_chain_flag_fails_slice_identity(monkeypatch, identity):
    monkeypatch.setattr(bijections, "_chain", _flipped_chain)
    report = verify_identity(identity, 3)
    assert report.passed is False
    slice_name = "positive-sum" if identity == "eq2" else "zero-sum"
    assert report.detail == ("image escapes the target set under the map chain "
                             f"on the {slice_name} slice")
    # eq1 slices the zero diagonal-cell sums, eq2 the positive ones
    first = next(m for m in enumerate_family(FamilyTag.SELF_DUAL, 3)
                 if (stats(m).diag_sum >= 1) == (identity == "eq2"))
    assert report.counterexample == first


def test_flipped_chain_flag_still_passes_eq3(monkeypatch):
    # a global flag flip is a bijection onto rm x {0, 1}
    monkeypatch.setattr(bijections, "_chain", _flipped_chain)
    assert verify_identity("eq3", 3).passed


def test_merging_chain_fails_eq3(monkeypatch):
    members = enumerate_family(FamilyTag.SELF_DUAL, 3)

    def merging(rows):
        return _chain(members[0].rows if rows == members[1].rows else rows)

    monkeypatch.setattr(bijections, "_chain", merging)
    report = verify_identity("eq3", 3)
    assert report.passed is False
    assert report.detail == "two members share an image under the full map chain"
    assert report.counterexample == members[1]


def test_swapping_chain_fails_eq2_transport(monkeypatch):
    # still a bijection onto rm x {0}, but two images trade refined classes
    positive = [m for m in enumerate_family(FamilyTag.SELF_DUAL, 3)
                if stats(m).diag_sum >= 1]
    first = positive[0]
    other = next(m for m in positive
                 if stats(m).first_row_sum != stats(first).first_row_sum)
    swap = {first.rows: other.rows, other.rows: first.rows}

    def swapping(rows):
        return _chain(swap.get(rows, rows))

    monkeypatch.setattr(bijections, "_chain", swapping)
    report = verify_identity("eq2", 3)
    assert report.passed is False
    assert report.detail == ("statistics not transported under the map chain "
                             "on the positive-sum slice")
    assert report.counterexample == first


def test_flag_blind_embedding_fails_eq4(monkeypatch):
    embed = bijections._embed
    monkeypatch.setattr(bijections, "_embed", lambda rows, flag: embed(rows, 0))
    report = verify_identity("eq4", 3)
    assert report.passed is False
    assert report.detail == "two members share an image under the embedding"
    assert report.counterexample == enumerate_family(FamilyTag.RM, 3)[0]


def test_flag_flipping_projection_fails_eq4(monkeypatch):
    project = bijections._project

    def flipped(rows):
        image, flag = project(rows)
        return image, 1 - flag

    monkeypatch.setattr(bijections, "_project", flipped)
    report = verify_identity("eq4", 3)
    assert report.passed is False
    assert report.detail == "inverse map does not undo the embedding"
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
    image = bijections._embed_even(other.rows)
    monkeypatch.setattr(bijections, "_embed_even", lambda rows: image)
    report = verify_identity("eq8", 3)
    assert report.passed is False
    assert report.detail == "statistics not transported under the parity embedding"
    assert report.counterexample == even[0]


def test_swapping_relocation_fails_eq8_transport(monkeypatch):
    # still a bijection onto rm, but two zero-center images trade first-row
    # classes
    zero_center = [s for s in enumerate_family(FamilyTag.SM, 3)
                   if stats(s).center_col_sum == 0]
    first = zero_center[0]
    other = next(s for s in zero_center if s.row_sum(1) != first.row_sum(1))
    swap = {first.rows: other.rows, other.rows: first.rows}
    relocate = bijections._beta
    monkeypatch.setattr(bijections, "_beta", lambda rows: relocate(swap.get(rows, rows)))
    report = verify_identity("eq8", 3)
    assert report.passed is False
    assert report.detail == ("statistics not transported under column relocation "
                             "on the zero-center slice")
    assert report.counterexample == first


def test_faulty_body_reaches_the_compiled_pass(monkeypatch):
    # the pass's layouts are derived from the map bodies, so a fault in a
    # body, here a placement rule that swaps the sources of two columns,
    # fails the identity once the cached layouts are rebuilt
    relocation = bijections._relocation

    def swapped(d, moved):
        lines = relocation(d, moved)
        if len(lines) > 1:
            (r0, c0), (r1, c1) = lines[:2]
            lines[:2] = [(r0, c1), (r1, c0)]
        return lines

    matrices._gather.cache_clear()
    monkeypatch.setattr(bijections, "_relocation", swapped)
    try:
        report = verify_identity("eq3", 4)
    finally:
        monkeypatch.undo()
        matrices._gather.cache_clear()
    assert report.passed is False
    assert report.detail == "image escapes the target set under the full map chain"
    assert report.counterexample is not None
    assert verify_identity("eq3", 4).passed


def test_flipped_chain_in_one_pass_matches_single_checks(monkeypatch):
    monkeypatch.setattr(bijections, "_chain", _flipped_chain)
    reports = verify_identities(("eq1", "eq2", "eq3"), 3)
    assert [report.passed for report in reports] == [False, False, True]
    assert reports == [verify_identity(identity, 3) for identity in ("eq1", "eq2", "eq3")]
