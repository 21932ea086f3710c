"""The value types: frozen, slotted records with field equality and hashing,
a pinned repr, keyword construction with defaults, and copy and pickle."""

import copy
import pickle

import pytest

from fishburn import (
    BijectionTrace,
    CountTable,
    FamilyTag,
    IdentityReport,
    LevelDecomposition,
    NotRowFishburn,
    Parity,
    Poset,
    SignedRowFishburn,
    StatVector,
    TriMatrix,
    level_decomposition,
)
from fishburn.cli import RunReport
from fishburn.enumeration import _Leg

ONE = TriMatrix(((1,),))
CHAIN = Poset(2, frozenset({(1, 2)}))


def _one_of_each():
    # every record type of the package, each field picklable
    return [
        ONE,
        StatVector(1, 1, 1, 1, 1, 1, 1, Parity.ODD),
        BijectionTrace((("A(0)", ONE), ("S", ONE))),
        SignedRowFishburn(ONE, 1),
        CHAIN,
        level_decomposition(CHAIN),
        CountTable(FamilyTag.RM, 1, {(1, 1, Parity.ANY): 1}, 1),
        IdentityReport("eq1", 1, False, "two members share an image", ONE),
        _Leg("the embedding", [(ONE.rows, None)], len, {ONE.rows: None}, inverse=len),
        RunReport(True, "all checks passed\n", (("all n=1", 0.5),)),
    ]


@pytest.mark.parametrize("value", _one_of_each(), ids=lambda v: type(v).__name__)
def test_copy_deepcopy_and_pickle_round_trip(value):
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value)
        assert twin == value
        assert repr(twin) == repr(value)


def test_repr_pinned():
    assert repr(ONE) == "TriMatrix(rows=((1,),))"
    assert repr(IdentityReport("eq1", 1, True, "1 = 1")) == (
        "IdentityReport(identity='eq1', n=1, passed=True, detail='1 = 1', "
        "counterexample=None)")
    assert repr(SignedRowFishburn(ONE, 0)) == (
        "SignedRowFishburn(matrix=TriMatrix(rows=((1,),)), flag=0)")
    assert repr(CHAIN) == "Poset(n_elements=2, relation=frozenset({(1, 2)}))"
    assert repr(level_decomposition(CHAIN)) == (
        "LevelDecomposition(magnitude=2, level={1: 1, 2: 2}, up_level={1: 1, 2: 2})")
    assert repr(RunReport(True, "x")) == "RunReport(passed=True, output='x', timings=())"


def test_equal_values_hash_equal_and_classes_never_mix():
    for a, b in zip(_one_of_each(), _one_of_each()):
        assert a == b
        if not isinstance(a, (LevelDecomposition, CountTable, _Leg)):
            assert hash(a) == hash(b)
    # a matrix hashes as the tuple of its one field, so sets and dicts of
    # matrices keep their iteration order
    for rows in (((1,),), ((1, 0), (0, 2)), ((0, 1, 1), (0, 1, 0), (0, 0, 3))):
        assert hash(TriMatrix(rows)) == hash((rows,))
        assert hash(TriMatrix._trusted(rows)) == hash((rows,))
    assert TriMatrix(((1, 0), (0, 1))) != TriMatrix(((1, 0), (0, 2)))
    # one field holding the same value: another class, or the bare values
    assert ONE != BijectionTrace(ONE.rows)
    assert ONE != ONE.rows
    assert ONE != (ONE.rows,)
    assert SignedRowFishburn(ONE, 1) != (ONE, 1)
    assert CHAIN != (2, frozenset({(1, 2)}))


def test_fields_cannot_be_assigned_or_deleted():
    for value in _one_of_each():
        field = type(value).__slots__[0]
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(value, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = None
    assert ONE.rows == ((1,),)


# for each record type, fields unlike those of its value in _one_of_each()
SECOND_FIELDS = {
    TriMatrix: (((2,),),),
    StatVector: (9, 9, 9, 9, 9, 9, 9, Parity.EVEN),
    BijectionTrace: ((),),
    SignedRowFishburn: (TriMatrix(((3,),)), 0),
    Poset: (2, []),
    LevelDecomposition: (1, {1: 1}, {1: 1}),
    CountTable: (FamilyTag.B, 9, {}, 0),
    IdentityReport: ("eq2", 2, True, "ok"),
    _Leg: ("another leg", [], len, {}),
    RunReport: (False, "", ()),
}


def _trusted_twin(value):
    # the value rebuilt from its stored fields by the trusted path
    return type(value)._trusted(*value._values())


def test_trusted_build_equals_the_public_constructor():
    publics = _one_of_each() + [cls(*fields) for cls, fields in SECOND_FIELDS.items()]
    for public in publics:
        trusted = _trusted_twin(public)
        assert type(trusted) is type(public)
        assert trusted == public
        assert repr(trusted) == repr(public)
        if not isinstance(public, (LevelDecomposition, CountTable, _Leg)):
            assert hash(trusted) == hash(public)
        twin = pickle.loads(pickle.dumps(trusted))
        assert twin == public and repr(twin) == repr(public)
    # one value per field, no fewer and no more, or the call itself raises
    for public in publics:
        fields = public._values()
        with pytest.raises(TypeError, match=f"takes {len(fields)} fields but"):
            type(public)._trusted(*fields[:-1])
        with pytest.raises(TypeError, match=f"takes {len(fields)} fields but"):
            type(public)._trusted(*fields, None)


def test_every_record_stores_through_its_slot_setters():
    for cls in SECOND_FIELDS:
        assert len(cls._setters) == len(cls.__slots__)
        assert [put.__self__ for put in cls._setters] == [
            cls.__dict__[name] for name in cls.__slots__]


def test_a_second_init_changes_nothing():
    # __init__ stores fields past the frozen __setattr__, so calling it on a
    # built value must refuse, as assignment does, before storing any
    from fishburn import cli, enumeration, posets  # noqa: F401  every record type
    from fishburn.records import _Record

    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    assert set(SECOND_FIELDS) == {cls for cls in subclasses(_Record)
                                  if cls.__module__.startswith("fishburn.")}
    for value in _one_of_each() + [_trusted_twin(v) for v in _one_of_each()]:
        before = repr(value)
        hashable = not isinstance(value, (LevelDecomposition, CountTable, _Leg))
        hashed = hash(value) if hashable else None
        held = {value: 1} if hashable else {}
        field = type(value).__slots__[0]
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            value.__init__(*SECOND_FIELDS[type(value)])
        assert repr(value) == before
        if hashable:
            assert hash(value) == hashed and value in held
    # the case that moved a poset out of reach in a dict
    p = Poset(2, {(1, 2)})
    held = {p: 1}
    with pytest.raises(AttributeError):
        p.__init__(2, [])
    assert p in held and p.relation == {(1, 2)}


def test_keyword_construction_and_defaults():
    assert TriMatrix(rows=((1,),)) == ONE
    assert RunReport(True, "x").timings == ()
    assert RunReport(output="x", passed=False) == RunReport(False, "x", ())
    leg = _Leg("leg", [], len, {})
    assert leg.inverse is None
    assert _Leg(name="leg", sources=[], apply=len, targets={}) == leg
    assert IdentityReport("eq1", 1, True, "ok").counterexample is None
    by_name = StatVector(size=3, reduced_size=2, first_row_sum=1, diag_sum=1,
                         center_col_sum=0, last_col_sum=2, dim=2,
                         dim_parity=Parity.EVEN)
    assert by_name == StatVector(3, 2, 1, 1, 0, 2, 2, Parity.EVEN)
    assert by_name.last_col_sum == 2


def test_bad_arguments_raise_type_error():
    with pytest.raises(TypeError, match="missing required argument: 'output'"):
        RunReport(True)
    with pytest.raises(TypeError, match="unexpected keyword argument 'passes'"):
        RunReport(True, "x", passes=1)
    with pytest.raises(TypeError, match="multiple values for argument 'passed'"):
        RunReport(True, "x", passed=False)
    with pytest.raises(TypeError, match="takes 3 positional arguments but 4"):
        RunReport(True, "x", (), None)
    with pytest.raises(TypeError):
        TriMatrix()


def test_dict_fields_make_a_value_unhashable():
    with pytest.raises(TypeError):
        hash(level_decomposition(CHAIN))
    with pytest.raises(TypeError):
        hash(LevelDecomposition(1, {1: 1}, {1: 1}))


def test_public_constructors_keep_their_messages():
    with pytest.raises(ValueError) as err:
        TriMatrix(((1, 0), (1, 0)))
    assert str(err.value) == "cell (2, 1) lies below the main diagonal and must be 0"
    with pytest.raises(NotRowFishburn) as err:
        SignedRowFishburn(TriMatrix(((0,),)), 0)
    assert str(err.value) == "row 1 zero"
    for flag in (2, True):
        with pytest.raises(ValueError) as err:
            SignedRowFishburn(ONE, flag)
        assert str(err.value) == "flag must be 0 or 1"
    # the matrix itself, not its rows
    for matrix in (((1,),), None):
        with pytest.raises(ValueError) as err:
            SignedRowFishburn(matrix, 0)
        assert str(err.value) == f"matrix must be a TriMatrix, not {matrix!r}"
    with pytest.raises(ValueError) as err:
        Poset(2, frozenset({(1, 1)}))
    assert str(err.value) == "relation is not irreflexive at element 1"
    with pytest.raises(ValueError) as err:
        Poset(3, frozenset({(1, 2), (2, 3)}))
    assert str(err.value) == "relation is not transitive: (1, 2) and (2, 3) without (1, 3)"
    with pytest.raises(ValueError) as err:
        Poset(n_elements=0, relation=frozenset())
    assert str(err.value) == "a poset needs at least one element"


def test_post_init_is_looked_up_on_the_class(monkeypatch):
    # the benchmark's tracer counts constructions by patching this hook
    seen = []
    post_init = TriMatrix.__post_init__
    monkeypatch.setattr(TriMatrix, "__post_init__",
                        lambda self: seen.append(self.rows) or post_init(self))
    TriMatrix(((2,),))
    assert seen == [((2,),)]
    assert TriMatrix._trusted(((3,),)).rows == ((3,),)
    assert seen == [((2,),)]
