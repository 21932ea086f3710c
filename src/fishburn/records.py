"""The records and errors every module of the package shares: the
``MatrixConditionError`` family and ``ParseError``, the ``CellClass`` and
``Parity`` tags, ``_Record``, the base of every value type and its one
construction path, with one trusted builder per class, ``_is_int``, the one
test for an ``int`` field that is not a ``bool``, and ``_cells``, the one
definition of the cell sets the statistics, the refinement keys and the
generators read.

They live apart from ``matrices`` so that a module which only names them,
as ``enumeration`` and ``cli`` do at import time, does not load the matrix
layer; ``matrices`` imports them back, so ``fishburn.matrices.<name>``
keeps working.
"""

from enum import Enum
from functools import lru_cache
from types import MappingProxyType

# --- exceptions ------------------------------------------------------------


class MatrixConditionError(ValueError):
    """A matrix fails a structural condition required by an operation."""


class NotSelfDual(MatrixConditionError):
    """The matrix differs from its mirror across the anti-diagonal."""


class NotFishburn(MatrixConditionError):
    """Some row or column of the matrix is entirely zero."""


class NotRowFishburn(MatrixConditionError):
    """Some row of the matrix is entirely zero."""


class NotSuperTriangular(MatrixConditionError):
    """Some SE cell of the matrix is nonzero."""


class NotExpandable(MatrixConditionError):
    """The zero-SE matrix cannot be mirrored into a matrix with every row
    and column nonzero."""


class NotSMMember(MatrixConditionError):
    """The matrix fails the odd-dimension zero-SE family conditions."""


class NotBMember(MatrixConditionError):
    """Some row past the first is entirely zero."""


class DegenerateMatrix(MatrixConditionError):
    """All-zero input where an operation needs at least one unit of mass."""


class OddDimension(MatrixConditionError):
    """An even dimension was required."""


class ParseError(ValueError):
    """Malformed matrix text."""


# --- core types ------------------------------------------------------------


def _is_int(value):
    # a bool is an int to isinstance, yet no count, size, bit or cell
    return isinstance(value, int) and not isinstance(value, bool)


class CellClass(Enum):
    NW = "nw"
    DIAGONAL = "diagonal"
    SE = "se"


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"
    ANY = "any"


@lru_cache(maxsize=64)
def _cells(d):
    """The named cell sets of dimension d, as 1-based (i, j) in row-major
    order: ``upper``, on or above the main diagonal, split into ``half``,
    its NW and diagonal cells (i + j <= d + 1), and ``se``; and the cells
    each statistic of ``stats`` sums, ``first_row``, ``diag`` (the diagonal
    cells in ``upper``), ``center_col`` (none at an even d) and ``last_col``."""
    upper = tuple((i, j) for i in range(1, d + 1) for j in range(i, d + 1))
    h = (d + 1) // 2
    return MappingProxyType({
        "upper": upper,
        "half": tuple((i, j) for i, j in upper if i + j <= d + 1),
        "se": tuple((i, j) for i, j in upper if i + j > d + 1),
        "first_row": tuple((1, j) for j in range(1, d + 1)),
        "diag": tuple((i, d + 1 - i) for i in range(1, h + 1)),
        "center_col": tuple((i, h) for i in range(1, h + 1)) if d % 2 else (),
        "last_col": tuple((i, d) for i in range(1, d + 1)),
    })


class _Record:
    """Frozen, slotted value record.

    A subclass lists its fields in order as ``__slots__`` and the defaults
    of trailing fields in ``_defaults``; defining it keeps its slots'
    setters, in field order, as ``_setters``, through which every value
    stores its fields, and gives it its own ``_trusted``, built for its
    number of fields by ``_trusted_builder``.  The public constructor takes
    them by position or keyword, then runs ``__post_init__``, looked up on
    the class, which may validate them; ``_trusted(*fields)``, for values
    the package built itself, takes exactly one value per field, by
    position, and runs no ``__post_init__``.
    Values of one class compare and hash by their fields and never equal a
    value of another class; the repr is ``Name(field=value, ...)``;
    assigning or deleting a field raises AttributeError; copy and pickle
    rebuild a value through its public constructor.  Calling ``__init__``
    on a built value raises AttributeError too, and changes nothing.
    """

    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)
        cls._trusted = staticmethod(_trusted_builder(cls))

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if hasattr(self, names[0]):
            raise AttributeError(f"cannot assign to field {names[0]!r}")
        if kwargs or len(args) != len(names):
            args = self._arguments(args, kwargs)
        for put, value in zip(self._setters, args):
            put(self, value)
        self.__post_init__()

    @classmethod
    def _arguments(cls, args, kwargs):
        """The field values, in field order, of a call with keywords or
        with fields left to their defaults."""
        name = cls.__qualname__
        names = cls.__slots__
        if len(args) > len(names):
            raise TypeError(f"{name}() takes {len(names)} positional arguments "
                            f"but {len(args)} were given")
        for key in kwargs:
            if key not in names:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if names.index(key) < len(args):
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
        values = list(args)
        for key in names[len(args):]:
            if key in kwargs:
                values.append(kwargs[key])
            elif key in cls._defaults:
                values.append(cls._defaults[key])
            else:
                raise TypeError(f"{name}() missing required argument: {key!r}")
        return values

    def __post_init__(self):
        pass

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


def _trusted_builder(cls):
    """``cls._trusted(*fields)``: the value over all its fields, in order,
    without ``__post_init__``.  A class of one or two fields, as the matrix,
    the signed matrix and the poset are, gets a closure that unpacks them
    and calls its setters directly; any other class the loop over them."""
    setters = cls._setters
    new = object.__new__

    def miscount(fields):
        return TypeError(f"{cls.__qualname__}._trusted() takes {len(setters)} "
                         f"fields but {len(fields)} were given")

    if len(setters) == 1:
        (put,) = setters

        def trusted(*fields):
            try:
                (field,) = fields
            except ValueError:
                raise miscount(fields) from None
            value = new(cls)
            put(value, field)
            return value
    elif len(setters) == 2:
        put_first, put_second = setters

        def trusted(*fields):
            try:
                first, second = fields
            except ValueError:
                raise miscount(fields) from None
            value = new(cls)
            put_first(value, first)
            put_second(value, second)
            return value
    else:
        def trusted(*fields):
            if len(fields) != len(setters):
                raise miscount(fields)
            value = new(cls)
            for put, field in zip(setters, fields):
                put(value, field)
            return value
    return trusted
