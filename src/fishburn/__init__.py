"""Triangular-matrix families, the bijections between them, exhaustive
enumeration with refined counts, and the interval-order encoding.

The interval-order names come from ``fishburn.posets``, which is imported
on first use of one of them, so the matrix commands never load it.  They
are looked up there on every access and never copied into this module.
"""

from .bijections import (
    BijectionTrace,
    SignedRowFishburn,
    alpha,
    alpha_inv,
    beta,
    beta_inv,
    em_to_sm,
    embed_rm_in_b,
    project_b_to_signed_rm,
    selfdual_to_signed_rm,
    sm_to_em,
)
from .enumeration import (
    IDENTITIES,
    CountTable,
    FamilyTag,
    IdentityReport,
    count_refined,
    enumerate_family,
    family_member,
    family_size,
    family_violation,
    refinement_key,
    verify_identity,
)
from .matrices import (
    CellClass,
    DegenerateMatrix,
    MatrixConditionError,
    NotBMember,
    NotExpandable,
    NotFishburn,
    NotRowFishburn,
    NotSMMember,
    NotSelfDual,
    NotSuperTriangular,
    OddDimension,
    Parity,
    ParseError,
    StatVector,
    TriMatrix,
    cell_class,
    dual,
    expand,
    format_matrix,
    parse_matrix,
    reduce,
    reduced_size,
    stats,
)

__all__ = [
    "BijectionTrace",
    "CellClass",
    "CountTable",
    "DegenerateMatrix",
    "FamilyTag",
    "IDENTITIES",
    "IdentityReport",
    "LevelDecomposition",
    "MatrixConditionError",
    "NotBMember",
    "NotExpandable",
    "NotFishburn",
    "NotIntervalOrder",
    "NotRowFishburn",
    "NotSMMember",
    "NotSelfDual",
    "NotSelfDualMatrix",
    "NotSuperTriangular",
    "OddDimension",
    "Parity",
    "ParseError",
    "Poset",
    "SignedRowFishburn",
    "StatVector",
    "TriMatrix",
    "alpha",
    "alpha_inv",
    "beta",
    "beta_inv",
    "canonical_form",
    "cell_class",
    "count_refined",
    "dual",
    "dual_poset",
    "em_to_sm",
    "embed_rm_in_b",
    "enumerate_family",
    "expand",
    "family_member",
    "family_size",
    "family_violation",
    "fishburn_to_poset",
    "format_matrix",
    "format_poset",
    "is_interval_order",
    "is_self_dual_poset",
    "level_decomposition",
    "parse_matrix",
    "parse_poset",
    "poset_to_fishburn",
    "project_b_to_signed_rm",
    "reduce",
    "reduced_size",
    "reduced_size_of_interval_order",
    "refinement_key",
    "selfdual_to_signed_rm",
    "sm_to_em",
    "stats",
    "verify_identity",
]

_POSET_NAMES = frozenset({
    "LevelDecomposition",
    "NotIntervalOrder",
    "NotSelfDualMatrix",
    "Poset",
    "canonical_form",
    "dual_poset",
    "fishburn_to_poset",
    "format_poset",
    "is_interval_order",
    "is_self_dual_poset",
    "level_decomposition",
    "parse_poset",
    "poset_to_fishburn",
    "reduced_size_of_interval_order",
})


def __getattr__(name):
    if name in _POSET_NAMES:
        from . import posets

        return getattr(posets, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _POSET_NAMES)
