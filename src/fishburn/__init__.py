"""Triangular-matrix families, the bijections between them, exhaustive
enumeration with refined counts, and the interval-order encoding.

Every public name is defined in one submodule, its home in ``_EXPORTS``:
the shared records and errors in ``records``, the matrix type, its
conditions and statistics in ``matrices``, the maps in ``bijections``,
the generators, counts and identity checker in ``enumeration``, and the
interval orders in ``posets``.  Importing the package loads none of them.
A name's home is imported on its first use, and the name is looked up
there on every access and never copied into this module, so a run loads
only the modules it uses.
"""

_EXPORTS = {
    "records": (
        "CellClass",
        "DegenerateMatrix",
        "MatrixConditionError",
        "NotBMember",
        "NotExpandable",
        "NotFishburn",
        "NotRowFishburn",
        "NotSMMember",
        "NotSelfDual",
        "NotSuperTriangular",
        "OddDimension",
        "Parity",
        "ParseError",
    ),
    "matrices": (
        "StatVector",
        "TriMatrix",
        "cell_class",
        "dual",
        "expand",
        "format_matrix",
        "parse_matrix",
        "reduce",
        "reduced_size",
        "stats",
    ),
    "bijections": (
        "BijectionTrace",
        "SignedRowFishburn",
        "alpha",
        "alpha_inv",
        "beta",
        "beta_inv",
        "em_to_sm",
        "embed_rm_in_b",
        "project_b_to_signed_rm",
        "selfdual_to_signed_rm",
        "sm_to_em",
    ),
    "enumeration": (
        "IDENTITIES",
        "CountTable",
        "FamilyTag",
        "IdentityReport",
        "count_refined",
        "enumerate_family",
        "family_member",
        "family_size",
        "family_violation",
        "refinement_key",
        "verify_identity",
    ),
    "posets": (
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
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        from importlib import import_module

        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _HOME.keys())
