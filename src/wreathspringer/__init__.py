"""Exact combinatorics and representation theory of wreath products of
symmetric groups, verifiable at desk scale.

The names below are resolved on first access (PEP 562), so importing the
package loads none of its modules, and a command loads only what it uses.
"""

import sys as _sys
from importlib import import_module as _import_module

# the module of each exported name
_EXPORTS = {
    **dict.fromkeys(
        (
            "all_perms",
            "bruhat_leq_typeA",
            "conjugate_partition",
            "hook_dim",
            "n_stat",
            "partitions_of",
            "perm_compose",
            "perm_inverse",
            "perm_length",
        ),
        "combinatorics",
    ),
    **dict.fromkeys(
        (
            "AlgebraVector",
            "BasisIndex",
            "ProductResult",
            "convolve",
            "convolve_basis",
            "involution_T",
            "pi0_act",
            "verify_relations",
            "y_bar",
            "y_bar_sum",
        ),
        "convolution",
    ),
    "jordan_type": "matrices",
    **dict.fromkeys(
        (
            "CliffordLabel",
            "check_dimension_property",
            "clifford_label",
            "enumerate_IC",
            "enumerate_IS",
            "fiber_dim",
            "gamma_of",
            "orbit_dim",
            "orbit_label",
        ),
        "orbits",
    ),
    **dict.fromkeys(
        (
            "Representation",
            "char_of",
            "clifford_irrep",
            "induce",
            "isotypic_character",
            "specht_rep",
            "springer_module",
        ),
        "reptheory",
    ),
    **dict.fromkeys(
        (
            "typeB_table",
            "typeD_table",
            "verify_springer",
        ),
        "springer",
    ),
    **dict.fromkeys(
        (
            "BoundExceededError",
            "CheckFailed",
            "WreathElement",
            "WreathGroup",
            "bruhat_leq_wreath",
            "cell_statistics",
            "coxeterB_leq",
            "embed_md",
            "hasse_covers",
        ),
        "wreath",
    ),
}
_MODULES = ("combinatorics", "convolution", "matrices", "orbits", "reptheory", "springer", "wreath")

__all__ = sorted([*_EXPORTS, *_MODULES])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    dunders = {n for n in globals() if n.startswith("__")} - {"__all__", "__dir__", "__getattr__"}
    return sorted({*__all__, "clear_caches", *dunders})


def clear_caches() -> None:
    """Empty every ``functools.lru_cache`` of the package's loaded modules,
    among them `reptheory.clifford_irrep` and the product cache of
    `wreath.WreathElement`.  The modules' other state is per object.  A
    test that patches a rule needs this, or a module built before the patch
    is served from a cache and the broken rule goes unchecked."""
    for name, module in list(_sys.modules.items()):
        if module is None or not name.startswith(f"{__name__}."):
            continue
        for value in vars(module).values():
            for member in vars(value).values() if isinstance(value, type) else (value,):
                if hasattr(member, "cache_clear"):
                    member.cache_clear()
