"""Exact Lie theory and numerical flag curvature for invariant Finsler
metrics on compact homogeneous spaces.

Every public name and its module is looked up on first access (PEP 562), so
`import flagcurv` loads nothing else: the exact verbs stay numpy-free, the
numeric users never compile the exact classifier, and no package binding
goes stale.
"""

import importlib

__version__ = "0.1.0"

_HOMES = {  # module -> its public names
    "rootsys": ("AlgebraSpec", "QNum", "RootSystem", "build_root_system"),
    "obstruct": ("classify_space", "root_level_from_coset", "verify_theorem"),
    "liealg": ("realize",),
    "coset": ("CosetSpace", "SubalgebraSpec", "build_coset", "preset", "rank_check"),
    "norms": ("Quadratic", "Quartic", "Randers", "random_invariant_norm"),
    "curvature": ("flag_curvature", "flag_curvature_commutative", "sample_flags",
                  "verify_exclusion_witness"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOMES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
