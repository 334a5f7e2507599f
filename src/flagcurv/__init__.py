"""Exact Lie theory and numerical flag curvature for invariant Finsler
metrics on compact homogeneous spaces.

The exact names load eagerly and import no numpy.  The numeric names and
their modules are looked up on each access (PEP 562), so `import flagcurv`
and the exact verbs stay numpy-free and no package binding goes stale.
"""

import importlib

from .rootsys import AlgebraSpec, QNum, RootSystem, build_root_system
from .obstruct import classify_space, root_level_from_coset, verify_theorem

__version__ = "0.1.0"

_NUMERIC = {  # module -> its public names
    "liealg": ("realize",),
    "coset": ("CosetSpace", "SubalgebraSpec", "build_coset", "preset", "rank_check"),
    "norms": ("Quadratic", "Quartic", "Randers", "random_invariant_norm"),
    "curvature": ("flag_curvature", "flag_curvature_commutative", "sample_flags",
                  "verify_exclusion_witness"),
}
_HOME = {name: module for module, names in _NUMERIC.items() for name in names}

__all__ = sorted(["AlgebraSpec", "QNum", "RootSystem", "build_root_system",
                  "classify_space", "root_level_from_coset", "verify_theorem", *_HOME])


def __getattr__(name):
    if name in _NUMERIC:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
