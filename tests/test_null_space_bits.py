"""The invariant-form null spaces are the plain SVD's, bit for bit.

`norms._null_rows` decomposes the R of a QR factorization in place of a
tall stack, the path LAPACK's dgesdd itself takes from its MNTHR cut on.
It factors the stack in place with the dgeqrf of `numpy.linalg.lapack_lite`
(the call `np.linalg.qr` makes after copying its input twice), overwriting
the buffer `invariant_quadratic_space` built for it and a single copy of
any other stack.  `lapack_lite` is the one numpy module flagcurv uses that
numpy's `tests/test_public_api.py` lists as `PRIVATE_BUT_PRESENT_MODULES`.
The oracle below is the earlier formula: the stack built as a list of
blocks and a thin SVD of it (a full one for the one-row h = 0 placeholder).
Each check runs in a fresh interpreter at one and at two BLAS threads,
since the thread count is read when numpy loads; the comparisons are exact.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from flagcurv import norms

# the witness-build, flags-normal and flags-finsler presets of bench/workloads.py
PRESETS = (
    "sphere_so2n(4)", "sphere_un(4)", "sphere_spn_u1(2)", "sphere_spn_sp1(3)",
    "berger_sp2", "aloff_wallach(1,2)", "cn_excluded_subcase1(3)",
    "sphere_un(3)", "sphere_spn_sp1(2)", "bn_excluded_subcase1(2)",
    "a1a1_diagonal(1)", "bn_excluded_subcase1(3)", "a1a1_diagonal(2)",
    "cn_excluded_subcase1(4)",
)
SRC = str(Path(__file__).resolve().parent.parent / "src")


def oracle_quadratic_space(space) -> list:
    _, _, Kh = space.structure_tensors()
    d = space.dim_m
    iu, ju = np.triu_indices(d)
    units = np.zeros((len(iu), d, d))
    units[np.arange(len(iu)), iu, ju] = units[np.arange(len(iu)), ju, iu] = 1.0
    rows = [(A @ units - units @ A).transpose(1, 2, 0).reshape(d * d, -1) for A in Kh]
    stack = np.vstack(rows) if rows else np.zeros((1, len(iu)))
    _, sv, vt = np.linalg.svd(stack, full_matrices=stack.shape[0] < stack.shape[1])
    null = vt[[k for k in range(vt.shape[0]) if (sv[k] if k < len(sv) else 0.0) < norms.NULL_TOL]]
    S = np.zeros((len(null), d, d))
    S[:, iu, ju] += null
    S[:, ju, iu] += np.where(iu != ju, null, 0.0)
    return list(0.5 * (S + np.swapaxes(S, 1, 2)))


def oracle_vectors(space) -> np.ndarray:
    _, _, Kh = space.structure_tensors()
    if not len(Kh):
        return np.eye(space.dim_m)
    _, sv, vt = np.linalg.svd(Kh.reshape(-1, space.dim_m))
    return vt[sv < norms.NULL_TOL]


def _spaces():
    from flagcurv.coset import SubalgebraSpec, build_coset, parse_preset
    from flagcurv.liealg import AlgebraSpec, realize
    yield from ((p, parse_preset(f"preset:{p}")) for p in PRESETS)
    # h = 0: the su(2) group of test_invariant_basis_same_as_full_svd
    yield "su(2) group", build_coset(realize(AlgebraSpec((("A", 1, Fraction(1)),))),
                                     SubalgebraSpec(), name="su(2) group")


def mismatches() -> list:
    """Names of the (space, quantity) pairs that differ from the oracle."""
    bad = []
    for name, sp in _spaces():
        if not np.array_equal(norms.invariant_quadratic_space(sp), oracle_quadratic_space(sp)):
            bad.append(f"{name}: invariant_quadratic_space")
        if not np.array_equal(norms.invariant_vectors(sp), oracle_vectors(sp)):
            bad.append(f"{name}: invariant_vectors")
        new = [json.dumps(norms.random_invariant_norm(sp, s).to_json(), sort_keys=True)
               for s in (0, 1)]
        engine = norms.invariant_quadratic_space
        norms.invariant_quadratic_space = oracle_quadratic_space
        try:
            old = [json.dumps(norms.random_invariant_norm(sp, s).to_json(), sort_keys=True)
                   for s in (0, 1)]
        finally:
            norms.invariant_quadratic_space = engine
        bad += [f"{name}: random_invariant_norm seed {s}" for s in (0, 1) if new[s] != old[s]]
    return bad


@pytest.mark.parametrize("threads", ["1", "2"])
def test_null_spaces_match_the_plain_svd_bit_for_bit(threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, __file__], capture_output=True, text=True,
                          env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


if __name__ == "__main__":
    print(json.dumps(mismatches()))
