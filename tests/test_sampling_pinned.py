"""sample_flags pinned to values recorded before stacked evaluation.

Each row is (preset, norm seed or None for Quadratic(I), call seed, K_min,
K_max, candidates_evaluated, rejected) of sample_flags(space, norm, 50,
call seed), recorded with the one-flag-at-a-time sampler that preceded the
stacked one (Python 3.11, numpy 2.4, OpenBLAS).  The stacked engine sums
in a different order, so K agrees to 1e-9 relative, not bit for bit; the
counts agree exactly.
"""

import numpy as np
import pytest

from flagcurv.coset import parse_preset
from flagcurv.curvature import sample_flags
from flagcurv.norms import Quadratic, random_invariant_norm

PINNED = [
    ('sphere_un(3)', 0, 0, 0.22319421534481115, 0.9660984624872071, 50, 0),
    ('sphere_un(3)', 0, 5, 0.15828672737142688, 0.9086676566320585, 50, 0),
    ('sphere_un(3)', 1, 0, 0.16427015312315485, 0.493927361450648, 50, 0),
    ('sphere_un(3)', 1, 5, 0.1479009090890863, 0.45209750684907873, 50, 0),
    ('sphere_spn_u1(2)', 0, 0, 0.11540392874624146, 1.0749294245964203, 50, 0),
    ('sphere_spn_u1(2)', 0, 5, 0.15436201488280782, 1.2229882281488234, 50, 0),
    ('sphere_spn_u1(2)', 1, 0, 0.3733762044633489, 0.9305464246369232, 50, 0),
    ('sphere_spn_u1(2)', 1, 5, 0.33303172563169303, 0.9258811699922922, 50, 0),
    ('sphere_spn_sp1(2)', 0, 0, 0.3219709228479861, 1.2382618882536585, 50, 0),
    ('sphere_spn_sp1(2)', 0, 5, 0.3110950758892129, 1.309361572209696, 50, 0),
    ('sphere_spn_sp1(2)', 1, 0, 0.2456323798386324, 1.072212618874271, 50, 0),
    ('sphere_spn_sp1(2)', 1, 5, 0.26625163587605444, 1.1676288103994876, 50, 0),
    ('aloff_wallach(1,2)', 0, 0, 0.019661512421032278, 0.40935611506995206, 50, 0),
    ('aloff_wallach(1,2)', 0, 5, 0.03343068219615265, 0.4320348699331809, 50, 0),
    ('aloff_wallach(1,2)', 1, 0, 0.021624565363070277, 0.6886616254146823, 50, 0),
    ('aloff_wallach(1,2)', 1, 5, 0.050993032023398104, 0.6418682651069492, 50, 0),
    ('bn_excluded_subcase1(2)', 0, 0, 0.03465801466373958, 0.5393615883108352, 50, 0),
    ('bn_excluded_subcase1(2)', 0, 5, 0.033560694345181934, 0.5227862195897902, 50, 0),
    ('bn_excluded_subcase1(2)', 1, 0, 0.041461908129645696, 0.7303329323190263, 50, 0),
    ('bn_excluded_subcase1(2)', 1, 5, 0.039894880367292926, 0.72130468204767, 50, 0),
    ('a1a1_diagonal(1)', 0, 0, -0.10755731225532839, 0.6144588462343469, 50, 0),
    ('a1a1_diagonal(1)', 0, 5, -0.4767613570959025, 0.5530531549549639, 50, 0),
    ('a1a1_diagonal(1)', 1, 0, 0.05823796988428449, 0.5356471956520553, 50, 0),
    ('a1a1_diagonal(1)', 1, 5, 0.03349489136196443, 0.48931918604385743, 50, 0),
    ('cn_excluded_subcase1(3)', 0, 0, 0.06950110041877662, 0.33072199424847404, 50, 0),
    ('cn_excluded_subcase1(3)', 0, 5, 0.07846122325683548, 0.35150367883259925, 50, 0),
    ('cn_excluded_subcase1(3)', 1, 0, 0.053215371516969964, 0.2673409557122246, 50, 0),
    ('cn_excluded_subcase1(3)', 1, 5, 0.04870227653191333, 0.34642752689827433, 50, 0),
    ('sphere_so2n(4)', None, 0, 0.9999999999999994, 1.0000000000000013, 50, 0),
    ('sphere_so2n(4)', None, 5, 0.9999999999999991, 1.0000000000000002, 50, 0),
    ('berger_sp2', None, 0, 0.11865535022184812, 1.168320349310644, 50, 0),
    ('berger_sp2', None, 5, 0.06096637331985498, 1.2733122347408334, 50, 0),
    ('aloff_wallach(1,2)', None, 0, 0.05875551187950337, 0.9567159747250282, 50, 0),
    ('aloff_wallach(1,2)', None, 5, 0.05375194611610643, 0.9980759132558004, 50, 0),
]


@pytest.fixture(scope="module")
def spaces():
    return {name: parse_preset(f"preset:{name}") for name in {row[0] for row in PINNED}}


@pytest.mark.parametrize("row", PINNED, ids=lambda r: f"{r[0]}-{r[1]}-{r[2]}")
def test_sampling_matches_pinned_values(spaces, row):
    name, norm_seed, call_seed, k_min, k_max, evaluated, rejected = row
    sp = spaces[name]
    norm = (Quadratic(np.eye(sp.dim_m)) if norm_seed is None
            else random_invariant_norm(sp, norm_seed))
    rep = sample_flags(sp, norm, 50, call_seed)
    assert (rep["candidates_evaluated"], rep["rejected"]) == (evaluated, rejected)
    assert rep["K_min"] == pytest.approx(k_min, rel=1e-9, abs=0)
    assert rep["K_max"] == pytest.approx(k_max, rel=1e-9, abs=0)
