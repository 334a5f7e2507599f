"""Tooling guard: sampled curvature still matches the benchmark's reference.

The benchmark counts a flags-* call as correct only when its K extremes
agree with `bench/reference.json` to `K_REL_TOL` relative, and its own
tests run outside this suite.  This test loads `bench/workloads.py` by
path (read-only, as `test_bench_bindings.py` loads the tracer) and runs its
checks on every flags-finsler preset at both norm seeds and two call seeds,
and on every flags-normal preset at one call seed, so a change that would
turn benchmark calls into failures fails here first.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from flagcurv.coset import parse_preset
from flagcurv.curvature import sample_flags
from flagcurv.norms import Quadratic, random_invariant_norm

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


W = _load_workloads()
FINSLER_CALL_SEEDS = (0, W.FINSLER_CALL_SEEDS - 1)
NORMAL_CALL_SEED = 0


@pytest.fixture(scope="module")
def reference():
    return W.load_reference()


@pytest.fixture(scope="module")
def spaces():
    return {p: parse_preset(f"preset:{p}") for p in {*W.FINSLER_PRESETS, *W.NORMAL_PRESETS}}


@pytest.mark.parametrize("preset", W.FINSLER_PRESETS)
def test_finsler_extremes_match_the_reference(spaces, reference, preset):
    sp = spaces[preset]
    for norm_seed in range(W.FINSLER_NORM_SEEDS):
        norm = random_invariant_norm(sp, norm_seed)
        for call_seed in FINSLER_CALL_SEEDS:
            report = sample_flags(sp, norm, W.SAMPLES, call_seed)
            assert W.check_finsler(preset, norm_seed, call_seed, report, reference) is None


@pytest.mark.parametrize("preset", W.NORMAL_PRESETS)
def test_normal_extremes_match_the_reference(spaces, reference, preset):
    sp = spaces[preset]
    report = sample_flags(sp, Quadratic(np.eye(sp.dim_m)), W.SAMPLES, NORMAL_CALL_SEED)
    assert W.check_normal(preset, NORMAL_CALL_SEED, report, reference) is None


def test_the_check_counts_a_moved_extreme(spaces, reference):
    """The check itself fails on an extreme moved by twice its tolerance."""
    preset = W.NORMAL_PRESETS[0]
    sp = spaces[preset]
    report = sample_flags(sp, Quadratic(np.eye(sp.dim_m)), W.SAMPLES, NORMAL_CALL_SEED)
    report["K_max"] *= 1.0 + 2.0 * W.K_REL_TOL
    assert "K_max" in W.check_normal(preset, NORMAL_CALL_SEED, report, reference)
