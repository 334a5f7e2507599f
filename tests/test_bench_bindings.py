"""Tooling guard: the benchmark still finds every `flagcurv` name it uses.

`bench/tracer.py` patches the functions its `TARGETS` name, by module and
qualified name, and `bench/test_bench.py` and `bench/worker.py` call a few
more.  The benchmark's own tests run outside this suite, so a cut in `src/`
that drops or moves one of these names would first show as a broken traced
run.  This test loads the tracer by path and resolves each target the way
the tracer does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
NAMED = sorted({(module, name) for _, module, name, _ in tracer.TARGETS
                if not name.startswith("*.")})


@pytest.mark.parametrize("module,qualname", NAMED, ids=[f"{m}:{q}" for m, q in NAMED])
def test_tracer_target_resolves(module, qualname):
    assert tracer._resolve(importlib.import_module(module), qualname)


def test_names_the_bench_calls_exist():
    from flagcurv import cli, coset, curvature, liealg, norms, obstruct, rootsys
    assert liealg.AlgebraSpec is rootsys.AlgebraSpec
    assert callable(coset.cartan_coordinate_basis)
    assert obstruct.tvec_dot is coset.tvec_dot
    assert rootsys.QNum.__radd__ is rootsys.QNum.__add__
    for fn in (cli.run, coset.parse_preset, norms.Quadratic, norms.random_invariant_norm,
               curvature.sample_flags, curvature.verify_exclusion_witness):
        assert callable(fn)


def test_resolve_fails_on_a_missing_name():
    with pytest.raises(KeyError):
        tracer._resolve(importlib.import_module("flagcurv.rootsys"), "QNum.no_such_method")
