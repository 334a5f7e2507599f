"""The benchmark's own tests: every correctness check catches a corrupted
output, failures are counted rather than skipped, and the tracer patches
every binding of a wrapped name.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer as T  # noqa: E402
import worker  # noqa: E402
import workloads as W  # noqa: E402


# -- the checks themselves ---------------------------------------------------

def test_verify_check_catches_perturbed_stdout_and_exit_code():
    good = b'{"match": true, "rows": []}\n'
    ref = {"verify": {"2": {"sha256": hashlib.sha256(good).hexdigest()}}}
    assert W.check_verify(2, good, 0, ref) is None
    assert W.check_verify(2, good.replace(b"true", b"True"), 0, ref)
    assert W.check_verify(2, good + b" ", 0, ref)
    assert W.check_verify(2, good, 3, ref)


def test_sample_checks_catch_shifted_k_and_missing_flags():
    want = {"K_min": 0.25, "K_max": -0.125}
    ref = {"flags-normal": {"p": {7: want}}, "flags-finsler": {"p": {1: {7: want}}}}
    ok = {"flags": 50, "K_min": 0.25 * (1 + 1e-9), "K_max": -0.125, "extra": [1]}
    assert W.check_normal("p", 7, ok, ref) is None
    assert W.check_finsler("p", 1, 7, ok, ref) is None
    bad = [dict(ok, K_min=0.25 * (1 + 2e-6)), dict(ok, K_max=0.125),
           dict(ok, K_max=float("nan")), dict(ok, flags=49),
           {k: v for k, v in ok.items() if k != "K_min"}, None]
    for rep in bad:
        assert W.check_normal("p", 7, rep, ref)
        assert W.check_finsler("p", 1, 7, rep, ref)


def test_witness_check_uses_readme_thresholds():
    ok = {"u_map_norm": 9e-8, "K_commutative": -9e-7, "K_general": 9e-7, "extra": 1}
    assert W.check_witness("p", ok) is None
    for key, val in (("u_map_norm", 2e-7), ("K_commutative", 2e-6),
                     ("K_general", -2e-6), ("K_general", None), ("u_map_norm", float("nan"))):
        assert W.check_witness("p", dict(ok, **{key: val}))


def test_reference_covers_every_pool_seed():
    ref = W.load_reference()
    assert set(ref["verify"]) == {"1", "2", "3"}
    assert all(len(ref["flags-normal"][p]) == W.NORMAL_CALL_SEEDS for p in W.NORMAL_PRESETS)
    for p in W.FINSLER_PRESETS:
        assert len(ref["flags-finsler"][p]) == W.FINSLER_NORM_SEEDS
        assert all(len(r) == W.FINSLER_CALL_SEEDS for r in ref["flags-finsler"][p])


def test_call_seeds_are_deterministic_and_disjoint_between_workers():
    a = W.call_seeds("flags-normal", 5, 0, 3)
    assert a == W.call_seeds("flags-normal", 5, 0, 3)
    assert a != W.call_seeds("flags-normal", 6, 0, 3)
    mine = [{r[p] for r in W.call_seeds("flags-normal", 5, c, 80)}
            for c in range(W.SLOTS["flags-normal"]) for p in W.NORMAL_PRESETS[:1]]
    assert not (mine[0] & mine[1]) and not (mine[1] & mine[2])


# -- failures reach fail counts -----------------------------------------------

def _job(workload, **kw):
    return {"workload": workload, "seed": 3, "child": 0, "rounds": 1, "warmup": False,
            "trace": False, "t0": time.time(), **kw}


def _clock():
    return calibrate.SetupClock(time.time(), False)


def test_verify_worker_counts_perturbed_and_raising_runs(monkeypatch):
    from flagcurv import cli
    monkeypatch.setattr(cli, "run", lambda argv: print('{"rows": []}') or 0)
    res = worker._run_verify(_job("exact-verify", theorem=3), None, _clock())
    assert res["attempted"] == 1 and len(res["failures"]) == 1

    def boom(argv):
        raise ValueError("corrupted")
    monkeypatch.setattr(cli, "run", boom)
    res = worker._run_verify(_job("exact-verify", theorem=3), None, _clock())
    assert res["attempted"] == 1 and "ValueError" in res["failures"][0]


class _FakeSpace:
    dim_m = 3


def test_flags_worker_counts_shifted_and_raising_calls(monkeypatch):
    from flagcurv import coset, curvature
    ref = W.load_reference()
    shifted, raising = W.NORMAL_PRESETS[1], W.NORMAL_PRESETS[4]
    spaces = {}

    def parse(text):
        spaces[text] = _FakeSpace()
        return spaces[text]

    def sample(space, norm, n, seed):
        p = next(t for t, s in spaces.items() if s is space)[len("preset:"):]
        if p == raising:
            raise ValueError("Hessian Gram matrix not positive definite")
        want = ref["flags-normal"][p][seed]
        k_min = want["K_min"] * (1 + 1e-4 if p == shifted else 1)
        return {"flags": n, "K_min": k_min, "K_max": want["K_max"], "new_key": 0}

    monkeypatch.setattr(coset, "parse_preset", parse)
    monkeypatch.setattr(curvature, "sample_flags", sample)
    res = worker._run_flags(_job("flags-normal"), None, _clock())
    assert res["attempted"] == len(W.NORMAL_PRESETS)
    assert len(res["failures"]) == 2
    assert any(shifted in f for f in res["failures"])
    assert any(raising in f and "ValueError" in f for f in res["failures"])


def test_witness_worker_counts_raising_and_nonzero_calls(monkeypatch):
    from flagcurv import coset, curvature
    bad_k, raising = W.WITNESS_PRESETS[0], W.WITNESS_PRESETS[5]
    monkeypatch.setattr(coset, "parse_preset", lambda text: text[len("preset:"):])

    def witness(space, seed):
        if space == raising:
            raise ValueError("space has no exclusion witness")
        return {"u_map_norm": 0.0, "K_general": 0.0,
                "K_commutative": 1e-3 if space == bad_k else 0.0}

    monkeypatch.setattr(curvature, "verify_exclusion_witness", witness)
    res = worker._run_witness(_job("witness-build"), None, _clock())
    assert res["attempted"] == len(W.WITNESS_PRESETS) and len(res["failures"]) == 2


def test_failures_lower_pass_frac():
    w = {"attempted": 4, "failures": ["x"], "op_s": [1.0, 3.0], "norm_s": [2.0, 4.0],
         "setup_s": 0.5, "setup_norm_s": 0.25, "maxrss_kb": 2048}
    metrics = run.end_to_end([[w], [dict(w, failures=[])]], "flags-normal")
    assert metrics["pass_frac"][0] == pytest.approx(1 - 1 / 8)
    assert metrics["pass_norm_s"][0] == 3.0 and metrics["setup_s"][0] == 0.25
    assert metrics["peak_rss_mb"][0] == 2.0


# -- calibration -----------------------------------------------------------------

def test_normalized_rescales_by_the_harmonic_mean_of_kernel_times():
    ref = calibrate.REF_S
    assert calibrate.normalized(3.0, [ref, ref]) == pytest.approx(3.0)
    assert calibrate.normalized(3.0, [2 * ref] * 3) == pytest.approx(1.5)
    # a kernel run stalled ten times over moves the result little
    assert calibrate.normalized(3.0, [ref] * 9 + [10 * ref]) == pytest.approx(3.0 * 9.1 / 10)


def test_calibrator_samples_during_a_long_call_and_takes_its_time_out():
    kernel_s = 0.02

    def kernel():
        end = time.perf_counter() + kernel_s
        while time.perf_counter() < end:
            pass
        return kernel_s

    def busy():
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
        return "done"

    cal = calibrate.Calibrator(kernel)
    start = time.perf_counter()
    result, took, ticks = cal.timed(busy)
    wall = time.perf_counter() - start
    assert result == "done" and len(ticks) >= 3
    assert took == pytest.approx(wall - len(ticks) * kernel_s, abs=0.005)
    result, took, ticks = calibrate.Calibrator().timed(lambda: 1 / 0)
    assert isinstance(result, ZeroDivisionError) and ticks == []


def test_timed_round_normalizes_each_call_by_its_own_samples(monkeypatch):
    times = iter([0.01, 0.02, 0.04])  # before call 1, after 1 = before 2, after 2
    monkeypatch.setattr(calibrate.Calibrator, "bracket", lambda self: [next(times)])
    monkeypatch.setattr(calibrate.Calibrator, "timed", lambda self, thunk: (thunk(), 1.0, []))
    results, op_s, norm = worker._timed_round(
        [("a", lambda: 1), ("b", lambda: 2)], _job("flags-normal", calibrate=True))
    assert results == [("a", 1), ("b", 2)] and op_s == 2.0
    ref = calibrate.REF_S
    # harmonic means: 2 / (1/0.01 + 1/0.02) and 2 / (1/0.02 + 1/0.04)
    assert norm == pytest.approx(ref * (100 + 50) / 2 + ref * (50 + 25) / 2)


# -- tracer --------------------------------------------------------------------

def test_tracer_patches_every_binding_and_restores_them():
    from flagcurv import coset, obstruct, rootsys
    from flagcurv.liealg import AlgebraSpec
    originals = (coset.tvec_dot, obstruct.tvec_dot, rootsys.QNum.__radd__)
    assert obstruct.tvec_dot is coset.tvec_dot
    spec = AlgebraSpec.from_json({"factors": [{"family": "B", "rank": 2, "scale": "1"}],
                                  "abelian_dim": 0})

    def traced_counts():
        tr = T.Tracer()
        tr.install()
        try:
            assert obstruct.tvec_dot is coset.tvec_dot is not originals[0]
            assert rootsys.QNum.__radd__ is rootsys.QNum.__add__
            cartan = [coset.cartan_coordinate_basis(spec)[0]]
            obstruct.make_root_level_space(spec, cartan)
        finally:
            tr.uninstall()
        return tr.aggregate()

    first = traced_counts()
    assert (coset.tvec_dot, obstruct.tvec_dot, rootsys.QNum.__radd__) == originals
    calls = first["calls"]
    for name in ("obstruct.make_root_level_space", "rootsys.build_root_system",
                 "coset.orthocomplement_in_t", "coset.tvec_dot", "rootsys.qnum_ops",
                 "rootsys.exact_linalg"):
        assert calls.get(name, 0) > 0, name
    assert traced_counts()["calls"] == calls
    assert all(v >= 0 for v in first["self_s"].values())


def test_self_time_excludes_child_spans():
    tr = T.Tracer()
    tr.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1]]
    agg = tr.aggregate()["self_s"]
    assert agg == {"a": 7.0, "b": 2.0, "c": 1.0}


# -- whole runs ------------------------------------------------------------------

def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def test_fails_without_printing_a_result_when_sources_are_missing(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _bench("--workload", "flags-normal", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_run_reports_every_declared_metric(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _bench("--workload", "flags-normal", "--seed", "2", "--seconds", "0.3",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
