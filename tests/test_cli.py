"""Command-line interface: verbs, exit codes, determinism, file schemas."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flagcurv
from flagcurv.cli import run

# SHA-256 of `verify --theorem k --full` stdout at the default rank bound 8.
VERIFY_FULL_SHA256 = {
    1: "f76efe8025edd71286417adce45ad96988711e6fcb2d6ba222fb40ac010babaa",
    2: "d60bb180e53cd503912acf1969b44a68f08af404dd31ea9a74c4ea52e2ef7f53",
    3: "423dc787f250103e49b1e63e8d08d665143b760814e025379d7ccf91fb470d17",
}


# SHA-256 of `roots <family> <rank>` stdout: the exact root order, for every
# family up to rank 8.
ROOTS_SHA256 = {
    ("A", 1): "1e84adeab9c0a5b2516b75dcf00b06b65035b7c9d241690814352fdfa4ab3547",
    ("A", 2): "b7e7bfb0abb6ffd61bad53c81151d7ff817660b76ce142fe7b6ec1f61db69ecc",
    ("A", 3): "6016ef77f120fa17273d209b21e87a1660fa972219659745de9f4e34544c8b12",
    ("A", 4): "c4c1296ee3781a02be294c3028183f66291d37b13e594d1d71711b103d6b9542",
    ("A", 5): "841c24aa06435f5f741e9672ec25e2fc9663e3e45262bc9372ff0b031136da24",
    ("A", 6): "b2ff49119b7b3ea8dd5c571a13ad476cbd567e7419146ecd24d31b61386cb703",
    ("A", 7): "a3f9fd5ce8691e3ec3957eb0bfc80f4ec649ec696ea86807ca8ca1b381aadaf9",
    ("A", 8): "561734046d5750a4bcacf8884cd208cb239b15181fcd1709902f1a6a0aed53fe",
    ("B", 2): "b9021fe2a31d869f70321896bdefc1df120e25fad34a8f8623d5363414705ef9",
    ("B", 3): "b58362b24467c45528d9fdec9b5f0443124774751315c6f83650aa0be4e7b4f7",
    ("B", 4): "a9fc2b40c17477dc7d789599dd9383fbb6dce95538c9ddcdee22e905aec282d8",
    ("B", 5): "6e0090f467677027ff316f1ea6be0c27202fa232f506ae101ca6c2ee3c5219bf",
    ("B", 6): "a83fa7a5423ca237d4f49f0137ac095dfa8bd18065766c23232f33c5fc530267",
    ("B", 7): "392a3de1001047a2b4304b41c517b657220fce25f64931efc715889f43e3bde6",
    ("B", 8): "b9ab5dd648c86f848a3d6037ee609dd7e81cfcb59ffcf7c77307c817fbbde9d9",
    ("C", 3): "aab8cf82ead6ccff3e7afce558d5fe59a70bed1830130e3d71b435dda7bea06b",
    ("C", 4): "480665b29ff42b17642bea2e96cc6795f9a1970711e5119c4c59ec33584169d1",
    ("C", 5): "1f01cbacd6b0c880cdf608853f9be6683711ec93ac64c4eee82d4e371a8ed96a",
    ("C", 6): "c29af279516236039c322ba207a05e7c782686112c2a01097b7629e4afd48829",
    ("C", 7): "a0a1bf1eec7fc71e5630d0cd4484e274e2edb5f1b9388b0e4d06b7f90ac64a69",
    ("C", 8): "f05a56e18d7ab9a9dbf87b2c25f51775849343ea621fe15e770b96e808f9b85d",
    ("D", 4): "6e4b554be52d7a2e94e9fc4053fb71a828b8302b21f57ebb4bea2e91b5f47f22",
    ("D", 5): "b6afed8ceef0e4187c178b4d46c2562f6dc77e4a22f485b189d0210b30c4c53a",
    ("D", 6): "e6f35b46025dc6a4513f7e4cc16e53b163d98b8b5245ae386b648f9919c7a619",
    ("D", 7): "1e9543b66462f82855b99937e1f2100287e03b8a03f47982f591e6ff91ee2f27",
    ("D", 8): "4445d670b5e5ad8d828deea5e235ab953cf8298137bfc1ec9391988d4aa2fbdf",
    ("E6", 6): "2e4ebe45c6658055ec8a9984a9b1434d3723aa917c2aededf2ef461d02adf8ef",
    ("E7", 7): "d4cc355d1942925a6b330e990a682dddd8ebae09d79b07e32f9675da078efe46",
    ("E8", 8): "eabd842412c79aeca6639c0c7f0b34a43a779a92ee6bc0ae90aa9f1fa0a0aca8",
    ("F4", 4): "2cbf20ff6eebe39cdaa33090694ce2decaacf44e7ee46a72845df5c575257263",
    ("G2", 2): "36d248430ddb7f04ee591818646d1a821cba0146bb31b2305144258e492c8740",
}

def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_roots_verb():
    code, out, err = invoke(["roots", "G2", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["family"] == "G2" and len(payload["roots"]) == 12
    code, out, _ = invoke(["roots", "B", "3"])
    assert code == 0 and len(json.loads(out)["roots"]) == 18
    code, _, _ = invoke(["roots", "D", "2"])
    assert code == 1



@pytest.mark.parametrize("family,rank", sorted(ROOTS_SHA256))
def test_roots_stdout_is_pinned(family, rank):
    code, out, _ = invoke(["roots", family, str(rank)])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ROOTS_SHA256[family, rank]

def test_space_build_preset():
    code, out, _ = invoke(["space", "build", "--preset", "preset:sphere_un(3)"])
    assert code == 0
    info = json.loads(out)
    assert info["dim_m"] == 5 and info["rank_equality"] and info["case"] == "I"


def test_space_build_from_file(tmp_path):
    spec = {
        "algebra": {"factors": [{"family": "A", "rank": 1, "scale": "1"}],
                    "abelian_dim": 0},
        "cartan_h": [],
        "h_roots": [],
        "name": "su(2) group from file",
    }
    path = tmp_path / "space.json"
    path.write_text(json.dumps(spec))
    code, out, _ = invoke(["space", "build", "--file", str(path)])
    assert code == 0
    info = json.loads(out)
    assert info["dim_m"] == 3 and info["dim_h"] == 0


def test_space_build_file_with_h_roots(tmp_path):
    from flagcurv.rootsys import rv
    spec = {
        "algebra": {"factors": [{"family": "B", "rank": 2, "scale": "1"}],
                    "abelian_dim": 0},
        "cartan_h": [{"factors": [[{"a": "0", "b": "0", "c": "0", "d": "0"},
                                   {"a": "1", "b": "0", "c": "0", "d": "0"}]],
                      "abelian": []}],
        "h_roots": [{"factor": 0,
                     "root": [{"a": "0", "b": "0", "c": "0", "d": "0"},
                              {"a": "1", "b": "0", "c": "0", "d": "0"}]}],
        "name": "so(5)/(so(3)+t) slice",
    }
    path = tmp_path / "b2.json"
    path.write_text(json.dumps(spec))
    code, out, _ = invoke(["space", "build", "--file", str(path)])
    assert code == 0
    info = json.loads(out)
    assert info["dim_h"] == 3 and info["dim_m"] == 7


def test_classify_verb():
    code, out, _ = invoke(["classify", "--space", "preset:berger_sp2"])
    assert code == 0
    res = json.loads(out)
    assert res["case"] == "III" and res["verdict"]["outcome"] == "survivor"
    code, out, _ = invoke(["classify", "--space", "preset:a1a1_diagonal(1)"])
    res = json.loads(out)
    assert code == 0 and res["verdict"]["outcome"] == "excluded"


def test_curvature_verb_and_determinism():
    argv = ["curvature", "--space", "preset:bn_excluded_subcase1(2)",
            "--metric", "quartic:5", "--samples", "12", "--seed", "3"]
    c1, o1, _ = invoke(argv)
    c2, o2, _ = invoke(argv)
    assert c1 == c2 == 0
    assert o1 == o2
    rep = json.loads(o1)
    assert rep["flags"] == 12 and "tolerances" in rep
    assert rep["candidates_evaluated"] == rep["flags"] + rep["rejected"]
    assert 0 <= rep["max_solve_residual"] < 1e-10
    assert rep["max_eta_norm"] > 0 and rep["max_fd_step"] > 0


def test_curvature_with_norm_file(tmp_path):
    from flagcurv.coset import preset
    from flagcurv.norms import random_invariant_norm, norm_to_json_str
    sp = preset("a1a1_diagonal", 1)
    norm = random_invariant_norm(sp, 2)
    path = tmp_path / "norm.json"
    path.write_text(norm_to_json_str(norm))
    code, out, _ = invoke(["curvature", "--space", "preset:a1a1_diagonal(1)",
                           "--metric", str(path), "--samples", "5", "--seed", "1"])
    assert code == 0
    assert json.loads(out)["flags"] == 5


def test_curvature_samples_below_one_is_a_usage_error():
    for n in ("0", "-3", "two"):
        code, out, err = invoke(["curvature", "--space", "preset:sphere_un(3)",
                                 "--samples", n])
        assert code == 2 and out == ""
        assert "--samples" in err


def test_curvature_summary_counts_returned_flags(monkeypatch):
    from flagcurv import curvature

    def short(space, norm, n, seed):
        return {"flags": n - 2, "K_min": 0.5, "K_max": 1.0, "zero_flags": [],
                "method_agreement_max_rel_err": None}

    monkeypatch.setattr(curvature, "sample_flags", short)
    code, out, err = invoke(["curvature", "--space", "preset:sphere_un(3)",
                             "--samples", "7"])
    assert code == 0 and json.loads(out)["flags"] == 5
    assert ": 5 flags," in err


def test_witness_verb():
    code, out, _ = invoke(["witness", "--space", "preset:bn_excluded_subcase1(2)",
                           "--seed", "7"])
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] and rep["u_map_norm"] < 1e-7
    code, _, _ = invoke(["witness", "--space", "preset:sphere_un(3)"])
    assert code == 1  # survivors carry no exclusion witness


def test_verify_verb_exit_codes():
    code, out, _ = invoke(["verify", "--theorem", "2", "--max-rank", "4"])
    assert code == 0
    rep = json.loads(out)
    assert rep["match"] and "rows" not in rep
    code, out, _ = invoke(["verify", "--theorem", "2", "--max-rank", "4", "--full"])
    assert code == 0 and "rows" in json.loads(out)
    code, out, _ = invoke(["verify", "--theorem", "1", "--max-rank", "2"])
    assert code == 0  # the scanned-rank restriction keeps small bounds consistent


@pytest.mark.parametrize("theorem", [1, 2, 3])
def test_verify_full_stdout_is_pinned(theorem):
    code, out, _ = invoke(["verify", "--theorem", str(theorem), "--full"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_FULL_SHA256[theorem]


def test_verify_stdout_does_not_depend_on_the_hash_seed():
    src = str(Path(flagcurv.__file__).resolve().parents[1])
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "flagcurv.cli", "verify", "--theorem", "3", "--full"],
            capture_output=True, text=True, env=env, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


def test_verify_theorem_3_keeps_to_the_rank_bound():
    code, out, _ = invoke(["verify", "--theorem", "3", "--max-rank", "1"])
    assert code == 0
    rep = json.loads(out)
    assert rep["survivors"] == ["S^3 = U(2)/U(1)"] and rep["match"]


@pytest.mark.parametrize("bad", ["0", "-1", "x"])
def test_verify_max_rank_must_be_a_positive_integer(bad):
    code, out, _ = invoke(["verify", "--theorem", "1", "--max-rank", bad])
    assert code == 2 and out == ""


def test_verify_without_rows_is_not_a_match():
    # theorem 1 has no case-III subcase at rank 1
    code, out, _ = invoke(["verify", "--theorem", "1", "--max-rank", "1", "--full"])
    assert code == 3
    rep = json.loads(out)
    assert rep["rows"] == [] and not rep["match"]


def test_verify_mismatch_exits_three(monkeypatch):
    from flagcurv import obstruct

    def broken(part, max_rank=8):
        return {"part": part, "max_rank": max_rank, "survivors": [],
                "expected": ["x"], "missing": ["x"], "extra": [],
                "unresolved": [], "rows": [], "match": False}

    monkeypatch.setattr(obstruct, "verify_theorem", broken)
    code, out, _ = invoke(["verify", "--theorem", "1"])
    assert code == 3
    assert not json.loads(out)["match"]


def test_usage_and_validation_errors():
    assert invoke(["frobnicate"])[0] == 2
    assert invoke([])[0] == 2
    code, out, _ = invoke(["classify", "--space", "preset:aloff_wallach(1,-1)"])
    assert code == 1
    assert "error" in json.loads(out)
    assert invoke(["space", "build", "--file", "/nonexistent.json"])[0] == 1


def _space_file(tmp_path, obj):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(obj))
    return str(path)


def _assert_fails_closed(argv, match):
    code, out, err = invoke(argv)
    assert code == 1 and "Traceback" not in err
    assert match in json.loads(out)["error"]


def _sp2_file(blocks):
    return {
        "algebra": {"factors": [{"family": "C", "rank": 2, "scale": "1"}],
                    "abelian_dim": 0},
        "extra_generators": [{"blocks": blocks}],
    }


def test_classify_without_rank_equality_fails_closed(tmp_path):
    # the SU(3) group: t cap m is the whole 2-dim torus
    path = _space_file(tmp_path, {
        "algebra": {"factors": [{"family": "A", "rank": 2, "scale": "1"}],
                    "abelian_dim": 0},
        "name": "su(3) group"})
    _assert_fails_closed(["classify", "--space", path], "rank equality fails")


def test_space_file_with_malformed_schema_fails_closed(tmp_path):
    path = _space_file(tmp_path, {"algebra": 5})
    _assert_fails_closed(["space", "build", "--file", path], "malformed space file")


def test_space_file_block_must_fit_its_factor(tmp_path):
    path = _space_file(tmp_path, _sp2_file(
        [{"kind": "real", "data": [[0.0, 1.0], [-1.0, 0.0]]}]))
    _assert_fails_closed(["space", "build", "--file", path], "finite 4 x 4 matrix")


def test_space_file_real_block_in_su_factor_builds(tmp_path):
    # a real antisymmetric matrix is an element of su(3)
    path = _space_file(tmp_path, {
        "algebra": {"factors": [{"family": "A", "rank": 2, "scale": "1"}],
                    "abelian_dim": 0},
        "extra_generators": [{"blocks": [{"kind": "real", "data": [
            [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]}]}],
    })
    code, out, err = invoke(["space", "build", "--file", path])
    assert code == 0
    report = json.loads(out.splitlines()[0])
    assert (report["dim_h"], report["dim_m"]) == (1, 7)


def test_space_file_generator_outside_g_fails_closed(tmp_path):
    # w = E_11 is a real diagonal quaternion matrix: not in sp(2)
    zero = [[0.0, 0.0], [0.0, 0.0]]
    path = _space_file(tmp_path, _sp2_file(
        [{"kind": "quaternion", "data": [[[1.0, 0.0], [0.0, 0.0]], zero, zero, zero]}]))
    _assert_fails_closed(["space", "build", "--file", path], "does not lie in g")


def test_randers_needs_a_fixed_vector():
    # SO(5) acts irreducibly on m = R^5: no invariant Randers form
    _assert_fails_closed(["curvature", "--space", "preset:sphere_so2n(3)",
                          "--metric", "randers", "--samples", "3"], "Ad(H)-fixed")


def test_randers_on_a_space_with_a_fixed_vector():
    code, out, _ = invoke(["curvature", "--space", "preset:sphere_un(3)",
                           "--metric", "randers", "--samples", "3"])
    assert code == 0
    rep = json.loads(out)
    assert rep["flags"] == 3 and rep["invariance_residual"] < 1e-12


def test_norm_file_must_be_invariant(tmp_path):
    import numpy as np
    from flagcurv.norms import Quadratic, norm_to_json_str
    a = np.random.default_rng(0).standard_normal((5, 5))
    path = tmp_path / "norm.json"
    path.write_text(norm_to_json_str(Quadratic(a @ a.T + np.eye(5))))
    _assert_fails_closed(["curvature", "--space", "preset:sphere_un(3)",
                          "--metric", str(path), "--samples", "3"], "not Ad(H)-invariant")


def _unreachable(*args, **kwargs):
    pytest.fail("a capped argument reached the builder")


@pytest.mark.parametrize("samples", ["100001", "1000000000"])
def test_samples_are_capped(monkeypatch, samples):
    from flagcurv import cli, curvature
    monkeypatch.setattr(curvature, "sample_flags", _unreachable)
    code, out, _ = invoke(["curvature", "--space", "preset:sphere_un(3)", "--samples", samples])
    assert code == 2 and out == ""
    seen = []

    def fake(space, norm, n, seed):
        seen.append(n)
        return {"flags": n, "K_min": 0.0, "K_max": 0.0}

    monkeypatch.setattr(curvature, "sample_flags", fake)
    code, _, _ = invoke(["curvature", "--space", "preset:sphere_un(3)",
                         "--samples", str(cli.MAX_SAMPLES)])
    assert code == 0 and seen == [cli.MAX_SAMPLES]


@pytest.mark.parametrize("argv,target", [
    (["roots", "A", "17"], "rootsys.build_root_system"),
    (["roots", "A", "100000"], "rootsys.build_root_system"),
    (["verify", "--theorem", "1", "--max-rank", "17"], "obstruct.verify_theorem"),
])
def test_ranks_are_capped(monkeypatch, argv, target):
    import flagcurv
    module, attr = target.split(".")
    monkeypatch.setattr(getattr(flagcurv, module), attr, _unreachable)
    code, out, _ = invoke(argv)
    assert code == 2 and out == ""


@pytest.mark.parametrize("verb", ["space", "curvature"])
@pytest.mark.parametrize("text", ["sphere_so2n(7)", "sphere_so2n(1e3)", "cn_excluded_subcase1(-9)"])
def test_preset_ranks_are_capped(monkeypatch, verb, text):
    from flagcurv import coset
    for name in ("sphere_so2n", "cn_excluded_subcase1"):
        monkeypatch.setitem(coset._PRESETS, name, (_unreachable, 1, True))
    argv = (["space", "build", "--preset", f"preset:{text}"] if verb == "space"
            else ["curvature", "--space", f"preset:{text}"])
    code, out, _ = invoke(argv)
    assert code == 1 and f"n <= {coset.MAX_PRESET_RANK}" in json.loads(out)["error"]


def test_preset_rank_cap_admits_its_bound(monkeypatch):
    from flagcurv import coset

    def reached(n):
        raise ValueError(f"reached with n = {n}")

    monkeypatch.setitem(coset._PRESETS, "sphere_un", (reached, 1, True))
    code, out, _ = invoke(["space", "build", "--preset", f"preset:sphere_un({coset.MAX_PRESET_RANK})"])
    assert code == 1 and json.loads(out)["error"] == f"reached with n = {coset.MAX_PRESET_RANK}"


def _algebra(*factors, **extra):
    return {"factors": [{"family": f, "rank": r, "scale": "1"} for f, r in factors], **extra}


@pytest.mark.parametrize("algebra,match", [
    (_algebra(("A", 2.5)), "rank must be an integer >= 1, got 2.5"),
    (_algebra(("A", True)), "rank must be an integer >= 1, got True"),
    (_algebra(("A", "3")), "rank must be an integer >= 1, got '3'"),
    (_algebra(("A", -5), ("A", 12)), "rank must be an integer >= 1, got -5"),
    (_algebra(("A", 2), abelian_dim=1.5), "abelian_dim must be an integer >= 0, got 1.5"),
    (_algebra(("A", 1000)), "total rank 1000"),
    (_algebra(("C", 6), ("A", 2)), "total rank 8"),
    (_algebra(("A", 1), abelian_dim=1000), "total rank 1001"),
])
def test_space_file_ranks_are_capped(monkeypatch, tmp_path, algebra, match):
    from flagcurv import coset, liealg, rootsys
    monkeypatch.setattr(coset, "realize", _unreachable)
    monkeypatch.setattr(liealg, "build_root_system", _unreachable)
    monkeypatch.setattr(rootsys, "build_root_system", _unreachable)
    path = _space_file(tmp_path, {"algebra": algebra})
    _assert_fails_closed(["space", "build", "--file", path], match)


@pytest.mark.parametrize("name", ["sphere_so2n", "sphere_un", "sphere_spn_u1",
                                  "sphere_spn_sp1", "bn_excluded_subcase1",
                                  "cn_excluded_subcase1"])
def test_space_file_rank_cap_admits_every_preset(name):
    from flagcurv import coset, torus
    spec = coset.preset(name, coset.MAX_PRESET_RANK).algebra.spec
    assert torus.AlgebraSpec.from_json(spec.to_json()) == spec
