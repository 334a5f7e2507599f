"""Command-line interface: verbs, exit codes, determinism, file schemas."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
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
# The same at `--max-rank 12`.
VERIFY_FULL_RANK12_SHA256 = {
    1: "38a8fdc7ccee74e8972056fdaf04d1fb9229c1622559f6d8b8a774d0e846103c",
    2: "c249150c81fde116fb7a917fe0b780f8cb261ad6bf54919c925faadec3426187",
    3: "c7829e7f99f925036b76c2f7aa30bb04d6717f61aeab974fceb80520826d0588",
}

# The same at rank 16, the CLI's largest bound (about 0.3 s per part).
VERIFY_FULL_RANK16_SHA256 = {
    1: "7b7de247b5b18b73d472f2e9662d971a06931ae932d0e05dbf73b1b1a1df821e",
    2: "31c3eca8f99a715881161250023f9c04edbc7a504ce334b470e6267e5eeb5557",
    3: "adde61877dedc224b444c3693f90690452eaa439d4161048b2b2cd527350fe8c",
}

# The same at the small rank bounds, keyed by (max_rank, theorem): the
# expected sets and the rank-3 and rank-4 table rows change from one bound
# to the next.
VERIFY_FULL_SMALL_RANK_SHA256 = {
    (1, 1): "978e5988469401bd94c3e22555e5483fe048c94eca23a5d181454ad05e26ce8e",
    (1, 2): "5500d47e9e786f99bd1d6bf561d7daedd3132ec290cda61b0177f9e3908d2faf",
    (1, 3): "6b219cfc845c47e6a6b20594fab9b533f01dc58edb9444abd40544c9db1f2c83",
    (2, 1): "73adb436e32f0715fda29f13ac85dca3d34681d8a1794af1db57a78b41de06ea",
    (2, 2): "9f2c043663c0dc1b182f02bc79ffe8f3c14d8ec2ba1ab8220a5585671a3225e1",
    (2, 3): "61700de359e01cd10589429f752b996d6e44f11ccddbdcdb0dad63c47ab7fb2a",
    (3, 1): "1983b8337d03958cc7a1cdc126c8395f41ac71debd8159ea0d6c004ee69d2bb6",
    (3, 2): "9c977812fa8d230ccd7cae5f8f9c33ffa88291072ce70465f74d2edd51f0f3dc",
    (3, 3): "1d41c8b3ee09b125e354fabfcad2f3a820a8f2da2fb5f9437349048f490c9455",
    (4, 1): "663c65677dfb0107b4fb8138c55f0d2f5674e14bcf6413f79fe44ed0dd60cae4",
    (4, 2): "3865371328cf9d361a397252d0162dc980c54bb10e91934875e30dfeb506e35c",
    (4, 3): "d415d711496d65147e2e4cce71811ba03d666a56054e989eeb809252c2a1f203",
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

# SHA-256 of `space build --preset` and `classify --space` stdout for one
# instance of each of the nine presets, keyed by (verb, preset).
PRESET_STDOUT_SHA256 = {
    ("space", "sphere_so2n(4)"): "61d0e2a475fc68bf7e2137029acf52b0819149c8faeeb9ac4229e611653ff923",
    ("classify", "sphere_so2n(4)"): "2b10400b0778f9b3f8d46f17b8be623c05ce35d9b06cd5ec714e1f7bf42ef079",
    ("space", "sphere_un(3)"): "871024ffce4f1da4e1bb6416dea588d7e48bf961dfb90e54dbcfaaaa0cdfaa94",
    ("classify", "sphere_un(3)"): "ad315f625e211e3ba27a8c54f52a130bfbe01a8ded1b8b655770acde88fb2a37",
    ("space", "sphere_spn_u1(2)"): "40a8016465c42ce0f2a5d88a5330f1efb0c9356c91b55ae1796b19585aa104cf",
    ("classify", "sphere_spn_u1(2)"): "e3c64301d64c507dd082a9883d280e1642fa148db63c15de36c93daea87562bd",
    ("space", "sphere_spn_sp1(2)"): "bcf3700fbd4aaf9d361b7df05e91fec673b664f157e702c521e86ae5441a8f78",
    ("classify", "sphere_spn_sp1(2)"): "1daa5bdd48d83cefbc8cab96efa3175db98fcc56cfec5cbada8e8f9b60677d8b",
    ("space", "aloff_wallach(1,2)"): "f9c06736ef7655fdf5ad3b479a894834329f0e356e0a5633b8a1b9d02c8de2a5",
    ("classify", "aloff_wallach(1,2)"): "3046f941b4f6ec508b9839dbbba2cea87d690c9e86b4c1f40c5794f1c2834963",
    ("space", "berger_sp2"): "bb236bce0afecea667417d47c05f43936086b9200eeb37d715acb74639544d25",
    ("classify", "berger_sp2"): "c3b9d49c27c98f5d160dbf06e0fd06683fd427a68bd9f24c93826ee12cbe20b1",
    ("space", "bn_excluded_subcase1(2)"): "cc786a71e10a5ee12463beab50df8d86d85776f31f4da505dd4c14ee2e08399b",
    ("classify", "bn_excluded_subcase1(2)"): "066ccf46c49915be3d373d8827e63cc7d7ac0fb1db89247e923647280f3c32d7",
    ("space", "a1a1_diagonal(1)"): "8928b69636c69a8cc9cb2ce1e23e2cf40b473e5d1fb39df619e8f30199c53b7e",
    ("classify", "a1a1_diagonal(1)"): "4651ea3b8525e771507730446e864451f0bf4777414020010b99034c8f49533b",
    ("space", "cn_excluded_subcase1(3)"): "de03f8c2879d285a109a54e72f20216a5d7596404f85c46344e7dcf1c09b090d",
    ("classify", "cn_excluded_subcase1(3)"): "9e0ed126263afcd1ddb0239c8e3cc62cd590e621c8993c0b5e88074043f150cf",
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

@pytest.mark.parametrize("verb,name", sorted(PRESET_STDOUT_SHA256))
def test_preset_stdout_is_pinned(verb, name):
    argv = ["space", "build", "--preset"] if verb == "space" else ["classify", "--space"]
    code, out, _ = invoke(argv + [f"preset:{name}"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PRESET_STDOUT_SHA256[verb, name]


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


def test_space_rank_counts_t_cap_h_not_listed_vectors(tmp_path):
    """A Cartan vector listed twice spans a one-dimensional t cap h: rk h
    is 1, the rank equality holds, and classify's own summary agrees with
    the case it prints."""
    e2 = {"factors": [[{"a": "0", "b": "0", "c": "0", "d": "0"},
                       {"a": "1", "b": "0", "c": "0", "d": "0"}]], "abelian": []}
    path = _space_file(tmp_path, {
        "algebra": {"factors": [{"family": "B", "rank": 2, "scale": "1"}],
                    "abelian_dim": 0},
        "cartan_h": [e2, e2], "name": "B2 over a repeated Cartan vector"})
    code, out, _ = invoke(["space", "build", "--file", path])
    assert code == 0
    info = json.loads(out)
    assert (info["dim_h"], info["rank_g"], info["rank_h"]) == (1, 2, 1)
    assert info["rank_equality"] and info["case"] == "I"
    code, out, _ = invoke(["classify", "--space", path])
    assert code == 0
    res = json.loads(out)
    assert res["space"]["rank_equality"] and res["space"]["case"] == res["case"] == "I"


_SQRT2 = {"a": "0", "b": "1", "c": "0", "d": "0"}
_ONE_PLUS_SQRT2 = {"a": "1", "b": "1", "c": "0", "d": "0"}


@pytest.mark.parametrize("coord", [_SQRT2, _ONE_PLUS_SQRT2], ids=["sqrt2", "1+sqrt2"])
@pytest.mark.parametrize("field", ["cartan_h", "h_root_vectors"])
def test_space_file_torus_vectors_must_be_on_the_lattice(tmp_path, coord, field):
    """A B2 torus direction (1, sqrt2) has an irrational slope: it is not the
    Lie algebra of a closed subgroup, so the file fails closed (exit 1, JSON
    error) instead of building and classifying."""
    one = {"a": "1", "b": "0", "c": "0", "d": "0"}
    tv = {"factors": [[one, coord]], "abelian": []}
    spec = {
        "algebra": {"factors": [{"family": "B", "rank": 2, "scale": "1"}],
                    "abelian_dim": 0},
        "cartan_h": [tv] if field == "cartan_h" else [],
        "h_roots": [],
        "name": "irrational slope",
    }
    if field == "h_root_vectors":
        spec["h_root_vectors"] = [tv]
    path = tmp_path / "b2.json"
    path.write_text(json.dumps(spec))
    code, out, _ = invoke(["classify", "--space", str(path)])
    assert code == 1
    assert "not a rational multiple" in json.loads(out)["error"]


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
    from flagcurv.norms import random_invariant_norm
    sp = preset("a1a1_diagonal", 1)
    norm = random_invariant_norm(sp, 2)
    path = tmp_path / "norm.json"
    path.write_text(json.dumps(norm.to_json(), sort_keys=True))
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


@pytest.mark.parametrize("verb,space", [("curvature", "sphere_un(3)"),
                                        ("witness", "bn_excluded_subcase1(2)")])
def test_a_negative_seed_is_a_usage_error(verb, space):
    code, out, err = invoke([verb, "--space", f"preset:{space}", "--seed", "-1"])
    assert code == 2 and out == ""
    assert "--seed: must be at least 0, got -1" in err


@pytest.mark.parametrize("metric", ["quartic:-1", "invariant:-1"])
def test_a_negative_norm_seed_fails_closed_naming_the_seed(metric):
    name = metric.partition(":")[0]
    _assert_fails_closed(["curvature", "--space", "preset:sphere_un(3)", "--metric", metric],
                         f"the seed of {name} must be a nonnegative integer, got -1")


def test_printed_closure_tolerances_are_the_checks_constants(monkeypatch):
    """The closure and exactness entries of the printed table are read off
    the constants that coset's checks compare against, so they cannot drift
    apart; the table prints no entry that decides nothing."""
    from flagcurv import coset
    monkeypatch.setattr(coset, "CLOSURE_TOL", 3e-9)
    monkeypatch.setattr(coset, "REDUCTIVE_TOL", 4e-11)
    monkeypatch.setattr(coset, "ORTHO_TOL", 5e-13)
    for argv in (["curvature", "--space", "preset:sphere_un(3)", "--samples", "2"],
                 ["witness", "--space", "preset:bn_excluded_subcase1(2)"]):
        code, out, _ = invoke(argv)
        tol = json.loads(out)["tolerances"]
        assert code == 0 and (tol["subalgebra_closure"], tol["reductive_closure"],
                              tol["exactness"]) == (3e-9, 4e-11, 5e-13)
        assert sorted(tol) == ["exactness", "norm_invariance", "reductive_closure",
                               "subalgebra_closure", "witness_curvature", "witness_u_map"]


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


@pytest.mark.parametrize("theorem", [1, 2, 3])
def test_verify_full_stdout_is_pinned_at_rank_12(theorem):
    code, out, _ = invoke(["verify", "--theorem", str(theorem), "--full", "--max-rank", "12"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_FULL_RANK12_SHA256[theorem]


@pytest.mark.parametrize("theorem", [1, 2, 3])
def test_verify_full_stdout_is_pinned_at_rank_16(theorem):
    code, out, _ = invoke(["verify", "--theorem", str(theorem), "--full", "--max-rank", "16"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_FULL_RANK16_SHA256[theorem]


@pytest.mark.parametrize("max_rank,theorem", sorted(VERIFY_FULL_SMALL_RANK_SHA256))
def test_verify_full_stdout_is_pinned_at_small_ranks(max_rank, theorem):
    code, out, _ = invoke(["verify", "--theorem", str(theorem), "--full",
                           "--max-rank", str(max_rank)])
    # part 1 has no row below rank 2, and a scan without rows is no match
    assert code == (3 if (max_rank, theorem) == (1, 1) else 0)
    assert hashlib.sha256(out.encode()).hexdigest() == \
        VERIFY_FULL_SMALL_RANK_SHA256[max_rank, theorem]


@pytest.mark.parametrize("theorem", [1, 2, 3])
def test_verify_stdout_does_not_depend_on_the_hash_seed(theorem):
    src = str(Path(flagcurv.__file__).resolve().parents[1])
    outs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "flagcurv.cli", "verify", "--theorem", str(theorem),
             "--full"], capture_output=True, text=True, env=env, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert hashlib.sha256(outs[0].encode()).hexdigest() == VERIFY_FULL_SHA256[theorem]


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


PARSER_ARGVS = [
    ["--help"], [], ["frobnicate"], ["-x"], ["--help", "verify"], ["space", "bogus"],
    ["space", "build"], ["space", "build", "--help"],
    ["space", "build", "--file", "a", "--preset", "b"],
    ["roots", "A"], ["roots", "A", "0"], ["roots", "A", "x"], ["roots", "A", "3", "extra"],
    ["verify", "--theorem", "4"], ["verify", "--theorem", "1", "--bogus"], ["verify", "--the", "x"],
    ["witness", "--seed", "x", "--space", "s"], ["curvature", "--space", "s", "--metric"],
    ["curvature", "--space", "s", "--samples", "0"],
] + [[verb, *tail] for verb in ("roots", "space", "classify", "curvature", "witness", "verify")
     for tail in ([], ["--help"])]


@pytest.mark.parametrize("columns", ["40", "80"])
def test_one_verb_parser_prints_what_the_full_parser_prints(monkeypatch, columns):
    """`run` builds the subparser of the verb in first place only; help,
    usage errors and exit codes are those of the parser of every verb,
    whose usage names all the verbs, at any terminal width."""
    from flagcurv import cli
    monkeypatch.setenv("COLUMNS", columns)
    one_verb = [invoke(argv) for argv in PARSER_ARGVS]
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda verb=None: full())
    assert one_verb == [invoke(argv) for argv in PARSER_ARGVS]
    assert sum(code == 2 for code, _, _ in one_verb) > 20


def test_a_verb_builds_only_its_own_parsers(monkeypatch):
    import argparse
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert invoke(["verify", "--theorem", "1", "--max-rank", "1"])[0] == 3
    assert built == ["flagcurv", "flagcurv verify"]
    built.clear()
    assert invoke(["space", "build"])[0] == 2
    assert built == ["flagcurv", "flagcurv space", "flagcurv space build"]
    built.clear()
    assert invoke(["frobnicate"])[0] == 2 and len(built) == 8


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


@pytest.mark.parametrize("eps", ["nan", "inf", "-inf"])
def test_randers_epsilon_must_be_finite(eps):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = invoke(["curvature", "--space", "preset:sphere_un(3)",
                               "--metric", f"randers:{eps}", "--samples", "3"])
    assert code == 1 and json.loads(out)["error"] == f"randers epsilon must be finite, not {eps}"
    assert not caught, [str(w.message) for w in caught]


def test_norm_file_must_be_invariant(tmp_path):
    import numpy as np
    from flagcurv.norms import Quadratic
    a = np.random.default_rng(0).standard_normal((5, 5))
    path = tmp_path / "norm.json"
    path.write_text(json.dumps(Quadratic(a @ a.T + np.eye(5)).to_json(), sort_keys=True))
    _assert_fails_closed(["curvature", "--space", "preset:sphere_un(3)",
                          "--metric", str(path), "--samples", "3"], "not Ad(H)-invariant")


def _eye(n):
    return [[float(i == j) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("payload,match", [
    ([1, 2], "malformed norm file: TypeError"),
    ("quadratic", "malformed norm file: TypeError"),
    ({"family": "quartic", "weights": [1], "quadratics": []}, "quadratics has shape (0,)"),
    ({"family": "quartic", "weights": [1, 1], "quadratics": [_eye(5)]}, "weights has shape (2,)"),
    ({"family": "quadratic", "gram": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]}, "gram has shape (2, 3)"),
    ({"family": "quadratic", "gram": _eye(2)}, "norm acts on R^2, but dim m = 5"),
    ({"family": "quadratic", "gram": [[float("nan")] * 5] + _eye(5)[1:]},
     "malformed norm file: ValueError: gram has entries that are not finite"),
    ({"family": "randers", "gram": _eye(5), "b": [float("inf"), 0.0, 0.0, 0.0, 0.0]},
     "malformed norm file: ValueError: b has entries that are not finite"),
])
def test_malformed_norm_file_fails_closed(tmp_path, payload, match):
    path = tmp_path / "norm.json"
    path.write_text(json.dumps(payload))
    _assert_fails_closed(["curvature", "--space", "preset:sphere_un(3)",
                          "--metric", str(path), "--samples", "3"], match)


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


_ZERO = {"a": "0", "b": "0", "c": "0", "d": "0"}


@pytest.mark.parametrize("bad", [0.1, 1.0, True], ids=["float", "integral-float", "bool"])
@pytest.mark.parametrize("field", ["coordinate", "root", "scale", "abelian_scales"])
def test_space_file_exact_values_are_strings_or_ints(tmp_path, field, bad):
    """JSON 0.1 is not 1/10 and true is not 1: an exact value (a coordinate,
    a root entry, a factor scale, an abelian scale) given as a float or a
    bool fails closed, where the same file with "1" builds."""
    one = {**_ZERO, "a": "1"}
    obj = {"algebra": _algebra(("B", 2), abelian_dim=1, abelian_scales=["1"]),
           "cartan_h": [{"factors": [[_ZERO, one]], "abelian": [_ZERO]}],
           "h_roots": [{"factor": 0, "root": [_ZERO, dict(one)]}]}
    code, _, _ = invoke(["space", "build", "--file", _space_file(tmp_path, obj)])
    assert code == 0
    if field == "coordinate":
        obj["cartan_h"][0]["factors"][0][1]["a"] = bad
    elif field == "root":
        obj["h_roots"][0]["root"][1]["a"] = bad
    elif field == "scale":
        obj["algebra"]["factors"][0]["scale"] = bad
    else:
        obj["algebra"]["abelian_scales"] = [bad]
    _assert_fails_closed(["space", "build", "--file", _space_file(tmp_path, obj)],
                         f"exact value must be a string or an integer, got {bad!r}")


@pytest.mark.parametrize("name", ["sphere_so2n", "sphere_un", "sphere_spn_u1",
                                  "sphere_spn_sp1", "bn_excluded_subcase1",
                                  "cn_excluded_subcase1"])
def test_space_file_rank_cap_admits_every_preset(name):
    from flagcurv import coset, rootsys
    spec = coset.preset(name, coset.MAX_PRESET_RANK).algebra.spec
    assert rootsys.AlgebraSpec.from_json(spec.to_json()) == spec


@pytest.mark.parametrize("preset", ["bn_excluded_subcase1(2)", "a1a1_diagonal(1)"])
def test_classify_fails_closed_when_a_witness_does_not_replay(monkeypatch, preset):
    from flagcurv import obstruct
    monkeypatch.setattr(obstruct, "revalidate_witness", lambda space, witness: False)
    _assert_fails_closed(["classify", "--space", f"preset:{preset}"], "does not replay")


def test_a_non_symmetric_norm_file_fails_closed(tmp_path):
    gram = _eye(5)
    gram[0][1] = 0.5
    path = tmp_path / "norm.json"
    path.write_text(json.dumps({"family": "quadratic", "gram": gram}))
    _assert_fails_closed(["curvature", "--space", "preset:sphere_un(3)", "--metric", str(path),
                          "--samples", "3"], "malformed norm file: ValueError: gram is not symmetric")


def test_metric_names_a_built_in_only_by_its_exact_name(tmp_path, monkeypatch):
    """A norm file named quartic.json is read as a file, like the same file
    under another name; a missing randers.json is a missing file."""
    from flagcurv.coset import preset
    from flagcurv.norms import random_invariant_norm
    monkeypatch.chdir(tmp_path)
    text = json.dumps(random_invariant_norm(preset("a1a1_diagonal", 1), 5).to_json())
    reports = {}
    for metric in ("quartic.json", "norm.json", "quartic"):
        if metric.endswith(".json"):
            (tmp_path / metric).write_text(text)
        code, out, _ = invoke(["curvature", "--space", "preset:a1a1_diagonal(1)",
                               "--metric", metric, "--samples", "5", "--seed", "1"])
        assert code == 0
        reports[metric] = json.loads(out)
    for key in ("K_min", "K_max", "flags"):
        assert reports["quartic.json"][key] == reports["norm.json"][key]
    assert reports["quartic.json"]["K_min"] != reports["quartic"]["K_min"]
    for metric, match in [("randers.json", "No such file"), ("quadratic:2", "no parameter")]:
        _assert_fails_closed(["curvature", "--space", "preset:sphere_un(3)",
                              "--metric", metric, "--samples", "3"], match)


@pytest.mark.parametrize("argv", [
    ["space", "build", "--preset", "preset:sphere_un(3.5)"],
    ["classify", "--space", "preset:sphere_spn_sp1(5/2)"],
])
def test_a_non_integer_preset_rank_fails_closed(argv):
    src = str(Path(flagcurv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "flagcurv.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    assert "takes an integer n" in json.loads(proc.stdout)["error"]


def _cli_process(argv):
    src = str(Path(flagcurv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-m", "flagcurv.cli", *argv],
                          capture_output=True, text=True, env=env)


@pytest.mark.parametrize("argv", [
    ["classify", "--space", "preset:a1a1_diagonal(1e308)"],
    ["classify", "--space", "preset:aloff_wallach(10000000000000000,1)"],
    ["curvature", "--space", "preset:aloff_wallach(1,-1000001)", "--samples", "3"],
    ["space", "build", "--preset", "preset:a1a1_diagonal(1000001/1000000)"],
], ids=["overflowing-slope", "k-plus-l-rounds-to-k", "l-past-the-cap", "denominator-past-the-cap"])
def test_a_preset_parameter_past_the_cap_fails_closed(argv):
    """Torus parameters above MAX_PRESET_PARAM exit 1 with a JSON error:
    1e308 overflowed a float conversion, and k = 10^16 built and classified
    from floats in which k + l equals k."""
    proc = _cli_process(argv)
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    assert "at most 1000000" in json.loads(proc.stdout)["error"]


def test_the_preset_parameter_cap_builds_classifies_and_witnesses():
    from flagcurv.coset import MAX_PRESET_PARAM, preset
    cap = MAX_PRESET_PARAM
    for args in [(cap, 1), (1, -cap), (-cap, 1)]:
        code, out, _ = invoke(["classify", "--space", f"preset:aloff_wallach({args[0]},{args[1]})"])
        assert code == 0 and json.loads(out)["verdict"]["outcome"] == "survivor"
    for c in (str(cap), str(-cap), f"{cap}/{cap - 1}"):
        code, out, _ = invoke(["witness", "--space", f"preset:a1a1_diagonal({c})"])
        assert code == 0, out
    with pytest.raises(ValueError, match="at most"):
        preset("aloff_wallach", cap + 1, 1)


@pytest.mark.parametrize("k,l", [(-3000, 2999), (-10000, 9999), (1000000, 999999)])
def test_aloff_wallach_with_k_plus_l_small_against_k_completes_its_basis(k, l):
    """Basis completion stops at dim g: on these valid spaces rounding left a
    tenth element above the Gram-Schmidt drop tolerance, after the nine that
    (-1000, 999) accepts at the same input positions, and classify exited 1
    with "basis completion failed"."""
    code, out, _ = invoke(["classify", "--space", f"preset:aloff_wallach({k},{l})"])
    assert code == 0, out
    payload = json.loads(out)
    assert payload["verdict"]["outcome"] == "survivor"
    assert payload["space"]["case"] == "I" and payload["space"]["hat_blocks"] == [1, 2, 2, 2]


def test_a_flat_torus_has_zero_curvature_and_cross_checks_every_flag(tmp_path):
    """On the torus R^2 (abelian_dim 2, no factors) every bracket vanishes:
    K = 0 on every flag, and each flag also takes the commutative-pair route
    (method_agreement)."""
    path = _space_file(tmp_path, {"algebra": {"factors": [], "abelian_dim": 2}})
    code, out, _ = invoke(["curvature", "--space", path, "--samples", "5"])
    assert code == 0, out
    rep = json.loads(out)
    assert rep["flags"] == 5 and rep["K_min"] == rep["K_max"] == 0.0
    assert rep["method_agreement_max_rel_err"] == 0.0
    assert [f["K"] for f in rep["zero_flags"]] == [0.0] * 5


def test_a_space_file_coordinate_past_float_range_fails_closed(tmp_path):
    one = {**_ZERO, "a": "1e400"}
    path = _space_file(tmp_path, {"algebra": _algebra(("B", 2)),
                                  "cartan_h": [{"factors": [[_ZERO, one]], "abelian": []}]})
    for argv in (["space", "build", "--file", path], ["classify", "--space", path]):
        proc = _cli_process(argv)
        assert proc.returncode == 1 and "Traceback" not in proc.stderr
        assert "does not fit a float" in json.loads(proc.stdout)["error"]


def _b2_file(tmp_path, c):
    """B2 with t cap h the line of (0, c)."""
    return _space_file(tmp_path, {"algebra": _algebra(("B", 2)), "cartan_h": [
        {"factors": [[_ZERO, {**_ZERO, "a": c}]], "abelian": []}]})


def _abelian_file(tmp_path, c):
    """A1 + R with t cap h the line of (1, -1; c)."""
    return _space_file(tmp_path, {"algebra": _algebra(("A", 1), abelian_dim=1), "cartan_h": [
        {"factors": [[{**_ZERO, "a": "1"}, {**_ZERO, "a": "-1"}]], "abelian": [{**_ZERO, "a": c}]}]})


@pytest.mark.parametrize("make,c", [(_b2_file, "1e153"), (_b2_file, "1e160"),
                                    (_b2_file, "1e300"), (_abelian_file, "1e400")])
def test_a_space_file_coordinate_past_the_float_bound_fails_closed(tmp_path, make, c):
    """Below float range a coordinate can still overflow the squares that
    the Gram-Schmidt and the inner products take: the B2 files used to build
    hat blocks [2, 6] (c = 1 gives [3, 6]) or print an overflow
    RuntimeWarning.  The abelian part used to exit with an OverflowError
    traceback."""
    proc = _cli_process(["space", "build", "--file", make(tmp_path, c)])
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert "does not fit a float" in json.loads(proc.stdout)["error"]


def test_a_large_space_file_coordinate_below_the_bound_builds(tmp_path):
    code, out, _ = invoke(["space", "build", "--file", _b2_file(tmp_path, "1e150")])
    assert code == 0 and json.loads(out)["hat_blocks"] == [3, 6]


def _scaled_file(tmp_path, where, s):
    """B2 with factor scale s, or A1 + R with abelian scale s, each with the
    t cap h line of the files above at c = 1."""
    if where == "factor":
        path = _b2_file(tmp_path, "1")
        key, value = "factors", [{"family": "B", "rank": 2, "scale": s}]
    else:
        path = _abelian_file(tmp_path, "1")
        key, value = "abelian_scales", [s]
    obj = json.loads(Path(path).read_text())
    obj["algebra"][key] = value
    return _space_file(tmp_path, obj)


@pytest.mark.parametrize("where,s", [("factor", "1e400"), ("factor", "1e-200"),
                                     ("abelian", "1e400"), ("abelian", "1e-200"),
                                     ("factor", "1048577"), ("abelian", "1/1048577")])
def test_a_space_file_scale_past_the_bound_fails_closed(tmp_path, where, s):
    """A scale outside [2^-20, 2^20] exits 1 with a JSON error.  1e400 used
    to exit with an OverflowError traceback, a factor scale of 1e-200 with
    the error "", and an abelian scale of 1e-200 built hat blocks [0, 2],
    where scale 1 gives [1, 2]."""
    proc = _cli_process(["space", "build", "--file", _scaled_file(tmp_path, where, s)])
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    assert "scale lies outside [2^-20, 2^20]" in json.loads(proc.stdout)["error"]


@pytest.mark.parametrize("s", ["1/1048576", "1", "1048576"])
def test_a_space_file_scale_at_the_bound_builds(tmp_path, s):
    for where, blocks in (("factor", [3, 6]), ("abelian", [1, 2])):
        code, out, _ = invoke(["space", "build", "--file", _scaled_file(tmp_path, where, s)])
        assert code == 0 and json.loads(out)["hat_blocks"] == blocks, (where, out)


@pytest.mark.parametrize("eps,code", [(0.0, 0), (1e-5, 1)])
def test_curvature_takes_a_norm_only_within_the_invariance_gate(tmp_path, eps, code):
    """The norm_invariance gate (1e-8) from both sides: on sphere_un(3) the
    gram I is invariant (residual at rounding), while I + 1e-5 E_11 has a
    residual of about 4e-5, far below 1e-2 and far above 1e-8, and exits 1."""
    from flagcurv.cli import TOLERANCES
    from flagcurv.coset import preset
    from flagcurv.norms import Quadratic, check_invariance
    gram = _eye(5)
    gram[1][1] += eps
    resid = check_invariance(Quadratic(gram), preset("sphere_un", 3))["max_residual"]
    assert (1e-6 < resid < 1e-3) if eps else resid < 1e-14
    path = tmp_path / "norm.json"
    path.write_text(json.dumps({"family": "quadratic", "gram": gram}))
    argv = ["curvature", "--space", "preset:sphere_un(3)", "--metric", str(path), "--samples", "3"]
    if code:
        _assert_fails_closed(argv, f"above {TOLERANCES['norm_invariance']:g}")
    else:
        got, out, _ = invoke(argv)
        assert got == 0 and json.loads(out)["invariance_residual"] == resid


@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("argv", [["roots", "A", "3"], ["roots", "E6", "7"],
                                  ["verify", "--theorem", "1", "--max-rank", "5", "--full"]])
def test_a_closed_stdout_exits_with_its_code_and_nothing_more(argv, buffered):
    """A reader that is gone before the output (`| head -c 10`), also of a
    JSON error (E6 of rank 7): the CLI writes nothing more and exits
    CLOSED_STDOUT_EXIT with an empty stderr.  It used to exit 1 with two
    BrokenPipeError tracebacks (the second from its JSON error), or, with
    block-buffered stdout and a short output, 120 from the interpreter's
    last flush."""
    from flagcurv.cli import CLOSED_STDOUT_EXIT
    src = str(Path(flagcurv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)  # no reader left: the first write to the pipe fails with EPIPE
    try:
        proc = subprocess.run([sys.executable, "-m", "flagcurv.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (CLOSED_STDOUT_EXIT, "")
