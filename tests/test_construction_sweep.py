"""A derandomized sweep of the construction surface: `cli.main` on
`space build` and `classify`, with preset parameters around
MAX_PRESET_PARAM and space files whose scales sit around MAX_SCALE and whose
coordinates sit around MAX_LATTICE_COORD, each bound reached from both
sides, and exact values spelled with decimal exponents.  Every run must end
within the sweep's deadline with an exit code in {0, 1, 2, 3}, no
traceback, no warning and JSON (a report or an error) on stdout.
"""

import contextlib
import io
import json
import sys
import warnings
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flagcurv import cli
from flagcurv.coset import MAX_PRESET_PARAM
from flagcurv.liealg import MAX_LATTICE_COORD, MAX_SCALE
from flagcurv.rootsys import _frac

SWEEP = settings(max_examples=12, deadline=2000, derandomize=True,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])
# exact values spelled with a decimal exponent; 10**(10**7) took seconds to parse
EXPONENTS = st.sampled_from(["1e6", "-1e6", "1e-6", "1000000e0", "1e7", "1e4300", "1e10000000"])


def run_main(argv):
    """cli.main in process: (exit code, stdout).  Any exception other than
    SystemExit, and any warning, fails the caller."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
              pytest.MonkeyPatch.context() as m, pytest.raises(SystemExit) as exc):
            m.setattr(sys, "argv", ["flagcurv", *argv])
            cli.main()
    assert exc.value.code in (0, 1, 2, 3), (argv, exc.value.code)
    assert "Traceback" not in err.getvalue()
    return exc.value.code, out.getvalue()


def assert_closed(argv):
    code, out = run_main(argv)
    if code in (0, 1):
        report = json.loads(out)
        assert ("error" in report) == (code == 1), (argv, out)


def _near(bound):
    """bound + d, -(bound + d) and (2 bound + d)/2 for |d| <= 2, as exact strings."""
    return st.one_of(st.integers(-2, 2).map(lambda d: str(bound + d)),
                     st.integers(-2, 2).map(lambda d: str(-bound - d)),
                     st.integers(-2, 2).map(lambda d: f"{2 * bound + d}/2"))


@SWEEP
@given(verb=st.sampled_from([["space", "build", "--preset"], ["classify", "--space"]]),
       name=st.sampled_from(["aloff_wallach", "a1a1_diagonal"]),
       p=st.one_of(_near(MAX_PRESET_PARAM), EXPONENTS),
       q=st.sampled_from(["1", "2", str(MAX_PRESET_PARAM), f"1/{MAX_PRESET_PARAM + 1}"]))
def test_preset_parameters_around_the_cap(verb, name, p, q):
    args = f"{p},{q}" if name == "aloff_wallach" else p
    assert_closed([*verb, f"preset:{name}({args})"])


Q0 = {"a": "0", "b": "0", "c": "0", "d": "0"}


def _scale_file(where, s):
    """B2 with t cap h the line of e2 at factor scale s, or A1 + R with t cap
    h the line of (1, -1; 1) at abelian scale s."""
    if where == "factor":
        return {"algebra": {"factors": [{"family": "B", "rank": 2, "scale": s}]},
                "cartan_h": [{"factors": [[Q0, {**Q0, "a": "1"}]], "abelian": []}]}
    return {"algebra": {"factors": [{"family": "A", "rank": 1, "scale": "1"}], "abelian_dim": 1,
                        "abelian_scales": [s]},
            "cartan_h": [{"factors": [[{**Q0, "a": "1"}, {**Q0, "a": "-1"}]],
                          "abelian": [{**Q0, "a": "1"}]}]}


def assert_file_closed(tmp_path, verb, obj):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(obj))
    assert_closed([*verb, str(path)])


FILE_VERB = st.sampled_from([["space", "build", "--file"], ["classify", "--space"]])


@SWEEP
@given(verb=FILE_VERB, where=st.sampled_from(["factor", "abelian"]),
       s=st.one_of(_near(MAX_SCALE), st.integers(-2, 2).map(lambda d: f"1/{MAX_SCALE + d}"),
                   st.integers(-2, 2).map(lambda d: f"2/{2 * MAX_SCALE + d}"),
                   EXPONENTS))
def test_space_file_scales_around_the_bound(tmp_path, verb, where, s):
    assert_file_closed(tmp_path, verb, _scale_file(where, s))


@SWEEP
@given(verb=FILE_VERB, where=st.sampled_from(["b", "a"]),
       c=st.one_of(_near(MAX_LATTICE_COORD // 2), EXPONENTS))
def test_space_file_coordinates_around_the_bound(tmp_path, verb, where, c):
    """A coordinate x = n/2 with n about MAX_LATTICE_COORD, in the B2 part of
    a Cartan vector or in its abelian part."""
    obj = _scale_file("factor" if where == "b" else "abelian", "1")
    vec = obj["cartan_h"][0]
    if where == "b":
        vec["factors"][0][1] = {**Q0, "a": c}
    else:
        vec["abelian"][0] = {**Q0, "a": c}
    assert_file_closed(tmp_path, verb, obj)


@pytest.mark.parametrize("argv", [
    ["space", "build", "--preset", "preset:a1a1_diagonal(1e10000000)"],
    ["classify", "--space", "preset:aloff_wallach(1,1e-10000000)"],
], ids=["preset-parameter", "preset-denominator"])
def test_a_long_decimal_exponent_fails_closed_at_once(argv):
    """10**(10**7) took seconds to build before the cap rejected it."""
    code, out = run_main(argv)
    assert code == 1 and "has more than 4 digits" in json.loads(out)["error"]


@pytest.mark.parametrize("text,value", [
    ("1e1_0_0", 10 ** 100), ("-1e-0_0_9_9_9_9", -Fraction(1, 10 ** 9999)), ("1_0e+0_0_0_0_2", 1000),
])
def test_a_decimal_exponent_of_at_most_4_digits_is_read(text, value):
    """The exponent's digits count, not its "_" separators or leading zeros."""
    assert _frac(text) == value


@pytest.mark.parametrize("where,field", [("factor", "scale"), ("abelian", "coordinate")])
def test_a_space_file_value_with_a_long_decimal_exponent_fails_closed(tmp_path, where, field):
    obj = _scale_file(where, "1e-10000000" if field == "scale" else "1")
    if field == "coordinate":
        obj["cartan_h"][0]["abelian"][0] = {**Q0, "a": "1e10000000"}
    path = tmp_path / "space.json"
    path.write_text(json.dumps(obj))
    code, out = run_main(["space", "build", "--file", str(path)])
    assert code == 1 and "has more than 4 digits" in json.loads(out)["error"]
