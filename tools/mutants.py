"""One-line mutants of the program's discrete gates, run against the tests.

Each mutant is data: a file under `src/`, a text that occurs in it exactly
once and the text that replaces it.  For each mutant the script copies the
tree's `src/` and `tests/`, with the `bench/` and `demos/` files the tests
read, to a temporary directory, applies the mutant there and runs

    python -m pytest -q -x tests --ignore tests/test_qnum.py --ignore tests/test_lattice.py

with that copy's `src/` on the path, leaving out `tests/test_mutants.py`
too, which fails on any mutated copy by design.  A mutant is killed when the run fails
and alive when it passes; a gate whose mutant stays alive decides nothing
that a test sees.  The unmutated copy runs first and must pass, else the
script stops with exit code 1.  The checkout itself is never edited.

Usage, from the root of a checkout:

    python tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "demos")
PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "tests",
          "--ignore", "tests/test_qnum.py", "--ignore", "tests/test_lattice.py",
          "--ignore", "tests/test_mutants.py"]

CURV, COSET, LIEALG, NORMS, CLI, OBSTRUCT = (f"src/flagcurv/{m}.py" for m in (
    "curvature", "coset", "liealg", "norms", "cli", "obstruct"))

# (name, file, old text, new text)
MUTANTS = [
    # the matrix layer's gates
    ("coset.ROW_TOL 1e-9 -> 1e-5", COSET,
     "ROW_TOL = 1e-9", "ROW_TOL = 1e-5"),
    ("t cap m check 1e-9 -> 1e-3", COSET,
     "> 1e-9 * max(1.0, np.linalg.norm(c))", "> 1e-3 * max(1.0, np.linalg.norm(c))"),
    ("root-plane alignment 1e-9 -> 1e-3", LIEALG,
     "if resid > 1e-9 * max(1.0, speed):", "if resid > 1e-3 * max(1.0, speed):"),
    ("plane_kind 'h' branch 1e-9 -> 1e-3", COSET,
     "if xin < 1e-9 and yin < 1e-9:", "if xin < 1e-3 and yin < 1e-3:"),
    ("DROP_TOL 1e-10 -> 1e-7", LIEALG,
     "DROP_TOL = 1e-10", "DROP_TOL = 1e-7"),
    ("gram_schmidt stop at dim g deleted", LIEALG,
     "        if n == alg.dim:  # an orthonormal set cannot outgrow the algebra\n"
     "            break\n",
     ""),
    # the norms
    ("NULL_TOL 1e-8 -> 1e-6", NORMS,
     "NULL_TOL = 1e-8", "NULL_TOL = 1e-6"),
    ("QUARTIC_TERMS 3 -> 1", NORMS,
     "QUARTIC_TERMS = 3", "QUARTIC_TERMS = 1"),
    ("INVARIANCE_SAMPLES 20 -> 2", NORMS,
     "INVARIANCE_SAMPLES = 20", "INVARIANCE_SAMPLES = 2"),
    ("CLI norm_invariance 1e-8 -> 1e-2", CLI,
     '"norm_invariance": 1e-8,', '"norm_invariance": 1e-2,'),
    # the curvature engine
    ("ETA_ZERO_TOL 1e-10 -> 1e-6", CURV,
     "ETA_ZERO_TOL = 1e-10", "ETA_ZERO_TOL = 1e-6"),
    ("spray speed floor ETA_ZERO_TOL -> 1e-3", CURV,
     "np.maximum(speed, ETA_ZERO_TOL)", "np.maximum(speed, 1e-3)"),
    ("pole step where=h > 0 -> h >= 0", CURV,
     "where=h > 0)", "where=h >= 0)"),
    ("COMMUTE_TOL gate -> 1e-3", CURV,
     "if br > COMMUTE_TOL * max(scale, 1.0):", "if br > 1e-3 * max(scale, 1.0):"),
    ("method_agreement loop never runs", CURV,
     "for i in np.flatnonzero(br < COMMUTE_TOL):", "for i in np.flatnonzero(br < -1.0):"),
    ("ETA_HYP_TOL 1e-8 -> 1e-2", CURV,
     "ETA_HYP_TOL = 1e-8", "ETA_HYP_TOL = 1e-2"),
    ("DEGENERATE_TOL 1e-10 -> 1e-4", CURV,
     "DEGENERATE_TOL = 1e-10", "DEGENERATE_TOL = 1e-4"),
    ("flag gate denom > 0", CURV,
     "denom > DEGENERATE_TOL * uu * vv", "denom > 0"),
    ("ZERO_K_TOL 1e-8 -> 1e-4", CURV,
     "ZERO_K_TOL = 1e-8", "ZERO_K_TOL = 1e-4"),
    ("exclusion_witness_pair fallback < 1e-12 -> < 1e-30", CURV,
     "if np.linalg.norm(v) < 1e-12:", "if np.linalg.norm(v) < 1e-30:"),
    # classify_case1's branches, each deleted
    ("case I: torus-fixed factor exclusion deleted", OBSTRUCT,
     "                return _excluded(space, Witness(\"key_lemma_1\", "
     "{\"gamma\": r, \"detail\": why}),\n"
     "                                 \"first key lemma forces the whole factor into h\")\n",
     "                pass\n"),
    ("case I: degenerate-candidate ValueError deleted", OBSTRUCT,
     "            raise ValueError(\"degenerate candidate: m = t cap m is one-dimensional\")\n",
     "            pass\n"),
    ("case I: abelian unresolved verdict deleted", OBSTRUCT,
     "        return Verdict(\"unresolved\",\n"
     "                       detail=\"abelian component present but no table entry \"\n",
     "        Verdict(\"unresolved\",\n"
     "                       detail=\"abelian component present but no table entry \"\n"),
    ("case I: single-factor pair search deleted", OBSTRUCT,
     "        verdict = _kl2_pair_search(space, nonh[active[0]])\n"
     "        if verdict:\n"
     "            return verdict\n",
     ""),
    ("case I: multi-factor pair search deleted", OBSTRUCT,
     "    verdict = _kl2_pair_search(space, cand)\n"
     "    if verdict:\n"
     "        return verdict\n",
     ""),
    ("case I: no-A1-factor verdict deleted", OBSTRUCT,
     "    if a1 is None:\n        return Verdict(\"unresolved\",\n",
     "    if a1 is None:\n        Verdict(\"unresolved\",\n"),
    ("case I: table match guard deleted", OBSTRUCT,
     "    if not _h_is_w_perp(space, i):\n        return None\n",
     ""),
]


def fails(mutant=None) -> str:
    """The first failing test on a copy of the tree, with the mutant
    (name, file, old, new) applied if one is given; "" when all pass."""
    with tempfile.TemporaryDirectory(prefix="flagcurv-mutant-") as tmp:
        tree = Path(tmp)
        for d in COPIED:
            shutil.copytree(ROOT / d, tree / d,
                            ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
        if mutant is not None:
            name, file, old, new = mutant
            text = (tree / file).read_text()
            if text.count(old) != 1:
                raise ValueError(f"{name}: its text occurs {text.count(old)} times in {file}")
            (tree / file).write_text(text.replace(old, new))
        env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run(PYTEST, cwd=tree, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
    if done.returncode == 0:
        return ""
    lines = done.stdout.splitlines()
    return next((ln.split()[1] for ln in lines if ln.startswith(("FAILED ", "ERROR "))),
                f"exit code {done.returncode}")


def main() -> int:
    first = fails()
    if first:
        print(f"the tests fail on the unmutated copy ({first}); no mutant was run")
        return 1
    alive = 0
    for m in MUTANTS:
        by = fails(m)
        alive += not by
        print(f"killed  {m[0]}  ({m[1]}) by {by}" if by else f"ALIVE   {m[0]}  ({m[1]})",
              flush=True)
    print(f"{len(MUTANTS) - alive} killed, {alive} alive")
    return 0


if __name__ == "__main__":
    sys.exit(main())
