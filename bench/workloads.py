"""Workload inputs and correctness checks, shared by the worker, the
reference recorder and the benchmark's own tests.  Standard library only.

Every check compares a program output with something taken from outside
the code under test: the witness thresholds of the README tolerance ladder,
or values captured once at the seed commit in ``reference.json`` (the
SHA-256 of ``verify`` stdout, ``normal_homogeneous_oracle`` values and the
Finsler sampling extremes).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

WORKLOADS = ("exact-verify", "flags-normal", "flags-finsler", "witness-build")

THEOREMS = (1, 2, 3)

# flags-normal: Quadratic(I) is the normal homogeneous metric (spray 0).
NORMAL_PRESETS = (
    "sphere_so2n(4)", "sphere_un(4)", "sphere_spn_u1(2)", "sphere_spn_sp1(3)",
    "berger_sp2", "aloff_wallach(1,2)", "cn_excluded_subcase1(3)",
)
# flags-finsler: presets whose spray under random_invariant_norm is nonzero.
FINSLER_PRESETS = (
    "sphere_un(3)", "sphere_spn_u1(2)", "sphere_spn_sp1(2)", "aloff_wallach(1,2)",
    "bn_excluded_subcase1(2)", "a1a1_diagonal(1)", "cn_excluded_subcase1(3)",
)
WITNESS_PRESETS = (
    "bn_excluded_subcase1(2)", "bn_excluded_subcase1(3)", "a1a1_diagonal(1)",
    "a1a1_diagonal(2)", "cn_excluded_subcase1(3)", "cn_excluded_subcase1(4)",
)

SAMPLES = 50  # the CLI's default --samples

# Pools of call seeds with recorded references.  A run walks a seed-chosen
# permutation of the pool, so no call within a run repeats a seed until the
# program is several times faster than at the seed commit.
NORMAL_CALL_SEEDS = 256
FINSLER_NORM_SEEDS = 2
FINSLER_CALL_SEEDS = 32

# README tolerance ladder: zero-curvature witnesses.
WITNESS_U_MAP = 1e-7
WITNESS_K = 1e-6
# Relative agreement of sampled curvature values with their reference.
K_REL_TOL = 1e-6

# Measuring slots per run.  Each slot sets up in fresh processes, then runs
# whole rounds within its share of --seconds (at least one round), so
# pass_norm_s is a median over rounds.  A round of exact-verify takes 10-20 s
# on a 2-vCPU host and one of witness-build 11-14 s, so they get one and two
# slots: that keeps a run within about 40 s even when the host is slow.
# Workers beyond the slots only set up, so every run sets up SETUPS times.
SLOTS = {"exact-verify": 1, "flags-normal": 3, "flags-finsler": 3, "witness-build": 2}
SETUPS = 3


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def rng_for(workload: str, seed: int, tag: str = "") -> random.Random:
    """Deterministic generator for one workload, run seed and purpose."""
    return random.Random(f"{workload}:{seed}:{tag}")


def finsler_norm_seeds(seed: int) -> dict:
    rng = rng_for("flags-finsler", seed, "norm")
    return {p: rng.randrange(FINSLER_NORM_SEEDS) for p in FINSLER_PRESETS}


def call_seeds(workload: str, seed: int, child: int, rounds: int) -> list:
    """Sampling seeds for ``rounds`` rounds of one child: a list of
    {preset: seed} dicts.  Children take disjoint slices of one
    permutation of the pool."""
    presets, pool = ((NORMAL_PRESETS, NORMAL_CALL_SEEDS) if workload == "flags-normal"
                     else (FINSLER_PRESETS, FINSLER_CALL_SEEDS))
    share = pool // SETUPS
    out = [{} for _ in range(rounds)]
    for p in presets:
        perm = list(range(pool))
        rng_for(workload, seed, p).shuffle(perm)
        mine = perm[child * share:(child + 1) * share]
        for r in range(rounds):
            out[r][p] = mine[r % share]
    return out


def witness_seeds(seed: int, child: int, passes: int) -> list:
    rng = rng_for("witness-build", seed, str(child))
    return [{p: rng.randrange(2 ** 31) for p in WITNESS_PRESETS} for _ in range(passes)]


# -- checks: each returns None when the output is correct, else a reason ---

def _rel_ok(value, ref, tol=K_REL_TOL) -> bool:
    return (isinstance(value, (int, float)) and math.isfinite(value)
            and abs(value - ref) <= tol * max(abs(ref), 1e-12))


def check_verify(theorem: int, stdout: bytes, rc: int, ref: dict):
    want = ref["verify"][str(theorem)]
    if rc != 0:
        return f"verify --theorem {theorem}: exit code {rc}"
    got = hashlib.sha256(stdout).hexdigest()
    if got != want["sha256"]:
        return f"verify --theorem {theorem}: stdout sha256 {got[:12]} != {want['sha256'][:12]}"
    return None


def _check_sample(report, want: dict, what: str):
    if not isinstance(report, dict):
        return f"{what}: report is {type(report).__name__}"
    if report.get("flags") != SAMPLES:
        return f"{what}: {report.get('flags')} flags, expected {SAMPLES}"
    for key in ("K_min", "K_max"):
        if not _rel_ok(report.get(key), want[key]):
            return f"{what}: {key} {report.get(key)!r} != reference {want[key]!r}"
    return None


def check_normal(preset: str, call_seed: int, report, ref: dict):
    """K extremes against normal_homogeneous_oracle over the same flags."""
    want = ref["flags-normal"][preset][call_seed]
    return _check_sample(report, want, f"{preset} seed {call_seed}")


def check_finsler(preset: str, norm_seed: int, call_seed: int, report, ref: dict):
    want = ref["flags-finsler"][preset][norm_seed][call_seed]
    return _check_sample(report, want, f"{preset} norm {norm_seed} seed {call_seed}")


def check_witness(preset: str, report):
    if not isinstance(report, dict):
        return f"{preset}: report is {type(report).__name__}"
    u = report.get("u_map_norm")
    kc = report.get("K_commutative")
    kg = report.get("K_general")
    for name, val, tol in (("|U|", u, WITNESS_U_MAP), ("K_commutative", kc, WITNESS_K),
                           ("K_general", kg, WITNESS_K)):
        if not isinstance(val, (int, float)) or not abs(val) < tol:
            return f"{preset}: {name} = {val!r} not below {tol:g}"
    return None
