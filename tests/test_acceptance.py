"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria (all primary):
  1. root-system integrity (exact; < 5 s)
  2. matrix-algebra integrity (1e-12; < 30 s)
  3. survivor-list reproduction, exit-code gated (exact; < 2 min)
  4. cited commuting-pair witnesses replay (exact; < 5 s)
  5. curvature oracle agreement (1e-6 relative; < 1 min)
  6. commutative-pair formula consistency (1e-5 relative, K >= -1e-8; < 1 min)
  7. zero-curvature witness verification (|U| < 1e-7, K < 1e-6; < 1 min)
  8. norm-layer properties (residual < 1e-7; < 1 min)
"""

import contextlib
import io
import itertools
import json
import time
from fractions import Fraction

import numpy as np

from flagcurv import cli
from flagcurv.coset import SubalgebraSpec, build_coset, lift_root, preset, root
from flagcurv.curvature import (
    CurvatureEngine,
    bi_invariant_oracle,
    exclusion_witness_pair,
    flag_curvature,
    normal_homogeneous_oracle,
    verify_exclusion_witness,
)
from flagcurv.liealg import AlgebraSpec, gram_schmidt, realize
from flagcurv.norms import Quadratic, Randers, random_invariant_norm
from flagcurv.obstruct import case3_space, key_lemma_2_check
from flagcurv.rootsys import QNum, build_root_system, sparse_tvec, weyl_reflect


@contextlib.contextmanager
def criterion(num, name, budget_seconds):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} ({name}): FAIL ({time.time() - t0:.1f}s)")
        raise
    elapsed = time.time() - t0
    if elapsed >= budget_seconds:
        print(f"\nACCEPTANCE {num} ({name}): FAIL (over budget: {elapsed:.1f}s)")
        raise AssertionError(
            f"criterion {num} exceeded its {budget_seconds:.0f}s budget: {elapsed:.1f}s")
    print(f"\nACCEPTANCE {num} ({name}): PASS ({elapsed:.1f}s)")


def test_acceptance_1_root_system_integrity():
    with criterion(1, "root-system integrity", 5):
        expected = {
            ("A", 1): 2, ("A", 4): 20, ("A", 8): 72,
            ("B", 2): 8, ("B", 4): 32, ("B", 8): 128,
            ("C", 3): 18, ("C", 8): 128,
            ("D", 4): 24, ("D", 8): 112,
            ("E6", 6): 72, ("E7", 7): 126, ("E8", 8): 240,
            ("F4", 4): 48, ("G2", 2): 12,
        }
        for (fam, rank), count in expected.items():
            rs = build_root_system(fam, rank)
            assert len(rs) == count, (fam, rank)
            for r in rs.roots:
                assert -r in rs
        for fam, rank in [("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
                          ("B", 4), ("C", 3), ("C", 4), ("D", 4), ("F4", 4),
                          ("G2", 2)]:
            rs = build_root_system(fam, rank)
            roots = set(rs.roots)
            for a in rs.roots:
                assert {weyl_reflect(rs, a, v) for v in rs.roots} == roots


def test_acceptance_2_matrix_algebra_integrity(random_element):
    with criterion(2, "matrix-algebra integrity", 30):
        tol = 1e-12
        rng = np.random.default_rng(123)
        for fam, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 4)]:
            alg = realize(AlgebraSpec(((fam, rank, Fraction(1)),)))
            for _ in range(100):
                x, y, z = (random_element(alg, rng) for _ in range(3))
                jac = alg.bracket(alg.bracket(x, y), z) + alg.bracket(alg.bracket(y, z), x) \
                    + alg.bracket(alg.bracket(z, x), y)
                assert jac.norm() < tol
                assert abs(alg.inner(alg.bracket(x, y), z) + alg.inner(y, alg.bracket(x, z))) < tol
            f = alg.factors[0]
            planes = [f.plane(k) for k in f.plane_keys]
            for p, q in itertools.combinations(planes, 2):
                targets = []
                for s in (1, -1):
                    key = (p.root + q.root.scale(s)).canonical_sign()
                    if key in f.plane_keys:
                        tp = f.plane(key)
                        targets.extend([tp.x, tp.y])
                span = gram_schmidt(alg, targets) if targets else []
                for a in (p.x, p.y):
                    for b in (q.x, q.y):
                        v = alg.bracket(a, b)
                        for e in span:
                            v = v - alg.inner(v, e) * e
                        assert v.norm() < tol


def _cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return code, json.loads(out.getvalue())


def test_acceptance_3_theorem_reproduction():
    with criterion(3, "survivor-list reproduction", 120):
        code, rep = _cli(["verify", "--theorem", "1"])
        assert code == 0 and rep["match"]
        assert set(rep["survivors"]) == (
            {f"S^{2*n-1} = SO({2*n})/SO({2*n-1})" for n in range(3, 9)}
            | {"S^7 = Spin(7)/G2", "S^15 = Spin(9)/Spin(7)",
               "SU(5)/Sp(2)U(1) (Berger)", "Sp(2)/SU(2) (Berger)"})
        code, rep = _cli(["verify", "--theorem", "2"])
        assert code == 0 and rep["match"]
        assert set(rep["survivors"]) == (
            {"S^3 = SO(4)/SO(3)", "Wilking SU(3)xSO(3)/U(2)"}
            | {f"S^{4*n-1} = Sp({n})Sp(1)/Sp({n-1})Sp(1)" for n in range(2, 9)})
        code, rep = _cli(["verify", "--theorem", "3"])
        assert code == 0 and rep["match"]
        assert set(rep["survivors"]) == (
            {"Aloff-Wallach U(3)/T^2"}
            | {f"S^{2*n-1} = U({n})/U({n-1})" for n in range(2, 10)}
            | {f"S^{4*n-1} = Sp({n})U(1)/Sp({n-1})U(1)" for n in range(2, 9)})
        assert rep["unresolved"], "the simple-transitive bucket must be nonempty"


def test_acceptance_4_cited_witnesses_replay():
    with criterion(4, "cited witnesses replay", 5):
        h = Fraction(1, 2)
        cases = [
            ("A", 5, (((0, 1), (3, -1)), ((2, 1), (1, -1))),
             lambda sp: (lift_root(sp.spec, 0, sparse_tvec("A", 5, (0, 1), (4, -1))),
                         lift_root(sp.spec, 0, sparse_tvec("A", 5, (1, 1), (5, -1))))),
            ("B", 5, (((0, 1), (1, 1)), ((2, -1), (3, -1))),
             lambda sp: (lift_root(sp.spec, 0, sparse_tvec("B", 5, (0, 1), (4, 1))),
                         lift_root(sp.spec, 0, sparse_tvec("B", 5, (0, 1), (4, -1))))),
            ("B", 4, (((0, 1), (1, 1)), ((2, -1),)),
             lambda sp: (lift_root(sp.spec, 0, sparse_tvec("B", 4, (0, 1), (3, 1))),
                         lift_root(sp.spec, 0, sparse_tvec("B", 4, (0, 1), (3, -1))))),
            ("C", 3, (((0, 2),), ((1, -1), (2, -1))),
             lambda sp: (lift_root(sp.spec, 0, sparse_tvec("C", 3, (1, 2))),
                         lift_root(sp.spec, 0, sparse_tvec("C", 3, (2, 2))))),
            ("C", 4, (((0, 1), (1, 1)), ((2, -1), (3, -1))),
             lambda sp: (lift_root(sp.spec, 0, sparse_tvec("C", 4, (0, 2))),
                         lift_root(sp.spec, 0, sparse_tvec("C", 4, (1, 2))))),
            ("C", 3, (((0, 2),), ((0, -1), (1, -1))),
             lambda sp: (lift_root(sp.spec, 0, sparse_tvec("C", 3, (0, 1), (2, 1))),
                         lift_root(sp.spec, 0, sparse_tvec("C", 3, (1, 2))))),
            ("D", 5, (((0, 1), (1, 1)), ((2, -1), (3, -1))),
             lambda sp: (lift_root(sp.spec, 0, sparse_tvec("D", 5, (0, 1), (4, 1))),
                         lift_root(sp.spec, 0, sparse_tvec("D", 5, (0, 1), (4, -1))))),
            ("E6", 6, (((0, 1), (1, 1)), ((1, 1), (0, -1))),
             lambda sp: (lift_root(sp.spec, 0, root("E6", 6, -h, h, h, h, h, QNum(0, 0, h))),
                         lift_root(sp.spec, 0, root("E6", 6, -h, -h, -h, -h, -h, QNum(0, 0, h))))),
            ("E7", 7, (((0, 1), (1, 1)), ((1, 1), (0, -1))),
             lambda sp: (lift_root(sp.spec, 0, root("E7", 7, -h, h, h, h, h, h, QNum(0, h))),
                         lift_root(sp.spec, 0, root("E7", 7, h, -h, -h, -h, h, h, QNum(0, h))))),
            ("E8", 8, (((0, 1), (1, 1)), ((1, 1), (0, -1))),
             lambda sp: (lift_root(sp.spec, 0, root("E8", 8, *([h] * 8))),
                         lift_root(sp.spec, 0, root("E8", 8, -h, -h, -h, -h, h, h, h, h)))),
            ("E8", 8, (((0, 1), (1, 1)), ((2, -1), (3, -1))),
             lambda sp: (lift_root(sp.spec, 0, sparse_tvec("E8", 8, (0, 1), (4, 1))),
                         lift_root(sp.spec, 0, sparse_tvec("E8", 8, (1, 1), (5, 1))))),
        ]
        for fam, rank, pair, mk in cases:
            alpha, beta = (sparse_tvec(fam, rank, *p) for p in pair)
            sp = case3_space(fam, rank, alpha, beta)
            g1, g2 = mk(sp)
            assert key_lemma_2_check(sp, g1, g2), (fam, rank)


def test_acceptance_5_curvature_oracles():
    with criterion(5, "curvature oracle agreement", 60):
        rng = np.random.default_rng(11)
        for rank in (1, 2):
            alg = realize(AlgebraSpec((("A", rank, Fraction(1)),)))
            sp = build_coset(alg, SubalgebraSpec(), name=f"su({rank+1})")
            norm = Quadratic(np.eye(sp.dim_m))
            done = 0
            while done < 200:
                u = rng.standard_normal(sp.dim_m)
                v = rng.standard_normal(sp.dim_m)
                try:
                    rep = flag_curvature(sp, norm, u, v)
                except ValueError:
                    continue
                done += 1
                oracle = bi_invariant_oracle(sp, u, v)
                assert abs(rep.k - oracle) <= 1e-6 * max(abs(oracle), 1e-9)
        for sp in (preset("sphere_un", 3), preset("sphere_so2n", 3)):
            norm = Quadratic(np.eye(sp.dim_m))
            done = 0
            while done < 100:
                u = rng.standard_normal(sp.dim_m)
                v = rng.standard_normal(sp.dim_m)
                try:
                    rep = flag_curvature(sp, norm, u, v)
                except ValueError:
                    continue
                done += 1
                oracle = normal_homogeneous_oracle(sp, u, v)
                assert abs(rep.k - oracle) <= 1e-6 * max(abs(oracle), 1e-9)
        sp = preset("sphere_so2n", 3)
        norm = Quadratic(np.eye(sp.dim_m))
        ks = []
        while len(ks) < 100:
            u = rng.standard_normal(sp.dim_m)
            v = rng.standard_normal(sp.dim_m)
            try:
                ks.append(flag_curvature(sp, norm, u, v).k)
            except ValueError:
                continue
        spread = (max(ks) - min(ks)) / abs(np.mean(ks))
        assert spread < 1e-6, f"round-sphere spread {spread:.2e}"


def _eligible_candidates(sp, norm):
    """Commuting pairs with vanishing spray vector available on a preset."""
    eng = CurvatureEngine(sp, norm)
    pairs = []
    if sp.witness_planes:
        try:
            pairs.append(exclusion_witness_pair(sp, norm))
        except AssertionError:
            pass
    out = []
    for u, v in pairs:
        if eng.br_full_norm(u, v) > 1e-10:
            continue
        if np.linalg.norm(eng.eta(u)[0]) > 1e-8:
            continue
        out.append((u, v))
    return out


def test_acceptance_6_commutative_formula_consistency():
    with criterion(6, "commutative-formula consistency", 60):
        presets = [preset("bn_excluded_subcase1", 2),
                   preset("bn_excluded_subcase1", 3),
                   preset("a1a1_diagonal", 1), preset("a1a1_diagonal", 2),
                   preset("cn_excluded_subcase1", 3)]
        counts = {"quadratic": 0, "randers": 0, "quartic": 0}
        for sp in presets:
            b = sp.to_m(sp.embed(sp.t_m[0]))
            b = 0.2 * b / np.linalg.norm(b)
            norms = {
                "quadratic": Quadratic(np.eye(sp.dim_m)),
                "randers": Randers(np.eye(sp.dim_m), b),
                "quartic": random_invariant_norm(sp, 17),
            }
            for tag, norm in norms.items():
                for u, v in _eligible_candidates(sp, norm):
                    eng = CurvatureEngine(sp, norm)
                    rep = eng.flag_curvature_commutative(u, v)
                    counts[tag] += 1
                    assert rep.k >= -1e-8
                    assert abs(rep.k - rep.cross_check_k) \
                        <= 1e-5 * max(abs(rep.k), abs(rep.cross_check_k), 1.0)
        # the reversible families admit eligible flags on every listed
        # preset; a Randers form has a nonzero spray vector there (its
        # covector pairs the pole with the torus part), so its check is
        # vacuous on the presets and is exercised on a transitive group
        assert counts["quadratic"] == len(presets)
        assert counts["quartic"] == len(presets)
        assert counts["randers"] == 0
        alg = realize(AlgebraSpec((("A", 2, Fraction(1)),)))
        group = build_coset(alg, SubalgebraSpec(), name="su(3) group")
        t1 = group.to_m(group.embed(group.t_m[0]))
        t2 = group.to_m(group.embed(group.t_m[1]))
        b = 0.2 * t1 / np.linalg.norm(t1)
        norm = Randers(np.eye(group.dim_m), b)
        eng = CurvatureEngine(group, norm)
        rep = eng.flag_curvature_commutative(t1, t2)
        assert rep.k >= -1e-8
        assert abs(rep.k - rep.cross_check_k) <= 1e-5


def test_acceptance_7_zero_curvature_witnesses():
    with criterion(7, "zero-curvature witnesses", 60):
        spaces = [preset("bn_excluded_subcase1", 2),
                  preset("a1a1_diagonal", 1), preset("a1a1_diagonal", 2)]
        for sp in spaces:
            for seed in range(10):
                rep = verify_exclusion_witness(sp, seed)
                assert rep["u_map_norm"] < 1e-7, (sp.name, seed)
                assert abs(rep["K_commutative"]) < 1e-6, (sp.name, seed)
                assert abs(rep["K_general"]) < 1e-6, (sp.name, seed)


def test_acceptance_8_norm_layer_properties():
    with criterion(8, "norm-layer properties", 60):
        rng = np.random.default_rng(5)
        sp = preset("bn_excluded_subcase1", 2)
        d = sp.dim_m
        b = sp.to_m(sp.embed(sp.t_m[0]))
        norms = [Quadratic(np.eye(d)),
                 Randers(np.eye(d), 0.3 * b / np.linalg.norm(b)),
                 random_invariant_norm(sp, 23)]
        for norm in norms:
            for _ in range(30):
                y = rng.standard_normal(d)
                for lam in (0.5, 2.0, 10.0):
                    assert abs(norm.value(lam * y) - lam * norm.value(y)) \
                        < 1e-12 * lam * norm.value(y)
                assert np.linalg.eigvalsh(norm.gram(y)).min() > 0
                u, v, w = (rng.standard_normal(d) for _ in range(3))
                pole = norm.pole(y)
                vals = [a @ norm.cartan_pair(pole, b, c)
                        for a, b, c in itertools.permutations((u, v, w))]
                assert max(vals) - min(vals) < 1e-8 * max(1.0, abs(vals[0]))
                assert abs(y @ norm.cartan_pair(pole, u, v)) < 1e-8
            y = rng.standard_normal(d)
            if norm.reversible:
                assert norm.value(y) == norm.value(-y)
        assert not norms[1].reversible
        assert abs(norms[1].value(y) - norms[1].value(-y)) > 1e-6
        # central-pole and in-block orthogonality of the hat decomposition
        inv = random_invariant_norm(sp, 29)
        hat = sp.hat_decomposition()
        g0 = hat[0].basis
        blk = hat[1].basis
        for _ in range(5):
            c = rng.standard_normal(len(g0))
            u = sum(ci * bi for ci, bi in zip(c, g0))
            u /= np.linalg.norm(u)
            g = inv.gram(u)
            assert max(abs(x @ g @ y) for x in g0 for y in blk) < 1e-7
            c = rng.standard_normal(len(blk))
            u = sum(ci * bi for ci, bi in zip(c, blk))
            u /= np.linalg.norm(u)
            g = inv.gram(u)
            assert max(abs(x @ g @ y) for x in blk for y in g0) < 1e-7
