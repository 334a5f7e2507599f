"""Coset spaces: construction, verification, decompositions, presets."""

import math
from fractions import Fraction

import numpy as np
import pytest

from flagcurv import liealg
from flagcurv.liealg import AlgebraSpec, realize
from flagcurv.coset import (
    SubalgebraSpec,
    build_coset,
    diagonal_a1_frame,
    lift_root,
    normalize_diagonal_a1,
    parse_preset,
    preset,
    rank_check,
    tvec_from_parts,
    _ad_exp,
)
from flagcurv.rootsys import QNum, rv

PRESETS = [
    ("sphere_so2n", (3,), 5), ("sphere_so2n", (4,), 7),
    ("sphere_un", (2,), 3), ("sphere_un", (3,), 5), ("sphere_un", (5,), 9),
    ("sphere_spn_u1", (2,), 7), ("sphere_spn_u1", (3,), 11),
    ("sphere_spn_sp1", (2,), 7), ("sphere_spn_sp1", (3,), 11),
    ("aloff_wallach", (1, 1), 7), ("aloff_wallach", (2, -1), 7),
    ("berger_sp2", (), 7),
    ("bn_excluded_subcase1", (2,), 7), ("bn_excluded_subcase1", (3,), 11),
    ("a1a1_diagonal", (1,), 5), ("a1a1_diagonal", (Fraction(3, 2),), 5),
    ("cn_excluded_subcase1", (3,), 15),
]


@pytest.fixture(scope="module")
def spaces():
    return {(n, p): preset(n, *p) for n, p, _ in PRESETS}


def test_build_sphere_so6_dim(spaces):
    sp = spaces[("sphere_so2n", (3,))]
    assert sp.dim_m == 5
    assert rank_check(sp) == (3, 2, True)


def test_build_su3_full_torus_and_circle():
    alg = realize(AlgebraSpec((("A", 2, Fraction(1)),)))
    spec = alg.spec
    full = SubalgebraSpec(cartan_h=(
        tvec_from_parts(spec, {0: [1, -1, 0]}),
        tvec_from_parts(spec, {0: [1, 1, -2]}),
    ))
    sp = build_coset(alg, full, name="su(3)/t^2")
    assert sp.dim_m == 6
    circle = SubalgebraSpec(cartan_h=(tvec_from_parts(spec, {0: [1, 2, -3]}),))
    sp2 = build_coset(alg, circle, name="su(3)/u_{1,2}")
    assert sp2.dim_m == 7


def test_build_trivial_isotropy():
    alg = realize(AlgebraSpec((("A", 1, Fraction(1)),)))
    sp = build_coset(alg, SubalgebraSpec(), name="su(2) group")
    assert sp.dim_m == 3 and sp.dim_h == 0
    assert rank_check(sp) == (1, 0, True)


def test_not_a_subalgebra_rejected():
    alg = realize(AlgebraSpec((("A", 2, Fraction(1)),)))
    bad = SubalgebraSpec(h_roots=((0, rv(1, -1, 0)), (0, rv(0, 1, -1))))
    # two root planes whose brackets generate all of su(3): closure inside
    # the span of the generators fails
    with pytest.raises(ValueError, match="not a subalgebra|h = g"):
        build_coset(alg, bad)


def test_rank_check_examples(spaces):
    assert rank_check(spaces[("sphere_un", (3,))]) == (3, 2, True)
    alg = realize(AlgebraSpec((("A", 2, Fraction(1)),)))
    sp = build_coset(alg, SubalgebraSpec(), name="su(3) group")
    assert rank_check(sp) == (2, 0, False)


@pytest.mark.parametrize("name,params,dim_m", PRESETS)
def test_preset_dimensions_and_rank(spaces, name, params, dim_m):
    sp = spaces[(name, params)]
    assert sp.dim_m == dim_m
    assert sp.dim_m % 2 == 1
    rk_g, rk_h, ok = rank_check(sp)
    assert ok, (name, rk_g, rk_h)
    hat = sp.hat_decomposition()
    assert sum(len(b.basis) for b in hat.blocks) == sp.dim_m


def test_preset_parameter_validation():
    with pytest.raises(ValueError):
        preset("aloff_wallach", 1, -1)  # kl(k+l) = 0
    with pytest.raises(ValueError):
        preset("a1a1_diagonal", Fraction(1, 2))
    with pytest.raises(ValueError):
        preset("sphere_so2n", 2)
    with pytest.raises(ValueError):
        preset("no_such_space")


def test_parse_preset_strings():
    sp = parse_preset("preset:bn_excluded_subcase1(2)")
    assert sp.dim_m == 7
    sp = parse_preset("preset:berger_sp2")
    assert sp.dim_m == 7
    sp = parse_preset("preset:a1a1_diagonal(3/2)")
    assert sp.dim_m == 5
    with pytest.raises(ValueError):
        parse_preset("bn_excluded_subcase1(2)")


def test_hat_blocks_subcase1_structure(spaces):
    """The B-series witness space reproduces the summarized m-structure:
    m = R e1 + g_{e1} + sum_{i>=2} (g_{e_i+e_1} + g_{e_i-e_1})."""
    for n in (2, 3):
        sp = spaces[("bn_excluded_subcase1", (n,))]
        hat = sp.hat_decomposition()
        sizes = sorted(len(b.basis) for b in hat.blocks)
        assert sizes == [3] + [4] * (n - 1)
        g0 = hat.blocks[0]
        assert g0.alpha_prime.is_zero() and len(g0.basis) == 3
        # m-contributions away from g0 come only from the e_i +- e_1 planes;
        # the e_i planes of the same class lie inside h
        for b in hat.blocks[1:]:
            roots = {tuple(float(c) for c in r.coords) for _, r in b.roots}
            assert sum(1 for rc in roots if abs(rc[0]) == 1.0) == 2
            assert len(b.basis) == 4


def test_hat_block_of_a3_subcase_is_four_dimensional():
    """Two planes sharing their projection merge into one 4-dim hat block."""
    alg = realize(AlgebraSpec((("A", 3, Fraction(1)),)))
    spec = alg.spec
    # t cap h orthogonal to w = e1+e2-e3-e4, h-plane data omitted: use the
    # sp(2)-in-su(4) picture via the so(6)/so(5) preset instead
    sp = preset("sphere_so2n", 3)
    hat = sp.hat_decomposition()
    sizes = sorted(len(b.basis) for b in hat.blocks)
    assert sizes == [1, 2, 2]
    # each nonzero block collects two g-planes split diagonally by h
    for b in hat.blocks[1:]:
        assert len(b.roots) == 2 and len(b.basis) == 2


def test_hat_trivial_when_h_holds_every_plane():
    sp = preset("sphere_un", 3)
    # h = u(2) holds one plane; the rest of m splits into 2-dim blocks
    hat = sp.hat_decomposition()
    assert len(hat.blocks[0].basis) == 1  # g0 = t cap m only
    # with h = su(n) inside u(n), every plane sits in h and m is the circle
    alg = realize(AlgebraSpec((("A", 2, Fraction(1)),), abelian_dim=1,
                              abelian_scales=(Fraction(3),)))
    spec = alg.spec
    cart = (tvec_from_parts(spec, {0: [1, -1, 0]}),
            tvec_from_parts(spec, {0: [1, 1, -2]}))
    roots = [(0, rv(1, -1, 0)), (0, rv(1, 0, -1)), (0, rv(0, 1, -1))]
    sp2 = build_coset(alg, SubalgebraSpec(cartan_h=cart, h_roots=tuple(roots)),
                      name="U(3)/SU(3)")
    assert sp2.dim_m == 1
    hat2 = sp2.hat_decomposition()
    assert len(hat2.blocks) == 1 and len(hat2.blocks[0].basis) == 1


def test_h_equals_g_rejected():
    alg = realize(AlgebraSpec((("A", 1, Fraction(1)),)))
    spec = alg.spec
    sub = SubalgebraSpec(cartan_h=(tvec_from_parts(spec, {0: [1, -1]}),),
                         h_roots=((0, rv(1, -1)),))
    with pytest.raises(ValueError, match="h = g"):
        build_coset(alg, sub)


def test_hathat_examples(spaces):
    sp = spaces[("bn_excluded_subcase1", (2,))]
    tv = lift_root(sp.algebra.spec, 0, rv(0, 1))
    blocks = sp.hathat_decomposition(tv)
    assert len(sp.hat_decomposition().blocks) == 2
    assert len(blocks) == 1 and len(blocks[0][1]) == sp.dim_m
    sp3 = spaces[("bn_excluded_subcase1", (3,))]
    tv = lift_root(sp3.algebra.spec, 0, rv(0, 1, 0))
    blocks = sp3.hathat_decomposition(tv)
    sizes = sorted(len(b) for _, b in blocks)
    assert sizes == [4, 7]
    with pytest.raises(ValueError):
        sp3.hathat_decomposition(tv.scale(0))


def test_hathat_key_lemma_setting():
    """For a plane with no other roots on its affine line, the zero block
    of the second decomposition is t cap m plus that plane."""
    sp = preset("sphere_un", 3)
    spec = sp.algebra.spec
    alpha = lift_root(spec, 0, rv(1, -1, 0))
    ap = sp.pr_h_exact(alpha)
    blocks = sp.hathat_decomposition(ap)
    zero_block = blocks[0][1]
    assert len(zero_block) == 3
    span = np.array(zero_block)
    for probe in [sp.to_m(sp.embed(sp.t_m[0]))] + sp.plane_m_part(0, rv(1, -1, 0)):
        assert np.linalg.norm(probe - span.T @ (span @ probe)) < 1e-9


def test_hat_blocks_are_torus_stable(spaces):
    rng = np.random.default_rng(5)
    for key in [("bn_excluded_subcase1", (2,)), ("berger_sp2", ()),
                ("sphere_un", (3,)), ("a1a1_diagonal", (1,))]:
        sp = spaces[key]
        hat = sp.hat_decomposition()
        for _ in range(3):
            coeff = rng.standard_normal(len(sp.cartan_h))
            t = sp.algebra.zero()
            for c, tv in zip(coeff, sp.cartan_h):
                t = t + float(c) * sp.embed(tv)
            for b in hat.blocks:
                span = np.array(b.basis)
                for vec in b.basis:
                    img = sp.to_m(sp.algebra.bracket(t, sp.from_m(vec)))
                    resid = img - span.T @ (span @ img)
                    assert np.linalg.norm(resid) < 1e-10


def test_orthogonality_and_reductivity(spaces):
    for key in [("sphere_un", (3,)), ("berger_sp2", ()), ("cn_excluded_subcase1", (3,))]:
        sp = spaces[key]
        alg = sp.algebra
        for hb in sp.h_basis:
            for mb in sp.m_basis:
                assert abs(alg.inner(hb, mb)) < 1e-12
                br = alg.bracket(hb, mb)
                assert np.linalg.norm(sp.to_h(br)) < 1e-10


def test_berger_cartan_alignment(spaces):
    sp = spaces[("berger_sp2", ())]
    h_dir = sp.embed(sp.cartan_h[0])
    # the isotropy Cartan is the (-1, 2) direction of the standard torus
    target = sp.algebra.cartan_embed([rv(-1, 2)])
    assert (h_dir - target).norm() < 1e-12


def test_normalize_diagonal_a1_identity_rotation_and_error():
    alg = realize(AlgebraSpec((("A", 1, Fraction(1)), ("A", 1, Fraction(1)))))
    u_basis, v_basis = diagonal_a1_frame(alg)
    ref = [u_basis[i] + v_basis[i] for i in range(3)]
    t0 = normalize_diagonal_a1(alg, [x.copy() for x in ref], ref)
    assert abs(t0) < 1e-10
    rot = _ad_exp(alg, 0.3, v_basis[0])
    moved = [rot(x) for x in ref]
    t = normalize_diagonal_a1(alg, moved, ref)
    assert abs(math.remainder(t + 0.3, 2 * math.pi)) < 1e-9
    # scale b != 1 violates the diagonal form
    bad = [u_basis[0] + 2.0 * v_basis[0],
           u_basis[1] + 2.0 * v_basis[1],
           u_basis[2] + 4.0 * v_basis[2]]
    with pytest.raises(ValueError, match="diagonal A1"):
        normalize_diagonal_a1(alg, bad, ref)


def _pairwise_tensors(sp):
    """Per-pair oracle: bracket, then inner with each basis vector (the
    h- and m-bases are orthonormal)."""
    alg = sp.algebra

    def co(x, basis):
        return np.array([alg.inner(x, b) for b in basis])

    d, dh = sp.dim_m, sp.dim_h
    Cm, Ch, Kh = np.zeros((d, d, d)), np.zeros((d, d, dh)), np.zeros((dh, d, d))
    for i, x in enumerate(sp.m_basis):
        for j, y in enumerate(sp.m_basis):
            br = alg.bracket(x, y)
            Cm[i, j], Ch[i, j] = co(br, sp.m_basis), co(br, sp.h_basis)
    for a, h in enumerate(sp.h_basis):
        for k, y in enumerate(sp.m_basis):
            Kh[a, k] = co(alg.bracket(h, y), sp.m_basis)
    return Cm, Ch, Kh


@pytest.mark.parametrize("key", [
    ("a1a1_diagonal", (1,)),          # A + A
    ("bn_excluded_subcase1", (2,)),   # B
    ("sphere_so2n", (3,)),            # D
    ("cn_excluded_subcase1", (3,)),   # C
    ("sphere_spn_sp1", (2,)),         # C + C
    ("sphere_un", (3,)),              # A plus an abelian part
])
def test_batched_structure_tensors_match_pairwise_oracle(spaces, key):
    sp = spaces[key]
    for got, want in zip(sp.structure_tensors(), _pairwise_tensors(sp)):
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-12
    Cm, Ch, _ = sp.structure_tensors()
    assert np.array_equal(Cm, -Cm.transpose(1, 0, 2))
    assert np.array_equal(Ch, -Ch.transpose(1, 0, 2))


def test_bracket_coords_chunks_agree(spaces, monkeypatch):
    """One pair per chunk gives the pairs of one whole chunk."""
    sp = spaces[("sphere_spn_sp1", (2,))]
    alg, rows = sp.algebra, np.eye(sp.dim_g)
    whole = alg.bracket_coords(sp.h_basis, sp.m_basis, rows)
    monkeypatch.setattr(liealg, "PAIR_CHUNK", 1)
    assert np.abs(alg.bracket_coords(sp.h_basis, sp.m_basis, rows) - whole).max() < 1e-14


def test_quaternion_and_complex_space_files_agree():
    """Sp(2)Sp(1)/Sp(1)Sp(1) from a file, its diagonal Sp(1) given once as
    quaternion blocks and once as their complex 2n x 2n form."""
    from flagcurv.coset import space_from_json
    from flagcurv.torus import tvec_to_json
    from flagcurv.liealg import quat_unit

    spec = AlgebraSpec((("C", 2, Fraction(1)), ("C", 1, Fraction(1))))
    cart = [tvec_from_parts(spec, {0: [1, 0], 1: [1]}),
            tvec_from_parts(spec, {0: [0, 1]})]
    base = {
        "algebra": spec.to_json(),
        "cartan_h": [tvec_to_json(tv) for tv in cart],
        "h_roots": [{"factor": 0, "root": rv(0, 2).to_json()}],
    }

    def quat(n, part):
        comps = [[[0.0] * n for _ in range(n)] for _ in "wxyz"]
        comps["wxyz".index(part)][0][0] = 1.0
        return {"kind": "quaternion", "data": comps}

    def cplx(n, part):
        m = quat_unit(n, part, [(0, 0, 1)])
        return {"kind": "complex", "data": [m.real.tolist(), m.imag.tolist()]}

    built = []
    for make in (quat, cplx):
        obj = dict(base, extra_generators=[
            {"blocks": [make(2, part), make(1, part)]} for part in "xyz"])
        built.append(space_from_json(obj))
    a, b = built
    assert (a.dim_h, a.dim_m) == (b.dim_h, b.dim_m) == (6, 7)
    assert np.array_equal(a._m_co, b._m_co)
    for x, y in zip(a.structure_tensors(), b.structure_tensors()):
        assert np.array_equal(x, y)


def test_tvec_canonical_sign_reads_the_exact_leading_coordinate():
    # (3363 - 2378 sqrt2)^4 is about 5e-16 > 0 while its float is -0.125
    q = QNum(3363, -2378)
    tiny = q * q * q * q
    spec = AlgebraSpec((("A", 1, Fraction(1)), ("B", 2, Fraction(1))))
    v = tvec_from_parts(spec, {0: [0, 0], 1: [tiny, -1]})
    assert v.canonical_sign() == v
    assert (-v).canonical_sign() == v


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("C", 2), ("D", 4)])
def test_ad_exp_matches_mpmath_expm(family, rank):
    """Ad(exp(t v)) by the eigendecomposition of -i v against mpmath's
    expm, block by block."""
    import mpmath

    alg = realize(AlgebraSpec(((family, rank, Fraction(1)),)))
    rng = np.random.default_rng(3)
    span = alg.factors[0].spanning_set()
    v, x = alg.zero(), alg.zero()
    for b in span:
        v = v + float(rng.standard_normal()) * b
        x = x + float(rng.standard_normal()) * b
    t = 0.7
    got = _ad_exp(alg, t, v)(x).blocks[0]
    with mpmath.workdps(30):
        e = mpmath.expm(mpmath.matrix((t * np.asarray(v.blocks[0], dtype=complex)).tolist()))
        want = e * mpmath.matrix(np.asarray(x.blocks[0], dtype=complex).tolist()) * e.H
        want = np.array(want.tolist(), dtype=complex)
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    assert np.iscomplexobj(got) == np.iscomplexobj(x.blocks[0])
