"""Coset spaces: construction, verification, decompositions, presets."""

from fractions import Fraction

import numpy as np
import pytest

from flagcurv import liealg
from flagcurv.liealg import AlgebraSpec, realize
from flagcurv.coset import (
    SubalgebraSpec,
    build_coset,
    lift_root,
    parse_preset,
    preset,
    rank_check,
    root,
    tvec_from_parts,
)
from flagcurv.rootsys import QNum, solve_exact, tvec_dot, tvec_to_json, zero_tvec


def _coords(v):
    """The exact coordinates of a vector, read back from its JSON."""
    js = tvec_to_json(v)
    return [QNum.from_json(x) for f in js["factors"] for x in f] \
        + [QNum.from_json(x) for x in js["abelian"]]


def project_to_span(spec, span, v):
    """Oracle: the orthogonal projection of v onto span(span), from its
    Gram system solved exactly."""
    out = zero_tvec(spec)
    if span:
        gram = [[tvec_dot(spec, a, b) for b in span] for a in span]
        for c, a in zip(solve_exact(gram, [tvec_dot(spec, a, v) for a in span]), span):
            out = out + a.scale(c)
    return out

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
    bad = SubalgebraSpec(h_roots=((0, root("A", 2, 1, -1, 0)), (0, root("A", 2, 0, 1, -1))))
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
    assert sum(len(b.basis) for b in hat) == sp.dim_m


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
        sizes = sorted(len(b.basis) for b in hat)
        assert sizes == [3] + [4] * (n - 1)
        g0 = hat[0]
        assert g0.alpha_prime.is_zero() and len(g0.basis) == 3
        # m-contributions away from g0 come only from the e_i +- e_1 planes;
        # the e_i planes of the same class lie inside h
        for b in hat[1:]:
            roots = {tuple(float(c) for c in _coords(r)) for _, r in b.roots}
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
    sizes = sorted(len(b.basis) for b in hat)
    assert sizes == [1, 2, 2]
    # each nonzero block collects two g-planes split diagonally by h
    for b in hat[1:]:
        assert len(b.roots) == 2 and len(b.basis) == 2


def test_hat_trivial_when_h_holds_every_plane():
    sp = preset("sphere_un", 3)
    # h = u(2) holds one plane; the rest of m splits into 2-dim blocks
    hat = sp.hat_decomposition()
    assert len(hat[0].basis) == 1  # g0 = t cap m only
    # with h = su(n) inside u(n), every plane sits in h and m is the circle
    alg = realize(AlgebraSpec((("A", 2, Fraction(1)),), abelian_dim=1,
                              abelian_scales=(Fraction(3),)))
    spec = alg.spec
    cart = (tvec_from_parts(spec, {0: [1, -1, 0]}),
            tvec_from_parts(spec, {0: [1, 1, -2]}))
    roots = [(0, root("A", 2, 1, -1, 0)), (0, root("A", 2, 1, 0, -1)),
             (0, root("A", 2, 0, 1, -1))]
    sp2 = build_coset(alg, SubalgebraSpec(cartan_h=cart, h_roots=tuple(roots)),
                      name="U(3)/SU(3)")
    assert sp2.dim_m == 1
    hat2 = sp2.hat_decomposition()
    assert len(hat2) == 1 and len(hat2[0].basis) == 1


def _gram_schmidt_rows(rows, n):
    """The reference the hat rows replaced: Gram-Schmidt in row order,
    dropping residuals of norm at most 1e-9."""
    out = []
    for w in rows:
        for b in out:
            w = w - (w @ b) * b
        if np.linalg.norm(w) > 1e-9:
            out.append(w / np.linalg.norm(w))
    return np.reshape(out, (-1, n))


def test_hat_rows_span_what_gram_schmidt_spans(spaces):
    """Each block's SVD rows are orthonormal and span what a Gram-Schmidt
    of its t cap m and plane rows spans: same size, same projector."""
    for sp in spaces.values():
        for b in sp.hat_decomposition():
            rows = [sp.to_m(sp.embed(tv)) for tv in (sp.t_m if b.alpha_prime.is_zero() else ())]
            rows += [r for f, root in b.roots for r in sp.plane_m(f, root)]
            ref = _gram_schmidt_rows(rows, sp.dim_m)
            assert b.basis.shape == ref.shape
            assert np.abs(b.basis @ b.basis.T - np.eye(len(ref))).max() < 1e-12
            assert np.abs(b.basis.T @ b.basis - ref.T @ ref).max() < 1e-12


def _hat_summary(sp):
    """(alpha_prime, roots, basis size) of each hat block, g0 first."""
    return [(b.alpha_prime, b.roots, len(b.basis)) for b in sp.hat_decomposition()]


def test_hat_decomposition_is_pinned_across_dims_of_t_cap_m():
    """The hat blocks of the SU(3) group (dim t cap m = 2), of SU(3)/T^2
    (dim 0) and of the A2 + B2 group (dim 4)."""
    a2 = realize(AlgebraSpec((("A", 2, Fraction(1)),)))
    spec = a2.spec
    r13, r12, r23 = (root("A", 2, *c) for c in ((1, 0, -1), (1, -1, 0), (0, 1, -1)))
    zero = tvec_from_parts(spec, {0: [0, 0, 0]})
    group = build_coset(a2, SubalgebraSpec(), name="SU(3)")
    assert len(group.t_m) == 2
    assert _hat_summary(group) == [(zero, ((0, r13), (0, r12), (0, r23)), 8)]
    cart = (tvec_from_parts(spec, {0: [1, -1, 0]}), tvec_from_parts(spec, {0: [1, 1, -2]}))
    torus = build_coset(a2, SubalgebraSpec(cartan_h=cart), name="SU(3)/T^2")
    assert len(torus.t_m) == 0
    assert _hat_summary(torus) == [(zero, (), 0)] + [
        (lift_root(spec, 0, r), ((0, r),), 2) for r in (r23, r12, r13)]
    a2b2 = realize(AlgebraSpec((("A", 2, Fraction(1)), ("B", 2, Fraction(1)))))
    group2 = build_coset(a2b2, SubalgebraSpec(), name="SU(3) x SO(5)")
    assert len(group2.t_m) == 4
    b2 = tuple((1, root("B", 2, *c)) for c in ((1, 1), (1, 0), (1, -1), (0, 1)))
    assert _hat_summary(group2) == [
        (tvec_from_parts(a2b2.spec, {0: [0, 0, 0], 1: [0, 0]}),
         ((0, r13), (0, r12), (0, r23)) + b2, 18)]


def test_h_equals_g_rejected():
    alg = realize(AlgebraSpec((("A", 1, Fraction(1)),)))
    spec = alg.spec
    sub = SubalgebraSpec(cartan_h=(tvec_from_parts(spec, {0: [1, -1]}),),
                         h_roots=((0, root("A", 1, 1, -1)),))
    with pytest.raises(ValueError, match="h = g"):
        build_coset(alg, sub)


def test_pr_h_matches_projection_onto_cartan_h(spaces):
    # the shared projection works along t cap m; the oracle solves the Gram
    # system of cartan_h instead
    for sp in spaces.values():
        spec = sp.algebra.spec
        for f in sp.algebra.factors:
            for r in f.root_system.roots:
                tv = lift_root(spec, f.index, r)
                assert sp.projection.pr_h(tv) == project_to_span(spec, sp.cartan_h, tv)


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
            for b in hat:
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
                assert (br - sp.pr_m(br)).norm() < 1e-10


def test_berger_cartan_alignment(spaces):
    sp = spaces[("berger_sp2", ())]
    h_dir = sp.embed(sp.cartan_h[0])
    # the isotropy Cartan is the (-1, 2) direction of the standard torus
    target = sp.algebra.cartan_embed([root("B", 2, -1, 2)])
    assert (h_dir - target).norm() < 1e-12


def test_berger_generators_are_the_spin_2_so3(monkeypatch):
    """The generators preset_berger_sp2 states: skew, with the brackets of
    the 3 x 3 rotations they represent, [L_x, L_y] = -L_z cyclically,
    Casimir -l(l+1) I = -6 I of the spin-2 irreducible, and L_z the block of
    the embedded Cartan direction (-1, 2)."""
    from flagcurv import coset

    built = []
    monkeypatch.setattr(coset, "build_coset", lambda alg, sub, **kw: built.append((alg, sub)))
    coset.preset_berger_sp2()
    alg, sub = built[0]
    L = [g.blocks[0] for g in sub.extra_generators]
    R = [liealg._rot(3, 1, 2), liealg._rot(3, 2, 0), liealg._rot(3, 0, 1)]
    for k in range(3):
        assert np.array_equal(L[k].T, -L[k])
        for M in (R, L):
            x, y, z = M[k], M[(k + 1) % 3], M[(k + 2) % 3]
            assert np.abs(x @ y - y @ x + z).max() < 1e-14
    assert np.abs(sum(x @ x for x in L) + 6 * np.eye(5)).max() < 1e-14
    cartan = tvec_from_parts(alg.spec, {0: [-1, 2]})
    assert np.array_equal(coset._embed(alg, cartan).blocks[0], L[2])


@pytest.mark.parametrize("sv,rows", [(1e-7, 2), (1e-11, 1)])
def test_m_rows_keeps_a_singular_value_of_1e_7_and_drops_one_of_1e_11(monkeypatch, sv, rows):
    """ROW_TOL = 1e-9 sits between the two: a plane whose m-rows have
    singular values 1 and sv spans 2 rows, or 1."""
    from flagcurv import coset

    sp = parse_preset("preset:sphere_un(3)")
    plane = np.zeros((2, sp.dim_m))
    plane[0, 0], plane[1, 1] = 1.0, sv
    monkeypatch.setattr(sp, "plane_m", lambda factor, r: plane)
    assert len(coset._m_rows(sp, [(0, None)])) == rows


@pytest.mark.parametrize("eps,matches", [(1e-11, True), (1e-6, False)])
def test_t_cap_m_check_from_both_sides(eps, matches):
    """_verify's 1e-9 test of t cap m: h is the line of x_beta + eps H_1 in
    B2 (beta = e2, H_1 the unit Cartan generator of e1) and cartan_h is empty,
    so the exact t cap m is all of t, and the h-part of e1 is about eps."""
    alg = realize(AlgebraSpec((("B", 2, Fraction(1)),)))
    f = alg.factors[0]
    gen = f.plane(root("B", 2, 0, 1)).x + eps * alg.single_block(0, f.cartan[0])
    sub = SubalgebraSpec(extra_generators=(gen,))
    if matches:
        assert build_coset(alg, sub).dim_h == 1
    else:
        with pytest.raises(AssertionError, match="exact t cap m does not match"):
            build_coset(alg, sub)


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
    from flagcurv.liealg import quat_unit

    spec = AlgebraSpec((("C", 2, Fraction(1)), ("C", 1, Fraction(1))))
    cart = [tvec_from_parts(spec, {0: [1, 0], 1: [1]}),
            tvec_from_parts(spec, {0: [0, 1]})]
    base = {
        "algebra": spec.to_json(),
        "cartan_h": [tvec_to_json(tv) for tv in cart],
        "h_roots": [{"factor": 0, "root": tvec_to_json(root("C", 2, 0, 2))["factors"][0]}],
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
    # 10^-400 > 0 while its float is 0.0
    tiny = Fraction(1, 10 ** 400)
    spec = AlgebraSpec((("A", 1, Fraction(1)), ("B", 2, Fraction(1))))
    v = tvec_from_parts(spec, {0: [0, 0], 1: [tiny, -1]})
    assert v.canonical_sign() == v
    assert (-v).canonical_sign() == v



# -- work counts: each numeric object once --------------------------------------

@pytest.mark.parametrize("text", ["cn_excluded_subcase1(3)", "sphere_spn_sp1(2)",
                                  "aloff_wallach(1,2)"])
def test_a_space_takes_one_bracket_pass_per_kind_of_pair(monkeypatch, text):
    """Tooling guard: building a space and reading its structure tensors takes
    three bracket_coords passes: [h, h] onto m (closure), [h, m] onto m and h
    (Kh and the reductivity residual at once) and [m, m] onto m and h."""
    calls = []
    bracket_coords = liealg.RealizedAlgebra.bracket_coords
    monkeypatch.setattr(liealg.RealizedAlgebra, "bracket_coords", lambda alg, xs, ys, rows: (
        calls.append((len(xs), len(ys), len(rows))) or bracket_coords(alg, xs, ys, rows)))
    sp = parse_preset(f"preset:{text}")
    sp.structure_tensors()
    h, m = sp.dim_h, sp.dim_m
    assert calls == [(h, h, m), (h, m, m + h), (m, m, m + h)]


@pytest.mark.parametrize("text,planes", [
    ("sphere_so2n(4)", 0), ("sphere_un(4)", 3), ("berger_sp2", 0),
    ("bn_excluded_subcase1(2)", 1), ("cn_excluded_subcase1(3)", 2),
])
def test_a_preset_builds_only_the_planes_it_reads(monkeypatch, text, planes):
    """Tooling guard: a preset builds the root planes of its h generators,
    sampling flags builds none, a witness pair its two planes and
    plane_assignment every plane, each plane once."""
    from flagcurv.curvature import exclusion_witness_pair, sample_flags
    from flagcurv.norms import Quadratic

    built = []
    build = liealg._FactorRealization._build_plane
    monkeypatch.setattr(liealg._FactorRealization, "_build_plane",
                        lambda f, r: built.append((f.index, r)) or build(f, r))
    sp = parse_preset(f"preset:{text}")
    assert len(built) == planes
    sample_flags(sp, Quadratic(np.eye(sp.dim_m)), 5, 0)
    assert len(built) == planes
    if sp.witness_planes:
        exclusion_witness_pair(sp, Quadratic(np.eye(sp.dim_m)))
        assert len(built) == planes + 2
    sp.plane_assignment()
    assert sorted(built) == sorted({(f.index, k) for f in sp.algebra.factors
                                    for k in f.plane_keys})


def test_a_plane_a_thousandth_into_h_is_split():
    """plane_kind's 1e-9 test: h spanned by z + 1e-3 x_alpha, z the unit x of
    another root plane (so h is orthogonal to t), leaves the plane of alpha
    m-norms 1 - 5e-7 and 1, which is 'split', not 'm'."""
    from flagcurv.coset import space_from_json

    spec = AlgebraSpec((("B", 2, Fraction(1)),))
    f = realize(spec).factors[0]
    alpha, other = root("B", 2, 1, 0), root("B", 2, 0, 1)
    gen = f.plane(other).x.blocks[0] + 1e-3 * f.plane(alpha).x.blocks[0]
    sp = space_from_json({"algebra": spec.to_json(), "extra_generators": [
        {"blocks": [{"kind": "real", "data": gen.tolist()}]}]})
    xin, yin = np.linalg.norm(sp.plane_m(0, alpha), axis=1)
    assert abs(xin - (1 - 5e-7)) < 1e-12 and abs(yin - 1) < 1e-12
    assert sp.plane_kind(0, alpha) == "split"
    assert sp.plane_kind(0, other) == "split" and sp.plane_kind(0, root("B", 2, 1, 1)) == "m"



@pytest.mark.parametrize("t,kind", [(0.0, "h"), (1e-4, "split")])
def test_a_plane_a_ten_thousandth_out_of_h_is_split(t, kind):
    """plane_kind's 'h' branch from both sides.  h is the su(2) of alpha = e1
    of B2 turned by exp(t ad x_beta), beta = e2: x_beta commutes with the
    coroot of alpha, so h keeps it in t (t cap m stays the e2 line) and h
    stays a subalgebra.  At t = 0 the plane of alpha lies in h; at t = 1e-4
    both its m-norms are 1e-4, inside a 1e-3 test but not the 1e-9 one."""
    from flagcurv.coset import space_from_json

    spec = AlgebraSpec((("B", 2, Fraction(1)),))
    f = realize(spec).factors[0]
    alpha, beta = root("B", 2, 1, 0), root("B", 2, 0, 1)
    w, v = np.linalg.eigh(1j * f.plane(beta).x.blocks[0])  # x_beta is real skew
    turn = ((v * np.exp(-1j * t * w)) @ v.conj().T).real  # exp(t x_beta)
    gens = [turn @ f.plane(alpha).x.blocks[0] @ turn.T, turn @ f.plane(alpha).y.blocks[0] @ turn.T]
    sp = space_from_json({"algebra": spec.to_json(), "cartan_h": [tvec_to_json(spec.tvec(alpha))],
                          "extra_generators": [{"blocks": [{"kind": "real", "data": g.tolist()}]}
                                               for g in gens]})
    assert sp.dim_h == 3
    assert np.allclose(np.linalg.norm(sp.plane_m(0, alpha), axis=1), t, rtol=1e-6, atol=1e-12)
    assert sp.plane_kind(0, alpha) == kind


def test_plane_m_reads_each_plane_into_m_once():
    """plane_m caches the m-coordinates of a plane, bit for bit those of
    its x and y, as a read-only array."""
    sp = preset("cn_excluded_subcase1", 3)
    for f in sp.algebra.factors:
        for r in f.plane_keys:
            rows = sp.plane_m(f.index, r)
            p = f.plane(r)
            assert rows.tobytes() == np.stack([sp.to_m(p.x), sp.to_m(p.y)]).tobytes()
            assert sp.plane_m(f.index, r) is rows
            with pytest.raises(ValueError, match="read-only"):
                rows[0, 0] = 1.0
