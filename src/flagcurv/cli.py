"""Command-line front end.

Verbs: roots, space, classify, curvature, witness, verify.  JSON goes to
stdout (sorted keys, deterministic given --seed), a one-line human summary
to stderr.  Exit codes: 0 success, 1 validation failure, 2 usage error,
3 survivor-list mismatch.  The exact verbs (roots, verify) import no
numpy; the numeric modules load inside the verbs that use them.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import obstruct, rootsys

TOLERANCES = {
    "exactness": 1e-12,
    "linear_solve_residual": 1e-10,
    "reductive_closure": 1e-10,
    "subalgebra_closure": 1e-8,
    "norm_invariance": 1e-8,
    "fd_comparison_relative": 1e-5,
    "witness_u_map": 1e-7,
    "witness_curvature": 1e-6,
}


# Size caps, usage errors (exit 2) like the lower bounds: the rank of `roots`
# and `verify --max-rank` (a rank-16 scan takes seconds) and `--samples`.
MAX_RANK = 16
MAX_SAMPLES = 100_000


def _int_in(lo: int, hi: int):
    """argparse type: an integer in [lo, hi]."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if not lo <= n <= hi:
            raise argparse.ArgumentTypeError(f"must be in [{lo}, {hi}], got {n}")
        return n
    return parse


def _json_default(o):
    if hasattr(o, "tolist"):  # numpy scalars and arrays
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


def _emit(obj, summary: str) -> None:
    print(json.dumps(obj, sort_keys=True, default=_json_default))
    print(summary, file=sys.stderr)


def _load_space(text: str):
    from . import coset
    if text.startswith("preset:"):
        return coset.parse_preset(text)
    with open(text) as fh:
        return coset.space_from_json(json.load(fh))


def _make_norm(space, text: str, seed: int):
    import numpy as np

    from . import norms
    if text == "quadratic":
        return norms.Quadratic(np.eye(space.dim_m))
    if text.startswith("randers"):
        eps = float(text.split(":", 1)[1]) if ":" in text else 0.2
        # b: the t cap m direction projected onto the Ad(H)-fixed vectors
        fixed = norms.invariant_vectors(space)
        b = np.zeros(space.dim_m)
        if space.t_m and len(fixed):
            b = fixed.T @ (fixed @ space.to_m(space.embed(space.t_m[0])))
        nb = np.linalg.norm(b)
        if nb < 1e-12:
            raise ValueError("no Ad(H)-fixed vector of m along t cap m for the Randers form")
        return norms.Randers(np.eye(space.dim_m), eps * b / nb)
    if text.startswith("quartic") or text.startswith("invariant"):
        s = int(text.split(":", 1)[1]) if ":" in text else seed
        return norms.random_invariant_norm(space, s)
    with open(text) as fh:
        return norms.norm_from_json(json.load(fh))


def _space_summary(space) -> dict:
    from . import coset
    rk_g, rk_h, ok = coset.rank_check(space)
    if ok:
        rls = obstruct.root_level_from_coset(space)
        case = obstruct.classify_case(rls)
    else:
        case = None  # the case trichotomy needs the rank equality
    return {
        "name": space.name,
        "dim_g": space.dim_g,
        "dim_h": space.dim_h,
        "dim_m": space.dim_m,
        "dim_m_odd": space.dim_m % 2 == 1,
        "rank_g": rk_g,
        "rank_h": rk_h,
        "rank_equality": ok,
        "case": case,
        "hat_blocks": [len(b.basis) for b in space.hat_decomposition().blocks],
    }


def cmd_roots(args) -> int:
    rs = rootsys.build_root_system(args.family, args.rank)
    label = rs.family if rs.family[-1].isdigit() else f"{rs.family}{rs.rank}"
    _emit(rs.to_json(), f"{label}: {len(rs)} roots")
    return 0


def cmd_space(args) -> int:
    space = _load_space(args.preset or args.file)
    _emit(_space_summary(space), f"built {space.name}")
    return 0


def cmd_classify(args) -> int:
    space = _load_space(args.space)
    rls = obstruct.root_level_from_coset(space)
    res = obstruct.classify_space(rls)
    res["space"] = _space_summary(space)
    v = res["verdict"]
    _emit(res, f"{space.name}: case {res['case']} -> {v['outcome']}"
               + (f" ({v['name']})" if v.get("name") else ""))
    return 0


def cmd_curvature(args) -> int:
    from . import curvature, norms
    space = _load_space(args.space)
    norm = _make_norm(space, args.metric, args.seed)
    resid = norms.check_invariance(norm, space)["max_residual"]
    if not resid <= TOLERANCES["norm_invariance"]:
        raise ValueError(f"norm is not Ad(H)-invariant: residual {resid:.2e} "
                         f"above {TOLERANCES['norm_invariance']:g}")
    rep = curvature.sample_flags(space, norm, args.samples, args.seed)
    rep["invariance_residual"] = resid
    rep["space"] = space.name
    rep["metric"] = args.metric
    rep["seed"] = args.seed
    rep["tolerances"] = TOLERANCES
    _emit(rep, f"{space.name}: {rep['flags']} flags, K in "
               f"[{rep['K_min']:.6g}, {rep['K_max']:.6g}]")
    return 0


def cmd_witness(args) -> int:
    from . import curvature
    space = _load_space(args.space)
    rep = curvature.verify_exclusion_witness(space, args.seed)
    rep["tolerances"] = TOLERANCES
    ok = (rep["u_map_norm"] < TOLERANCES["witness_u_map"]
          and abs(rep["K_commutative"]) < TOLERANCES["witness_curvature"]
          and abs(rep["K_general"]) < TOLERANCES["witness_curvature"])
    rep["pass"] = ok
    _emit(rep, f"{space.name}: |U(u,v)| = {rep['u_map_norm']:.2e}, "
               f"K = {rep['K_commutative']:.2e} -> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_verify(args) -> int:
    rep = obstruct.verify_theorem(args.theorem, max_rank=args.max_rank)
    if not args.full:
        rep = {k: v for k, v in rep.items() if k != "rows"}
    _emit(rep, f"survivor list {args.theorem}: "
               f"{'match' if rep['match'] else 'MISMATCH'} "
               f"({len(rep['survivors'])} survivors, "
               f"{len(rep['unresolved'])} unresolved)")
    return 0 if rep["match"] else 3


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="flagcurv",
        description="Exact classification checks and numerical flag curvature "
                    "for invariant Finsler metrics on coset spaces.")
    sub = p.add_subparsers(dest="verb", required=True)

    pr = sub.add_parser("roots", help="dump a root system as JSON")
    pr.add_argument("family", help="A, B, C, D, E6, E7, E8, F4 or G2")
    pr.add_argument("rank", type=_int_in(1, MAX_RANK))
    pr.set_defaults(fn=cmd_roots)

    ps = sub.add_parser("space", help="build and summarize a coset space")
    ps_sub = ps.add_subparsers(dest="space_verb", required=True)
    psb = ps_sub.add_parser("build")
    grp = psb.add_mutually_exclusive_group(required=True)
    grp.add_argument("--file")
    grp.add_argument("--preset")
    psb.set_defaults(fn=cmd_space)

    pc = sub.add_parser("classify", help="run the classification verdict")
    pc.add_argument("--space", required=True)
    pc.set_defaults(fn=cmd_classify)

    pk = sub.add_parser("curvature", help="sample flag curvature")
    pk.add_argument("--space", required=True)
    pk.add_argument("--metric", default="quadratic",
                    help="quadratic | randers[:eps] | quartic[:seed] | norm.json")
    pk.add_argument("--samples", type=_int_in(1, MAX_SAMPLES), default=50)
    pk.add_argument("--seed", type=int, default=0)
    pk.set_defaults(fn=cmd_curvature)

    pw = sub.add_parser("witness", help="verify a zero-curvature witness pair")
    pw.add_argument("--space", required=True)
    pw.add_argument("--seed", type=int, default=0)
    pw.set_defaults(fn=cmd_witness)

    pv = sub.add_parser("verify", help="reproduce a survivor list")
    pv.add_argument("--theorem", type=int, choices=(1, 2, 3), required=True)
    pv.add_argument("--max-rank", type=_int_in(1, MAX_RANK), default=8)
    pv.add_argument("--full", action="store_true",
                    help="include the per-subcase rows in the report")
    pv.set_defaults(fn=cmd_verify)
    return p


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, LookupError, OSError, AssertionError) as exc:
        print(json.dumps({"error": str(exc)}, sort_keys=True))
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
