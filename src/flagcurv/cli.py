"""Command-line front end.

Verbs: roots, space, classify, curvature, witness, verify.  JSON goes to
stdout (sorted keys, deterministic given --seed), a one-line human summary
to stderr.  Exit codes: 0 success, 1 validation failure, 2 usage error,
3 survivor-list mismatch, 141 stdout closed before the output is all
written (nothing more is written).  The exact verbs (roots, verify) import
no numpy; the numeric modules load inside the verbs that use them.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import obstruct, rootsys

CLOSED_STDOUT_EXIT = 141  # 128 + SIGPIPE: stdout closed before the output
TOLERANCES = {  # printed by _tolerances with the bounds of coset's checks
    "norm_invariance": 1e-8,
    "witness_u_map": 1e-7,
    "witness_curvature": 1e-6,
}


# Size caps, usage errors (exit 2) like the lower bounds: the rank of `roots`
# and `verify --max-rank` (a rank-16 scan takes seconds) and `--samples`.
MAX_RANK = 16
MAX_SAMPLES = 100_000


def _int_in(lo: int, hi: float = float("inf")):
    """argparse type: an integer in [lo, hi] (at least lo without hi)."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if not lo <= n <= hi:
            bound = f"in [{lo}, {hi}]" if hi < float("inf") else f"at least {lo}"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {n}")
        return n
    return parse


def _tolerances() -> dict:
    """TOLERANCES and the bounds coset checks against, as the numeric verbs print them."""
    from . import coset
    return {**TOLERANCES, "exactness": coset.ORTHO_TOL, "reductive_closure": coset.REDUCTIVE_TOL,
            "subalgebra_closure": coset.CLOSURE_TOL}


def _json_default(o):
    if hasattr(o, "tolist"):  # numpy scalars and arrays
        return o.tolist()
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


def _emit(obj, summary: str) -> None:
    print(json.dumps(obj, sort_keys=True, default=_json_default), flush=True)
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
    # a built-in is named by the part before the first ':', anything else is a path
    name, colon, arg = text.partition(":")
    if name == "quadratic":
        if colon:
            raise ValueError(f"quadratic takes no parameter, got {text!r}")
        return norms.Quadratic(np.eye(space.dim_m))
    if name == "randers":
        eps = float(arg) if colon else 0.2
        if not np.isfinite(eps):
            raise ValueError(f"randers epsilon must be finite, not {eps}")
        # b: the t cap m direction projected onto the Ad(H)-fixed vectors
        fixed = norms.invariant_vectors(space)
        b = np.zeros(space.dim_m)
        if space.t_m and len(fixed):
            b = fixed.T @ (fixed @ space.to_m(space.embed(space.t_m[0])))
        nb = np.linalg.norm(b)
        if nb < 1e-12:
            raise ValueError("no Ad(H)-fixed vector of m along t cap m for the Randers form")
        return norms.Randers(np.eye(space.dim_m), eps * b / nb)
    if name in ("quartic", "invariant"):
        seed = int(arg) if colon else seed
        if seed < 0:
            raise ValueError(f"the seed of {name} must be a nonnegative integer, got {seed}")
        return norms.random_invariant_norm(space, seed)
    with open(text) as fh:
        return norms.norm_from_json(json.load(fh))


def _space_summary(space, case) -> dict:
    from . import coset
    rk_g, rk_h, ok = coset.rank_check(space)
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
        "hat_blocks": [len(b.basis) for b in space.hat_decomposition()],
    }


def cmd_roots(args) -> int:
    rs = rootsys.build_root_system(args.family, args.rank)
    label = rs.family if rs.family[-1].isdigit() else f"{rs.family}{rs.rank}"
    _emit(rs.to_json(), f"{label}: {len(rs)} roots")
    return 0


def cmd_space(args) -> int:
    space = _load_space(args.preset or args.file)
    case = None  # the case trichotomy needs the rank equality, dim(t cap m) = 1
    if len(space.t_m) == 1:
        case = obstruct.classify_case(obstruct.root_level_from_coset(space))
    _emit(_space_summary(space, case), f"built {space.name}")
    return 0


def cmd_classify(args) -> int:
    space = _load_space(args.space)
    rls = obstruct.root_level_from_coset(space)
    res = obstruct.classify_space(rls)
    res["space"] = _space_summary(space, res["case"])
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
    rep["tolerances"] = _tolerances()
    _emit(rep, f"{space.name}: {rep['flags']} flags, K in "
               f"[{rep['K_min']:.6g}, {rep['K_max']:.6g}]")
    return 0


def cmd_witness(args) -> int:
    from . import curvature
    space = _load_space(args.space)
    rep = curvature.verify_exclusion_witness(space, args.seed)
    rep["tolerances"] = _tolerances()
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


VERBS = {"roots": cmd_roots, "space": cmd_space, "classify": cmd_classify,
         "curvature": cmd_curvature, "witness": cmd_witness, "verify": cmd_verify}


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The parser of every verb or, given a verb, the top-level parser with
    that verb's subparser alone, whose usage still names every verb."""
    p = argparse.ArgumentParser(
        prog="flagcurv",
        description="Exact classification checks and numerical flag curvature "
                    "for invariant Finsler metrics on coset spaces.")
    sub = p.add_subparsers(dest="verb", required=True,
                           metavar="{" + ",".join(VERBS) + "}" if verb else None)

    if verb in (None, "roots"):
        pr = sub.add_parser("roots", help="dump a root system as JSON")
        pr.add_argument("family", help="A, B, C, D, E6, E7, E8, F4 or G2")
        pr.add_argument("rank", type=_int_in(1, MAX_RANK))

    if verb in (None, "space"):
        ps = sub.add_parser("space", help="build and summarize a coset space")
        ps_sub = ps.add_subparsers(dest="space_verb", required=True)
        psb = ps_sub.add_parser("build")
        grp = psb.add_mutually_exclusive_group(required=True)
        grp.add_argument("--file")
        grp.add_argument("--preset")

    if verb in (None, "classify"):
        pc = sub.add_parser("classify", help="run the classification verdict")
        pc.add_argument("--space", required=True)

    if verb in (None, "curvature"):
        pk = sub.add_parser("curvature", help="sample flag curvature")
        pk.add_argument("--space", required=True)
        pk.add_argument("--metric", default="quadratic",
                        help="quadratic | randers[:eps] | quartic[:seed] | invariant[:seed]"
                             " | the path of a norm JSON file")
        pk.add_argument("--samples", type=_int_in(1, MAX_SAMPLES), default=50)
        pk.add_argument("--seed", type=_int_in(0), default=0)

    if verb in (None, "witness"):
        pw = sub.add_parser("witness", help="verify a zero-curvature witness pair")
        pw.add_argument("--space", required=True)
        pw.add_argument("--seed", type=_int_in(0), default=0)

    if verb in (None, "verify"):
        pv = sub.add_parser("verify", help="reproduce a survivor list")
        pv.add_argument("--theorem", type=int, choices=(1, 2, 3), required=True)
        pv.add_argument("--max-rank", type=_int_in(1, MAX_RANK), default=8)
        pv.add_argument("--full", action="store_true",
                        help="include the per-subcase rows in the report")
    return p


def run(argv) -> int:
    parser = build_parser(argv[0] if argv and argv[0] in VERBS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        try:
            return VERBS[args.verb](args)
        except BrokenPipeError:
            raise  # no validation failure, and stdout takes no error
        except (ValueError, LookupError, OSError, AssertionError) as exc:
            _emit({"error": str(exc)}, f"error: {exc}")
            return 1
    except BrokenPipeError:
        # the reader is gone (`| head`): devnull takes the interpreter's last flush
        with contextlib.suppress(OSError, ValueError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return CLOSED_STDOUT_EXIT


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
