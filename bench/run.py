"""flagcurv benchmark: one command, four workloads, every output checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run
(see README.md in this directory for every metric and its mapping).

Each workload runs in fresh worker processes, started one after another
(a single generating process, one BLAS thread each).  A worker sets up
once, so ``setup_s`` is the median over the run's workers.  Times are
rescaled to a reference host speed (``calibrate.py``); the raw wall-clock
medians go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import workloads as W  # noqa: E402

BUDGET_S = 170.0  # the whole run, workers included
BLAS_THREADS = "1"


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("FINSLERCLASS_THREADS", None)  # the program's default, always
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # identical iteration order, so counts repeat
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


class Runner:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.env = _worker_env()
        self.deadline = time.monotonic() + BUDGET_S
        self.env_record = None

    def child(self, **job) -> dict:
        job = {"workload": self.workload, "seed": self.seed, "trace": False,
               "warmup": True, "calibrate": True, "env": self.env_record is None, **job}
        job["t0"] = time.time()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
            cwd=ROOT, env=self.env, capture_output=True, text=True,
            timeout=max(1.0, self.deadline - time.monotonic()))
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr[-4000:])
            raise RuntimeError(f"worker exited with code {proc.returncode}")
        out = json.loads(lines[-1])
        if "env" in out:
            self.env_record = out["env"]
        return out

    def measured(self) -> list:
        """Worker groups for one untraced run: W.SLOTS slots, each running
        whole rounds within its share of ``seconds``, then set-up-only
        workers up to W.SETUPS.  An exact-verify round is a pass of three
        workers, one per theorem, each of which also sets up."""
        slots = W.SLOTS[self.workload]
        share = self.seconds / slots
        if self.workload != "exact-verify":
            groups = [[self.child(child=i, seconds=share)] for i in range(slots)]
            return groups + [[self.child(child=i, rounds=0)] for i in range(slots, W.SETUPS)]
        groups = []
        for _ in range(slots):
            spent = last = 0.0
            while not last or spent + last <= share:
                group = [self.child(theorem=k) for k in W.THEOREMS]
                last = sum(w["op_s"][0] for w in group)
                spent += last
                groups.append(group)
        return groups

    def fixed(self, trace: bool) -> list:
        """Workers doing one fixed round of work, without warm-up."""
        if self.workload == "exact-verify":
            return [self.child(theorem=k, trace=trace, warmup=False, calibrate=False,
                               spans_path=self._spans_path(trace, k)) for k in W.THEOREMS]
        return [self.child(child=0, rounds=1, trace=trace, warmup=False, calibrate=False,
                           spans_path=self._spans_path(trace, 0))]

    def _spans_path(self, trace, k):
        if not trace:
            return None
        out = ROOT / "bench_out"
        out.mkdir(exist_ok=True)
        return str(out / f"spans-{self.workload}-seed{self.seed}-{k}.json")


def _op_samples(groups, workload, key="op_s"):
    """One sample per round: an exact-verify round is the sum over its
    three workers; other workers report one duration per round.  ``key``
    is "op_s" for wall time, "norm_s" for time at the reference speed."""
    if workload == "exact-verify":
        return [sum(w[key][0] for w in g) for g in groups]
    return [s for g in groups for w in g for s in w[key]]


def end_to_end(groups, workload) -> dict:
    workers = [w for g in groups for w in g]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(len(w["failures"]) for w in workers)
    return {
        "pass_norm_s": (statistics.median(_op_samples(groups, workload, "norm_s")), "s"),
        "setup_s": (statistics.median(w["setup_norm_s"] for w in workers), "s"),
        "peak_rss_mb": (max(w["maxrss_kb"] for w in workers) / 1024.0, "MB"),
        "pass_frac": (1.0 - failed / attempted, "ratio"),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(untraced, traced) -> dict:
    calls, self_s = {}, {}
    agg = {"flags_returned": 0, "pairs_evaluated": 0, "pairs_rejected": 0, "pr_h_distinct": 0}
    for w in traced:
        lay = w["layers"]
        for k, v in lay["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in lay["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k in agg:
            agg[k] += lay[k]
    c = lambda k: calls.get(k, 0)  # noqa: E731
    t = lambda k: self_s.get(k, 0.0)  # noqa: E731
    wall_u = sum(w["wall_s"] for w in untraced)
    wall_t = sum(w["wall_s"] for w in traced)
    m = {
        "rootsys.qnum_ops": (c("rootsys.qnum_ops"), "count"),
        "rootsys.build_root_system.calls": (c("rootsys.build_root_system"), "count"),
        "rootsys.build_root_system.self_s": (t("rootsys.build_root_system"), "s"),
        "rootsys.exact_linalg.calls": (c("rootsys.exact_linalg"), "count"),
        "rootsys.exact_linalg.self_s": (t("rootsys.exact_linalg"), "s"),
        "coset.tvec_dot.calls": (c("coset.tvec_dot"), "count"),
        "coset.tvec_dot.self_s": (t("coset.tvec_dot"), "s"),
        "coset.orthocomplement_in_t.calls": (c("coset.orthocomplement_in_t"), "count"),
        "coset.orthocomplement_in_t.self_s": (t("coset.orthocomplement_in_t"), "s"),
        "coset.parse_preset.self_s": (t("coset.parse_preset"), "s"),
        "coset.structure_tensors.self_s": (t("coset.structure_tensors"), "s"),
        "liealg.bracket.calls": (c("liealg.bracket"), "count"),
        "liealg.bracket.self_s": (t("liealg.bracket"), "s"),
        "liealg.gram_schmidt.self_s": (t("liealg.gram_schmidt"), "s"),
        "norms.gram.calls": (c("norms.gram"), "count"),
        "norms.gram.self_s": (t("norms.gram"), "s"),
        "norms.cartan3.calls": (c("norms.cartan3"), "count"),
        "norms.cartan3.self_s": (t("norms.cartan3"), "s"),
        "norms.invariant_quadratic_space.self_s": (t("norms.invariant_quadratic_space"), "s"),
        "curvature.flag_curvature.calls": (c("curvature.flag_curvature"), "count"),
        # flags returned by sample_flags / candidate pairs it evaluated
        "curvature.useful_ratio": (_ratio(agg["flags_returned"], agg["pairs_evaluated"]), "ratio"),
        "curvature.eta.calls": (c("curvature.eta"), "count"),
        "curvature.rejected": (agg["pairs_rejected"], "count"),
        # connection_n calls / flag_curvature calls
        "curvature.connection_n.per_flag": (
            _ratio(c("curvature.connection_n"), c("curvature.flag_curvature")), "ratio"),
        "obstruct.make_root_level_space.calls": (c("obstruct.make_root_level_space"), "count"),
        "obstruct.make_root_level_space.self_s": (t("obstruct.make_root_level_space"), "s"),
        "obstruct.pr_h.calls": (c("obstruct.pr_h"), "count"),
        # 1 - distinct (space, argument) pairs / pr_h calls
        "obstruct.pr_h.repeat_ratio": (
            1.0 - _ratio(agg["pr_h_distinct"], c("obstruct.pr_h")) if c("obstruct.pr_h") else 0.0,
            "ratio"),
        "obstruct.evaluate_subcase.self_s": (t("obstruct.evaluate_subcase"), "s"),
        "obstruct.propagate_assignment.self_s": (t("obstruct.propagate_assignment"), "s"),
        "obstruct.classify_case1.self_s": (t("obstruct.classify_case1"), "s"),
        "obstruct.classify_case2.self_s": (t("obstruct.classify_case2"), "s"),
        "obstruct.rows": (sum(w.get("rows", 0) for w in traced), "count"),
        "cli.run.self_s": (t("cli.run"), "s"),
        "cli.stdout_bytes": (sum(w.get("stdout_bytes", 0) for w in traced), "bytes"),
        "trace.untraced_wall_s": (wall_u, "s"),
        "trace.overhead_s": (wall_t - wall_u, "s"),
        # traced wall / untraced wall for the same fixed work
        "trace.overhead_ratio": (_ratio(wall_t, wall_u), "ratio"),
    }
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "flagcurv" / "__init__.py").is_file():
        print(f"error: no flagcurv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not W.REFERENCE.is_file():
        print(f"error: missing {W.REFERENCE.name}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed, args.seconds)
    try:
        if args.trace:
            untraced = runner.fixed(trace=False)
            traced = runner.fixed(trace=True)
            workers = untraced + traced
            metrics, info = per_layer(untraced, traced), {}
        else:
            groups = runner.measured()
            workers = [w for g in groups for w in g]
            metrics = end_to_end(groups, args.workload)
            info = {"rounds": len(_op_samples(groups, args.workload)),
                    "pass_wall_s": statistics.median(_op_samples(groups, args.workload)),
                    "setup_wall_s": statistics.median(w["setup_s"] for w in workers)}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(w["attempted"] for w in workers)
    failures = [f for w in workers for f in w["failures"]]
    env = {"nproc": os.cpu_count(), "blas_threads": int(BLAS_THREADS), **(runner.env_record or {})}
    print(json.dumps({"environment": env, "workers": len(workers), **info,
                      "failures": failures[:10]}), file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
