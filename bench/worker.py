"""One benchmark process: set up, run the timed operations, check them.

Run by ``run.py`` as ``python3 bench/worker.py '<job json>'``; prints one
JSON line.  The job names the workload, the run seed, this child's index,
the wall-clock time the parent spawned it (``t0``, so set-up time includes
interpreter start and import), how long to measure (``seconds``) or a fixed
number of rounds, whether to warm up and whether to trace.

Timed operations call the public ``flagcurv`` API with default arguments;
outputs are kept and checked only after timing stops.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import calibrate  # noqa: E402
import workloads as W  # noqa: E402


def _env_record() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def _short(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"[:200]


def _rounds(job):
    """Round indices to run: ``job["rounds"]`` of them, or whole rounds as
    long as the next one, if as long as the last, still ends within
    ``job["seconds"]`` (at least one)."""
    fixed = job.get("rounds")
    begin = last_start = time.perf_counter()
    r = 0
    while True:
        now = time.perf_counter()
        if fixed is not None:
            if r >= fixed:
                return
        elif r and (now - begin) + (now - last_start) > job["seconds"]:
            return
        last_start = now
        yield r
        r += 1


def _timed_round(thunks, job):
    """Run ``thunks`` in order.  Returns (key, result) pairs, a raised
    exception standing for the result, the summed time of the calls, and
    their summed time at the reference host speed (None unless the job
    calibrates), each call rescaled by the kernel times measured right
    before, during and right after it."""
    on = bool(job.get("calibrate"))
    cal = calibrate.calibrator(job["workload"] if on else None)
    results, op_s, norm_s = [], 0.0, 0.0
    before = cal.bracket()
    for key, thunk in thunks:
        rep, took, during = cal.timed(thunk)
        after = cal.bracket()
        op_s += took
        if on:
            norm_s += calibrate.normalized(took, before + during + after)
        results.append((key, rep))
        before = after
    return results, op_s, norm_s if on else None


def _run_verify(job, tracer, clock):
    from flagcurv import cli
    if tracer is not None:
        tracer.install()
    setup_s, setup_norm_s = clock.done()
    theorem = job["theorem"]
    out, err = io.StringIO(), io.StringIO()

    def verify():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return cli.run(["verify", "--theorem", str(theorem), "--full"])

    [(_, rc)], op_s, norm_s = _timed_round([(theorem, verify)], job)
    failure = _short(rc) if isinstance(rc, Exception) else None
    wall_s = time.time() - job["t0"]
    stdout = out.getvalue().encode()
    if failure is None:
        failure = W.check_verify(theorem, stdout, rc, W.load_reference())
    try:
        rows = len(json.loads(stdout)["rows"])
    except (ValueError, KeyError, TypeError):
        rows = 0
    return {"setup_s": setup_s, "setup_norm_s": setup_norm_s, "op_s": [op_s],
            "norm_s": [] if norm_s is None else [norm_s], "wall_s": wall_s,
            "attempted": 1, "failures": [failure] if failure else [],
            "rows": rows, "stdout_bytes": len(stdout)}


def _run_flags(job, tracer, clock):
    import numpy as np
    from flagcurv import coset, curvature, norms
    if tracer is not None:
        tracer.install()
    workload, seed = job["workload"], job["seed"]
    normal = workload == "flags-normal"
    presets = W.NORMAL_PRESETS if normal else W.FINSLER_PRESETS
    norm_seeds = None if normal else W.finsler_norm_seeds(seed)
    spaces = {p: coset.parse_preset(f"preset:{p}") for p in presets}
    metrics = {p: (norms.Quadratic(np.eye(spaces[p].dim_m)) if normal
                   else norms.random_invariant_norm(spaces[p], norm_seeds[p]))
               for p in presets}
    if job["warmup"]:
        for p in presets:
            curvature.sample_flags(spaces[p], metrics[p], 1, 0)
    setup_s, setup_norm_s = clock.done()

    seeds = W.call_seeds(workload, seed, job["child"], 64)
    calls, round_s, norm_s = [], [], []
    for r in _rounds(job):
        s = seeds[r % len(seeds)]
        results, op_s, norm = _timed_round(
            [(p, functools.partial(curvature.sample_flags, spaces[p], metrics[p],
                                   W.SAMPLES, s[p])) for p in presets], job)
        calls += [(p, s[p], rep) for p, rep in results]
        round_s.append(op_s)
        if norm is not None:
            norm_s.append(norm)
    wall_s = time.time() - job["t0"]

    ref = W.load_reference()
    failures = []
    for p, s, rep in calls:
        if isinstance(rep, Exception):
            why = f"{p} seed {s}: {_short(rep)}"
        elif normal:
            why = W.check_normal(p, s, rep, ref)
        else:
            why = W.check_finsler(p, norm_seeds[p], s, rep, ref)
        if why:
            failures.append(why)
    return {"setup_s": setup_s, "setup_norm_s": setup_norm_s, "op_s": round_s,
            "norm_s": norm_s, "wall_s": wall_s,
            "attempted": len(calls), "failures": failures}


def _run_witness(job, tracer, clock):
    from flagcurv import coset, curvature
    if tracer is not None:
        tracer.install()
    if job["warmup"]:
        curvature.verify_exclusion_witness(coset.parse_preset("preset:a1a1_diagonal(1)"), 0)
    setup_s, setup_norm_s = clock.done()

    def witness(p, s):
        return curvature.verify_exclusion_witness(coset.parse_preset(f"preset:{p}"), s)

    seeds = W.witness_seeds(job["seed"], job["child"], 64)
    calls, pass_s, norm_s = [], [], []
    for r in _rounds(job):
        s = seeds[r % len(seeds)]
        results, op_s, norm = _timed_round(
            [(p, functools.partial(witness, p, s[p])) for p in W.WITNESS_PRESETS], job)
        calls += [(p, s[p], rep) for p, rep in results]
        pass_s.append(op_s)
        if norm is not None:
            norm_s.append(norm)
    wall_s = time.time() - job["t0"]

    failures = []
    for p, s, rep in calls:
        why = (f"{p} seed {s}: {_short(rep)}" if isinstance(rep, Exception)
               else W.check_witness(p, rep))
        if why:
            failures.append(why)
    return {"setup_s": setup_s, "setup_norm_s": setup_norm_s, "op_s": pass_s,
            "norm_s": norm_s, "wall_s": wall_s,
            "attempted": len(calls), "failures": failures}


RUNNERS = {"exact-verify": _run_verify, "flags-normal": _run_flags,
           "flags-finsler": _run_flags, "witness-build": _run_witness}


def main(argv) -> int:
    job = json.loads(argv[1])
    clock = calibrate.SetupClock(job["t0"], bool(job.get("calibrate")))
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
    result = RUNNERS[job["workload"]](job, tracer, clock)
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.aggregate()
        if job.get("spans_path"):
            tracer.write(job["spans_path"])
    if job.get("env"):
        result["env"] = _env_record()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
