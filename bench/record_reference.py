"""Regenerate ``reference.json``: the values the benchmark checks against.

    python3 bench/record_reference.py

Run this only on the commit that defined the benchmark; later commits are
checked against what it recorded.  It captures

* the SHA-256 of ``flagcurv verify --theorem k --full`` stdout (rank 8);
* for flags-normal, ``curvature.normal_homogeneous_oracle`` over the same
  flags ``sample_flags`` draws from its seed (its first ``n`` candidate
  pairs that pass the degeneracy gate), reduced to their extremes;
* for flags-finsler, the ``K_min``/``K_max`` that ``sample_flags`` returns.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))
import workloads as W  # noqa: E402

import numpy as np  # noqa: E402
from flagcurv import cli, coset, curvature, norms  # noqa: E402


def verify_reference() -> dict:
    out = {}
    for k in W.THEOREMS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.run(["verify", "--theorem", str(k), "--full"])
        data = buf.getvalue().encode()
        assert rc == 0, f"verify --theorem {k} exited {rc}"
        out[str(k)] = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data),
                       "rows": len(json.loads(data)["rows"])}
    return out


def oracle_extremes(space, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    d = space.dim_m
    pairs = [(rng.standard_normal(d), rng.standard_normal(d))
             for _ in range(2 * W.SAMPLES + 8)]
    ks = []
    for u, v in pairs:
        uu, vv, uv = u @ u, v @ v, u @ v
        if uu * vv - uv ** 2 <= 1e-10 * uu * vv:  # the engine's degeneracy gate
            continue
        ks.append(curvature.normal_homogeneous_oracle(space, u, v))
        if len(ks) == W.SAMPLES:
            break
    return {"K_min": min(ks), "K_max": max(ks)}


def normal_reference() -> dict:
    out = {}
    for p in W.NORMAL_PRESETS:
        space = coset.parse_preset(f"preset:{p}")
        out[p] = [oracle_extremes(space, s) for s in range(W.NORMAL_CALL_SEEDS)]
        print(f"flags-normal {p}: {len(out[p])} seeds", file=sys.stderr)
    return out


def finsler_reference() -> dict:
    out = {}
    for p in W.FINSLER_PRESETS:
        space = coset.parse_preset(f"preset:{p}")
        out[p] = []
        for ns in range(W.FINSLER_NORM_SEEDS):
            norm = norms.random_invariant_norm(space, ns)
            rows = []
            for s in range(W.FINSLER_CALL_SEEDS):
                rep = curvature.sample_flags(space, norm, W.SAMPLES, s)
                rows.append({"K_min": rep["K_min"], "K_max": rep["K_max"]})
            out[p].append(rows)
        print(f"flags-finsler {p}: done", file=sys.stderr)
    return out


def main() -> int:
    ref = {"verify": verify_reference(),
           "flags-normal": normal_reference(),
           "flags-finsler": finsler_reference()}
    with open(W.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
