"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public functions and methods of ``flagcurv`` from the
outside: it replaces every binding of the original object, in every loaded
``flagcurv`` module namespace and class dictionary, with a wrapper.  That
covers names imported into other modules (``obstruct`` binds ``tvec_dot``
and ``build_root_system`` itself) and class aliases such as
``QNum.__radd__ = __add__``.  The program's own files are never edited.

A span is ``(name, start, end, parent)``; spans are kept in a list and
written out once, when the traced run ends.  Very hot leaf calls (the QNum
field operations) are counted only, since a span per call would cost more
than the call.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict

# (layer metric name, module, qualified name, kind).  kind "span" records a
# span per call; "count" only counts calls.  One metric name may cover
# several callables (all QNum operators, all exact solvers, every norm's
# gram).
TARGETS = [
    ("rootsys.qnum_ops", "flagcurv.rootsys", "QNum.__add__", "count"),
    ("rootsys.qnum_ops", "flagcurv.rootsys", "QNum.__sub__", "count"),
    ("rootsys.qnum_ops", "flagcurv.rootsys", "QNum.__rsub__", "count"),
    ("rootsys.qnum_ops", "flagcurv.rootsys", "QNum.__mul__", "count"),
    ("rootsys.qnum_ops", "flagcurv.rootsys", "QNum.__neg__", "count"),
    ("rootsys.qnum_ops", "flagcurv.rootsys", "QNum.inverse", "count"),
    ("rootsys.build_root_system", "flagcurv.rootsys", "build_root_system", "span"),
    ("rootsys.exact_linalg", "flagcurv.rootsys", "solve_exact", "span"),
    ("rootsys.exact_linalg", "flagcurv.rootsys", "exact_inverse", "span"),
    ("rootsys.exact_linalg", "flagcurv.rootsys", "exact_nullspace", "span"),
    ("coset.tvec_dot", "flagcurv.coset", "tvec_dot", "span"),
    ("coset.orthocomplement_in_t", "flagcurv.coset", "orthocomplement_in_t", "span"),
    ("coset.parse_preset", "flagcurv.coset", "parse_preset", "span"),
    ("coset.structure_tensors", "flagcurv.coset", "CosetSpace.structure_tensors", "span"),
    ("liealg.bracket", "flagcurv.liealg", "RealizedAlgebra.bracket", "span"),
    ("liealg.gram_schmidt", "flagcurv.liealg", "gram_schmidt", "span"),
    ("norms.gram", "flagcurv.norms", "*.gram", "span"),
    ("norms.cartan3", "flagcurv.norms", "*.cartan3", "span"),
    ("norms.invariant_quadratic_space", "flagcurv.norms", "invariant_quadratic_space", "span"),
    ("curvature.sample_flags", "flagcurv.curvature", "sample_flags", "span"),
    ("curvature.flag_curvature", "flagcurv.curvature", "CurvatureEngine.flag_curvature", "span"),
    ("curvature.eta", "flagcurv.curvature", "CurvatureEngine.eta", "span"),
    ("curvature.connection_n", "flagcurv.curvature", "CurvatureEngine.connection_n", "span"),
    ("obstruct.verify_theorem", "flagcurv.obstruct", "verify_theorem", "span"),
    ("obstruct.make_root_level_space", "flagcurv.obstruct", "make_root_level_space", "span"),
    ("obstruct.pr_h", "flagcurv.obstruct", "RootLevelSpace.pr_h", "count"),
    ("obstruct.evaluate_subcase", "flagcurv.obstruct", "evaluate_subcase", "span"),
    ("obstruct.propagate_assignment", "flagcurv.obstruct", "propagate_assignment", "span"),
    ("obstruct.classify_case1", "flagcurv.obstruct", "classify_case1", "span"),
    ("obstruct.classify_case2", "flagcurv.obstruct", "classify_case2", "span"),
    ("cli.run", "flagcurv.cli", "run", "span"),
]


def _resolve(module, qualname) -> list:
    """The functions a target names.  ``*.x`` means ``x`` as defined by
    each class of the module that defines it itself."""
    if qualname.startswith("*."):
        attr = qualname[2:]
        return [cls.__dict__[attr] for cls in vars(module).values()
                if isinstance(cls, type) and cls.__module__ == module.__name__
                and attr in cls.__dict__]
    owner = module
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return [vars(owner)[attr]]


class Tracer:
    """Spans and call counts for one traced process."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()  # calls per metric name
        self.flags_returned = 0  # sum of sample_flags()["flags"]
        self._raised_spans = []  # indices of spans whose call raised
        self._stack = []
        self._patches = []
        self._pr_h_keys = set()
        self._pr_h_spaces = {}   # id -> space, so ids are not reused

    # -- wrappers -------------------------------------------------------
    def _span(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            counts[name] += 1
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self._raised_spans.append(idx)
                raise
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if name == "curvature.sample_flags" and isinstance(out, dict):
                self.flags_returned += int(out.get("flags", 0))
            return out

        return wrapper

    def _count(self, name, fn):
        counts = self.counts
        if name == "obstruct.pr_h":
            keys, spaces = self._pr_h_keys, self._pr_h_spaces

            def wrapper(space, v, *args, **kwargs):
                counts[name] += 1
                spaces[id(space)] = space
                keys.add((id(space), v))
                return fn(space, v, *args, **kwargs)
            return wrapper

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ---------------------------------------------------
    def install(self, targets=TARGETS):
        """Replace every binding of each target callable in the loaded
        flagcurv namespaces."""
        replace = {}
        for name, modname, qualname, kind in targets:
            module = importlib.import_module(modname)
            for fn in _resolve(module, qualname):
                make = self._span if kind == "span" else self._count
                replace[id(fn)] = (fn, make(name, fn))
        namespaces = []
        for modname, module in list(sys.modules.items()):
            if modname == "flagcurv" or modname.startswith("flagcurv."):
                namespaces.append(module)
                namespaces.extend(v for v in vars(module).values()
                                  if isinstance(v, type) and v.__module__ == modname)
        for ns in namespaces:
            items = ns.__dict__ if isinstance(ns, type) else vars(ns)
            for attr, value in list(items.items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((ns, attr, value))
                    setattr(ns, attr, hit[1])

    def uninstall(self):
        for ns, attr, value in reversed(self._patches):
            setattr(ns, attr, value)
        self._patches.clear()

    # -- results --------------------------------------------------------
    def aggregate(self) -> dict:
        """Per-name calls and self time (span minus direct child spans),
        plus the raw inputs of the ratio metrics."""
        self_s = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _parent) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
        # flag_curvature calls made inside sample_flags are the candidate
        # pairs it evaluated
        inside = [False] * len(self.spans)
        for i, (_name, _s, _e, parent) in enumerate(self.spans):
            inside[i] = parent >= 0 and (inside[parent]
                                         or self.spans[parent][0] == "curvature.sample_flags")
        pairs = [i for i, s in enumerate(self.spans)
                 if inside[i] and s[0] == "curvature.flag_curvature"]
        raised = set(self._raised_spans)
        return {
            "calls": dict(self.counts),
            "self_s": dict(self_s),
            "flags_returned": self.flags_returned,
            "pairs_evaluated": len(pairs),
            "pairs_rejected": sum(1 for i in pairs if i in raised),
            "pr_h_distinct": len(self._pr_h_keys),
        }

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
