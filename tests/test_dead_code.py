"""Tooling guard: every module-level function and class of `flagcurv`, and
every method of its classes, has a caller in the program.

A definition counts as called when a plain name or an attribute somewhere in
`src/` or `demos/`, outside its own definition, spells its name.  Tests do
not count: code that only tests reach is test surface.  Matching is by name,
but an attribute such as `engine.eta` spells a module-level function only
when no `src` class defines a method `eta`, so a free function that only
forwards to a same-named method needs a call by its plain name.  An attribute
whose receiver is the plain name of a `src` class, such as `QNum.from_json`,
spells only that class's method when the class defines one.  Methods are
reported as `Class.method`; dunders are exempt, since the interpreter calls
them.  EXEMPT names the definitions kept without a caller, each with its
reason; an exemption whose name gains a caller or loses its definition fails
too, so the list cannot go stale.  A plain name bound as a local of the
function it appears in (an argument, an assignment or loop target, a nested
def) spells that local, not a definition: a loop variable `value` calls no
method `value`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "flagcurv"
DEMOS = ROOT / "demos"
EXEMPT = (
    ("__getattr__", "the package's PEP 562 hook: the interpreter calls it"),
    ("tvec_to_json", "the lattice JSON form that exclusion certificates will hold"),
    ("flag_curvature_commutative", "kept for flagcurv.__all__: the one-call form of "
     "the commutative-pair route; the program calls the CurvatureEngine method"),
    ("CurvatureEngine.u_map", "the one-off form of U(u, v): the commutative-pair route "
     "solves U with the solver of its one norm evaluation, and tests check U against "
     "connection_n"),
) + tuple((f"{cls}.value", "F(y) is the definition that the homogeneity, reversibility "
           "and Euler-identity tests check the closed-form Hessians against")
          for cls in ("Quadratic", "Quartic", "Randers"))


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _local_names(tree) -> set:
    """Ids of the Name nodes that spell a local of an enclosing function:
    its arguments, the names it stores to and its nested defs."""
    out = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (*_DEFS, ast.Lambda)):
            continue
        bound = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
        for node in ast.walk(fn) if not isinstance(fn, ast.Lambda) else ():
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
                bound.add(node.id)
            elif isinstance(node, (*_DEFS, ast.ClassDef)) and node is not fn:
                bound.add(node.name)
        out.update(id(n) for n in ast.walk(fn) if isinstance(n, ast.Name) and n.id in bound)
    return out


def _uncalled(trees):
    """Names of the module-level defs and the methods (as `Class.method`,
    dunders left out) of the `src` trees that no tree names outside the def
    itself.  An attribute names a module-level function only when no `src`
    class defines a method of that name, and only the receiver's method when
    its receiver names a `src` class that defines one.  trees: (is_src, tree)
    pairs."""
    names = {}  # name -> ids of the nodes inside its definitions
    methods = {}  # method name -> {"Class.method": ids of the nodes inside it}
    functions = set()
    for is_src, tree in trees:
        for node in tree.body if is_src else ():
            if isinstance(node, (*_DEFS, ast.ClassDef)):
                names.setdefault(node.name, set()).update(id(n) for n in ast.walk(node))
            if isinstance(node, _DEFS):
                functions.add(node.name)
        for node in ast.walk(tree) if is_src else ():
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, _DEFS):
                        methods.setdefault(item.name, {})[f"{node.name}.{item.name}"] = \
                            {id(n) for n in ast.walk(item)}
    shadowed = functions & set(methods)
    called = set()
    for _, tree in trees:
        local = _local_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and id(node) not in local:
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            if name in names and id(node) not in names[name] \
                    and (isinstance(node, ast.Name) or name not in shadowed):
                called.add(name)
            owners = methods.get(name, {})
            receiver = f"{node.value.id}.{name}" if isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) else None
            if receiver in owners:  # `Class.method`: that class's own method only
                owners = {receiver: owners[receiver]}
            called.update(key for key, ids in owners.items() if id(node) not in ids)
    defined = set(names).union(*(keys for m, keys in methods.items()
                                 if not (m.startswith("__") and m.endswith("__"))))
    return sorted(defined - called)


def _program_trees():
    return [(True, ast.parse(p.read_text())) for p in sorted(SRC.glob("*.py"))] \
        + [(False, ast.parse(p.read_text())) for p in sorted(DEMOS.glob("*.py"))]


def test_every_definition_has_a_caller():
    assert _uncalled(_program_trees()) == sorted(name for name, _ in EXEMPT)


def test_guard_sees_an_uncalled_definition():
    src = ast.parse("def countdown(x):\n    return countdown(x - 1)\n"
                    "def helper():\n    return 1\n"
                    "class Shape:\n    def area(self):\n        return helper()\n")
    demo = ast.parse("from flagcurv import m\nm.Shape().area()\n")
    assert _uncalled([(True, src), (False, demo)]) == ["countdown"]


def test_guard_sees_a_forwarder_shadowed_by_a_method():
    """`m.area(s)` and `s.area()` may both mean the method, so neither
    calls the free `area`; a plain-name call does."""
    src = ast.parse("def area(shape):\n    return shape.area()\n"
                    "def perimeter(shape):\n    return shape.perimeter()\n"
                    "class Shape:\n    def area(self):\n        return 1\n"
                    "    def perimeter(self):\n        return 4\n")
    demo = ast.parse("from flagcurv import m\nfrom flagcurv.m import perimeter\n"
                     "m.area(m.Shape())\nperimeter(m.Shape())\n")
    assert _uncalled([(True, src), (False, demo)]) == ["area"]


def test_guard_sees_an_uncalled_method():
    """A method counts as called when code outside it spells its name; a
    call from its own body does not, and dunders need no caller."""
    src = ast.parse("class Shape:\n    def __init__(self):\n        self.n = 4\n"
                    "    def area(self):\n        return self.area()\n"
                    "    def perimeter(self):\n        return self.n\n")
    demo = ast.parse("from flagcurv import m\nm.Shape().perimeter()\n")
    assert _uncalled([(True, src), (False, demo)]) == ["Shape.area"]


def test_guard_credits_only_the_receiver_class_method():
    """`A.load()` calls A's method, not the same-named method of B."""
    src = ast.parse("class A:\n    def load(self):\n        return 1\n"
                    "class B:\n    def load(self):\n        return 2\n")
    demo = ast.parse("from flagcurv.m import A, B\nA.load(B())\n")
    assert _uncalled([(True, src), (False, demo)]) == ["B.load"]


def test_guard_sees_through_a_local_that_spells_a_method():
    """A loop variable `value` is a local of its function: it calls no
    method `value`, while an attribute `norm.value` does."""
    src = ast.parse("class Norm:\n    def value(self):\n        return 1\n"
                    "    def size(self):\n        return 2\n"
                    "def total(pairs, size=0):\n    for name, value in pairs:\n"
                    "        size += value\n    return size\n")
    demo = ast.parse("from flagcurv.m import Norm, total\ntotal([(1, Norm())])\n")
    assert _uncalled([(True, src), (False, demo)]) == ["Norm.size", "Norm.value"]
    demo = ast.parse("from flagcurv.m import Norm, total\ntotal([(1, Norm().value())])\n")
    assert _uncalled([(True, src), (False, demo)]) == ["Norm.size"]
