"""Tooling guard: every module-level function and class of `flagcurv` has a
caller in the program.

A definition counts as called when a plain name or an attribute somewhere in
`src/` or `demos/`, outside its own definition, spells its name.  Tests do
not count: code that only tests reach is test surface.  Matching is by name,
so a free function that shares its name with a method some code calls
passes.  EXEMPT names the definitions kept without a caller, each with its
reason; an exemption whose name gains a caller or loses its definition
fails too, so the list cannot go stale.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "flagcurv"
DEMOS = ROOT / "demos"
EXEMPT = (
    ("__getattr__", "the package's PEP 562 hook: the interpreter calls it"),
    ("fd_g_inner", "finite-difference oracle of the closed-form Hessians"),
    ("fd_cartan", "finite-difference oracle of the closed-form Cartan tensors"),
    ("revalidate_witness", "replays an exclusion witness; a certificate replay path will call it"),
    ("tvec_to_json", "the lattice JSON form that exclusion certificates will hold"),
    ("exact_inverse", "bench/tracer.py traces it as an exact solver"),
    ("norm_to_json_str", "the tests write norm files with it"),
)


def _uncalled(trees):
    """Names of the module-level defs of the `src` trees that no tree names
    outside the def itself.  trees: (is_src, tree) pairs."""
    names = {}  # name -> ids of the nodes inside its definitions
    for is_src, tree in trees:
        for node in tree.body if is_src else ():
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.setdefault(node.name, set()).update(id(n) for n in ast.walk(node))
    called = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else \
                node.attr if isinstance(node, ast.Attribute) else None
            if name in names and id(node) not in names[name]:
                called.add(name)
    return sorted(set(names) - called)


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
