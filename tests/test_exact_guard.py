"""Tooling guard: the exact layer makes no float decision.

`rootsys` (the lattice and its boundary) and `obstruct` decide every sign,
order, grouping and membership from exact values on the integer torus
lattice.  This test parses the two modules and rejects any numpy or scipy
import and any call of `float(...)`, `.floats()` or `lstsq`.
`QNum.__float__`, which the tests compare with, is the only exemption; the
matrix layers compute the float view of a lattice vector themselves.  The
import-time relative imports of the two name only each other, so the exact
verbs never load a matrix module (and numpy with it).  No file of the
package imports mpmath, a test-only dependency.  The classifier itself never
touches QNum: `obstruct` does not name it, and the root data of every space
the survivor lists build holds ints only.
"""

import ast
from pathlib import Path

import pytest

import flagcurv
from flagcurv import obstruct

SRC = Path(flagcurv.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
EXEMPT = {("QNum", "__float__")}
BANNED_MODULES = ("numpy", "scipy")
EXACT_FILES = ("rootsys.py", "obstruct.py")


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            yield node.module


def _float_uses(tree):
    """(line, what) for each banned float use outside the exempt methods."""
    skip = set()
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and (cls.name, fn.name) in EXEMPT:
                    skip.update(id(n) for n in ast.walk(fn))
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id in ("float", "lstsq"):
                yield node.lineno, f"{f.id}()"
            elif isinstance(f, ast.Attribute) and f.attr in ("floats", "lstsq"):
                yield node.lineno, f".{f.attr}()"


def _import_time_relative_imports(tree):
    """Modules named by the relative imports that run when the module is
    imported: module-level statements, also inside module-level `if` and
    `try`, except the `if TYPE_CHECKING:` blocks."""
    todo = list(tree.body)
    while todo:
        node = todo.pop(0)
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module:
                yield node.module
            else:
                yield from (a.name for a in node.names)
        elif isinstance(node, ast.If):
            if ast.unparse(node.test) not in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
                todo += node.body + node.orelse
        elif isinstance(node, ast.Try):
            todo += node.body + node.orelse + node.finalbody
            for handler in node.handlers:
                todo += handler.body


@pytest.mark.parametrize("module", EXACT_FILES)
def test_exact_modules_make_no_float_decision(module):
    tree = ast.parse((SRC / module).read_text())
    imports = [m for m in _imported_modules(tree) if m.split(".")[0] in BANNED_MODULES]
    assert imports == []
    assert list(_float_uses(tree)) == []


def test_guard_sees_a_float_call():
    tree = ast.parse("class QNum:\n"
                     "    def __float__(self):\n        return float(1)\n"
                     "def key(v):\n    return v.floats(), float(v), np.linalg.lstsq(a, b)\n")
    assert [what for _, what in _float_uses(tree)] == [".floats()", "float()", ".lstsq()"]


def _importers(files, top):
    """The files that import module `top` or one of its submodules."""
    return [str(p) for p in files
            if any(m.split(".")[0] == top for m in _imported_modules(ast.parse(p.read_text())))]


def test_no_source_or_test_file_imports_scipy():
    assert _importers(sorted(SRC.rglob("*.py")) + sorted(TESTS.rglob("*.py")), "scipy") == []


def test_no_source_file_imports_mpmath():
    """mpmath is a test dependency: only the test oracles use it."""
    assert _importers(sorted(SRC.glob("*.py")), "mpmath") == []


@pytest.mark.parametrize("module", EXACT_FILES)
def test_exact_modules_import_only_each_other(module):
    tree = ast.parse((SRC / module).read_text())
    names = list(_import_time_relative_imports(tree))
    assert [m for m in names if f"{m}.py" not in EXACT_FILES] == []


def test_import_guard_sees_a_matrix_module():
    tree = ast.parse("from typing import TYPE_CHECKING\n"
                     "from .rootsys import TVec\n"
                     "from . import obstruct, coset\n"
                     "if TYPE_CHECKING:\n    from .coset import CosetSpace\n"
                     "try:\n    from .liealg import realize\nexcept ImportError:\n    pass\n"
                     "def f():\n    from .norms import Quadratic\n")
    assert list(_import_time_relative_imports(tree)) == ["rootsys", "obstruct", "coset", "liealg"]


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            yield node.asname or node.name
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_classifier_does_not_name_qnum():
    tree = ast.parse((SRC / "obstruct.py").read_text())
    assert "QNum" not in set(_names(tree))


def test_qnum_guard_sees_an_import_and_a_use():
    tree = ast.parse("from .rootsys import QNum as Q\nx = rootsys.QNum.of(2)\n")
    assert "QNum" in set(_names(tree))


def test_root_data_of_the_survivor_lists_holds_ints(monkeypatch):
    seen = {}
    build = obstruct._root_data

    def record(spec):
        seen[spec] = build(spec)
        return seen[spec]

    monkeypatch.setattr(obstruct, "_root_data", record)
    for part in (1, 2, 3):
        assert obstruct.verify_theorem(part)["match"]
    assert len(seen) > 20
    for spec, rd in seen.items():
        vectors = list(rd.g_roots) + list(map(rd.canonical, rd.g_roots))
        assert all(type(x) is int for tv in vectors for x in tv), spec
