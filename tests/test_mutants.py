"""Tooling guard: every mutant of tools/mutants.py still applies to the tree.

Each mutant's text occurs exactly once in its file, so the list cannot go
stale: a change that moves or rewrites a gate must update its mutant too.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_each_mutant_text_occurs_once_in_its_file():
    names = [name for name, *_ in mutants.MUTANTS]
    assert len(set(names)) == len(names)
    for name, file, old, new in mutants.MUTANTS:
        assert old != new, name
        assert (ROOT / file).read_text().count(old) == 1, name
