"""Import boundary: the exact verbs never load numpy, and the package's
numeric names still resolve on first access."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import flagcurv

SRC = str(Path(flagcurv.__file__).resolve().parent.parent)

# Runs `python -m flagcurv.cli ARGS` in-process, then reports on stderr
# whether numpy and flagcurv.coset were imported.
PROBE = """\
import runpy, sys
sys.argv = ["flagcurv"] + sys.argv[1:]
try:
    runpy.run_module("flagcurv.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print("numpy loaded:", "numpy" in sys.modules, file=sys.stderr)
print("coset loaded:", "flagcurv.coset" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("argv", [["verify", "--theorem", "1"], ["roots", "A", "3"]])
def test_exact_verbs_never_import_numpy(argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("{")
    assert proc.stderr.splitlines()[-2:] == ["numpy loaded: False", "coset loaded: False"]


def test_numeric_names_resolve_lazily():
    from flagcurv import Quartic
    from flagcurv import coset, curvature, norms
    assert flagcurv.sample_flags is curvature.sample_flags
    assert flagcurv.CosetSpace is coset.CosetSpace
    assert Quartic is norms.Quartic
    assert flagcurv.coset is coset


def test_every_public_name_is_reachable():
    for name in flagcurv.__all__:
        assert getattr(flagcurv, name) is not None, name
    namespace = {}
    exec("from flagcurv import *", namespace)
    assert set(flagcurv.__all__) <= set(namespace)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        flagcurv.no_such_name
    assert not hasattr(flagcurv, "rootsys_v2")


# Imports the CLI with every RootSystem construction recorded, then reports
# what was built: the root systems, the cached root data and the unit specs.
IMPORT_PROBE = """\
from flagcurv import rootsys
built = []
init = rootsys.RootSystem.__post_init__
def record(self):
    built.append((self.family, self.rank))
    init(self)
rootsys.RootSystem.__post_init__ = record
import flagcurv.cli
from flagcurv import obstruct
print(len(built), obstruct._root_data.cache_info().currsize, len(rootsys._UNIT_SPECS))
"""


def test_importing_the_cli_builds_no_root_data():
    """No work moves into import: a fresh `import flagcurv.cli` builds no
    root system, no root data and no unit spec, so the classifier's cold
    start stays inside the call that needs it."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0", "0"]
