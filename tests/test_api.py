"""The public surface: every exported name resolves and has a caller in
the library, and the integer layers and the CLI start without numpy."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dyadnet

# The synthetic digit-sign experiments of acceptance 09 have no caller
# in the library yet; ROADMAP item 13 decides whether they stay.
UNCALLED = {"khinchin_ratios", "hyperbolic_lp_ratios"}


def referenced_names() -> set[str]:
    """Names read by the package's modules other than `__init__.py`:
    loaded identifiers and attribute names, not imports or definitions."""
    names = set()
    for path in Path(dyadnet.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_has_a_production_caller():
    assert UNCALLED <= set(dyadnet.__all__)
    assert set(dyadnet.__all__) - referenced_names() == UNCALLED


def test_every_public_name_resolves():
    for name in dyadnet.__all__:
        assert getattr(dyadnet, name) is not None, name
    ns: dict = {}
    exec("from dyadnet import *", ns)
    assert set(dyadnet.__all__) <= set(ns)
    assert set(dyadnet.__all__) <= set(dir(dyadnet))
    with pytest.raises(AttributeError):
        getattr(dyadnet, "no_such_name")


# Runs in a fresh interpreter, since this one has loaded numpy already.
STARTUP_PROBE = """
import json, sys
import dyadnet, dyadnet.cli
state = {"import": "numpy" in sys.modules}
from dyadnet.cli import main
main(["certify", "--net", "sobol", "--n", "3", "--s", "5"], standalone_mode=False)
main(["gen", "--net", "sobol", "--n", "3", "--s", "6", "--count", "40",
      "--shift-seed", "1"], standalone_mode=False)
state["certify_gen"] = "numpy" in sys.modules
main(["verify", "--net", "van-der-corput", "--s", "2"], standalone_mode=False)
state["verify"] = "numpy" in sys.modules
print(json.dumps(state))
"""


def test_cli_loads_numpy_only_for_the_array_commands():
    src = str(Path(dyadnet.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", STARTUP_PROBE], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    state = json.loads(proc.stdout.splitlines()[-1])
    assert state == {"import": False, "certify_gen": False, "verify": True}
