"""The public surface: every exported name resolves and has a caller in
the library, the result records are immutable value tuples, the integer
layers and the CLI start without numpy, click or `inspect`, no command
loads `dataclasses`, and `certify` runs without the rational and
statistics modules."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dyadnet
from dyadnet.discrepancy import GapReport
from dyadnet.verify import IdentityResult

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


def unread_imports(source: str) -> set[str]:
    """Names a module binds by import but never loads; an `import a.b`
    binds `a`, and `from __future__` imports bind nothing."""
    tree = ast.parse(source)
    imported, loaded = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
    return imported - loaded


def test_unread_imports_are_found():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from .f2core import _pack, _unpack\nx = np.zeros(_unpack(1, 1, 1))\n")
    assert unread_imports(source) == {"os", "_pack"}


def test_no_module_imports_a_name_it_never_reads():
    # `__init__.py` imports to re-export, so it is left out.
    for path in Path(dyadnet.__file__).parent.glob("*.py"):
        if path.name != "__init__.py":
            assert unread_imports(path.read_text()) == set(), path.name


def test_every_public_name_has_a_production_caller():
    assert set(dyadnet.__all__) <= referenced_names()


def test_every_public_name_resolves():
    for name in dyadnet.__all__:
        assert getattr(dyadnet, name) is not None, name
    ns: dict = {}
    exec("from dyadnet import *", ns)
    assert set(dyadnet.__all__) <= set(ns)
    assert set(dyadnet.__all__) <= set(dir(dyadnet))
    with pytest.raises(AttributeError):
        getattr(dyadnet, "no_such_name")


# Plain value records: each name's fields in order, then its defaults.
RECORDS = {
    "dyadnet.nets.RescaleResult": (("points", "divisor", "shift"), {}),
    "dyadnet.discrepancy.GapReport": (("max_gap", "bound", "argmax", "points_checked"), {}),
    "dyadnet.verify.IdentityResult": (
        ("name", "passed", "checked", "witness"), {"witness": None}),
    "dyadnet.norms.LqEstimate": (("q", "value", "stderr", "samples"), {}),
    "dyadnet.norms.OrliczEstimate": (("value", "theta", "at_q"), {}),
}


@pytest.mark.parametrize("path", sorted(RECORDS))
def test_result_records_are_immutable_values(path):
    module, name = path.rsplit(".", 1)
    cls = getattr(importlib.import_module(module), name)
    fields, defaults = RECORDS[path]
    assert (cls._fields, cls._field_defaults) == (fields, defaults)
    values = tuple((k, "x") for k in range(len(fields)))
    rec = cls(*values)
    assert rec == cls(*values) and hash(rec) == hash(cls(*values))
    assert rec != cls(*values[:-1], None)
    with pytest.raises(AttributeError):
        setattr(rec, fields[0], None)
    with pytest.raises(AttributeError):
        rec.extra = None


def test_record_defaults_and_properties():
    assert IdentityResult("poisson-summation", True, 4).witness is None
    assert [GapReport(gap, 2, (), 1).within_bound for gap in (1, 2, 3)] == [
        True, True, False]


# Runs in a fresh interpreter, since this one has loaded numpy already.
# It records which of the modules in WATCHED are loaded at each step, and
# after `verify` the OpenBLAS setting and the thread count (None where
# /proc is absent).  `main` ends every command with SystemExit.
STARTUP_PROBE = """
import json, os, re, sys
WATCHED = ("numpy", "fractions", "decimal", "statistics", "click", "inspect",
           "dataclasses")
def loaded():
    return [m for m in WATCHED if m in sys.modules]
def run(*args):
    try:
        main(list(args))
    except SystemExit as exc:
        assert exc.code == 0, exc.code
import dyadnet, dyadnet.cli
state = {"import": loaded()}
from dyadnet.cli import main
run("certify", "--net", "sobol", "--n", "3", "--s", "5")
state["certify"] = loaded()
run("gen", "--net", "sobol", "--n", "3", "--s", "6", "--count", "40", "--shift-seed", "1")
state["gen"] = loaded()
run("verify", "--net", "van-der-corput", "--s", "2")
state["verify"] = loaded()
state["blas_env"] = os.environ.get("OPENBLAS_NUM_THREADS")
state["threads"] = None
if os.path.exists("/proc/self/status"):
    with open("/proc/self/status") as f:
        state["threads"] = int(re.search(r"^Threads:\\s*(\\d+)", f.read(), re.M).group(1))
print(json.dumps(state))
"""


def run_startup_probe(**env) -> dict:
    src = str(Path(dyadnet.__file__).resolve().parent.parent)
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run([sys.executable, "-c", STARTUP_PROBE], capture_output=True,
                          text=True, env={**base, "PYTHONPATH": src, **env}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_loads_numpy_only_for_the_array_commands():
    state = run_startup_probe()
    assert {k: "numpy" in state[k] for k in ("import", "certify", "gen", "verify")} == {
        "import": False, "certify": False, "gen": False, "verify": True}


def test_cli_loads_fractions_and_statistics_only_where_used():
    # `certify` works on integer words; `gen` builds Fraction points, and
    # only `sweep` takes a median.
    state = run_startup_probe()
    assert state["import"] == state["certify"] == []
    assert "fractions" in state["gen"]
    assert "statistics" not in state["verify"]


def test_cli_starts_without_click_inspect_or_dataclasses():
    # The command line is argparse, and the integer layers' value types are
    # plain classes: click and `dataclasses` (which imports `inspect`) were
    # the largest imports of a `certify` or `gen` process.
    state = run_startup_probe()
    assert {step: sorted({"click", "inspect", "dataclasses"} & set(state[step]))
            for step in ("import", "certify", "gen")} == {
        "import": [], "certify": [], "gen": []}
    # `DiscrepancyContext` is a plain class too, so no module of the
    # package imports `dataclasses`, also once numpy is loaded.
    assert "dataclasses" not in state["verify"]


def test_cli_runs_blas_single_threaded():
    # numpy's OpenBLAS would start a worker thread per extra core; no array
    # layer uses threaded BLAS, so the CLI pins the pool before numpy loads.
    state = run_startup_probe()
    assert state["blas_env"] == "1"
    if state["threads"] is not None:
        assert state["threads"] == 1


def test_cli_keeps_a_caller_blas_setting():
    assert run_startup_probe(OPENBLAS_NUM_THREADS="2")["blas_env"] == "2"


def test_cli_leaves_the_environment_once_numpy_is_loaded(monkeypatch):
    import numpy  # noqa: F401  (the setting could no longer take effect)

    from dyadnet.cli import main

    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    before = dict(os.environ)
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--net", "van-der-corput", "--s", "3"])
    assert exc.value.code == 0
    assert dict(os.environ) == before
