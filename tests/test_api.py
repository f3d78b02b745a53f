"""The public surface: every exported name resolves and has a caller in
the library, the result records are immutable value tuples, the integer
layers and the CLI start without numpy, click or `inspect`, only `norms`
loads numpy, no command loads `dataclasses`, and `certify` runs without
the rational and statistics modules."""

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


# The running sums: `itertools.accumulate`, and numpy's `cumsum`.
RUNNING_SUMS = {"accumulate", "cumsum"}


def running_sum_callers(source: str) -> set[str]:
    """The functions (dotted through classes and nesting) whose bodies
    call a running sum, by any name or attribute path; "<module>" for a
    call outside every function."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
                continue
            if isinstance(child, ast.Call):
                f = child.func
                if (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) in RUNNING_SUMS:
                    found.add(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_running_sum_callers_are_found():
    source = ("import numpy as np\nfrom numpy import cumsum\nnp.cumsum([1])\n"
              "def f(a):\n    return a.cumsum()\n"
              "class C:\n    def g(self, a):\n        return cumsum(a, axis=0)\n"
              "import itertools\nfrom itertools import accumulate\n"
              "def h(a):\n    def inner():\n        return accumulate(a)\n"
              "    return list(itertools.accumulate(a, initial=0))\n")
    assert running_sum_callers(source) == {"<module>", "f", "C.g", "h", "h.inner"}


def test_every_box_sum_is_the_one_prefix_sum():
    # `discrepancy._box_table` is the one exclusive prefix sum; a check
    # that needs box sums writes signed cells for it instead of summing.
    callers = {path.name: running_sum_callers(path.read_text())
               for path in Path(dyadnet.__file__).parent.glob("*.py")}
    assert {name: c for name, c in callers.items() if c} == {
        "discrepancy.py": {"_box_table"}}


# The GF(2) rank and the leading-digit mask of a box shape.
MASKED_RANK = {"_rank", "_leading_digits_mask"}


def masked_rank_callers(source: str) -> set[str]:
    """The functions (dotted through classes and nesting) whose bodies,
    nested functions included, read both the rank and the leading-digit
    mask, by any name or attribute path, called or not; "<module>" when
    code outside every function reads both."""
    read: dict[str, set[str]] = {}

    def visit(node, scope, functions):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = [*scope, child.name]
                is_function = not isinstance(child, ast.ClassDef)
                visit(child, inner, [*functions, ".".join(inner)] if is_function else functions)
                continue
            name = (child.attr if isinstance(child, ast.Attribute)
                    else child.id if isinstance(child, ast.Name) else None)
            if name in MASKED_RANK:
                for f in functions or ["<module>"]:
                    read.setdefault(f, set()).add(name)
            visit(child, scope, functions)

    visit(ast.parse(source), [], [])
    return {f for f, names in read.items() if names == MASKED_RANK}


def test_masked_rank_callers_are_found():
    source = ("from dyadnet import f2core, nets\n"
              "from dyadnet.f2core import _rank\n"
              "from dyadnet.nets import _leading_digits_mask\n"
              "TABLE = [_rank([_leading_digits_mask(d, 3)]) for d in ((1,), (2,))]\n"
              "def inline(d, s, basis):\n"
              "    return _rank(map(_leading_digits_mask(d, s).__and__, basis))\n"
              "def hoisted(d, s, basis):\n"
              "    mask = nets._leading_digits_mask(d, s)\n"
              "    return f2core._rank(b & mask for b in basis)\n"
              "class C:\n"
              "    def method(self, d, s):\n"
              "        rank = _rank\n"
              "        return rank([_leading_digits_mask(d, s)])\n"
              "def outer(d, s, basis):\n"
              "    mask = _leading_digits_mask(d, s)\n"
              "    def inner():\n"
              "        return _rank(b & mask for b in basis)\n"
              "    return inner()\n"
              "def mask_only(d, s):\n"
              "    return _leading_digits_mask(d, s)\n"
              "def rank_only(basis):\n"
              "    return _rank(basis)\n")
    assert masked_rank_callers(source) == {"<module>", "inline", "hoisted", "C.method", "outer"}


def test_the_masked_rank_is_the_one_shape_rank():
    # `nets._shape_rank` is the one route to the rank of a net's basis
    # under a box shape's leading-digit mask; every other route calls it.
    callers = {path.name: masked_rank_callers(path.read_text())
               for path in Path(dyadnet.__file__).parent.glob("*.py")}
    assert {name: c for name, c in callers.items() if c} == {"nets.py": {"_shape_rank"}}


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
# after `norms`, the first command that loads numpy, the OpenBLAS setting
# and the thread count (None where /proc is absent).  `main` ends every
# command with SystemExit.
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
run("norms", "--net", "van-der-corput", "--s", "2", "--samples", "256", "--q-grid", "2")
state["norms"] = loaded()
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
    # `verify` works on lists of Python ints; the Monte Carlo layer `norms`
    # is the one that loads numpy.
    state = run_startup_probe()
    steps = ("import", "certify", "gen", "verify", "norms")
    assert {k: "numpy" in state[k] for k in steps} == {
        "import": False, "certify": False, "gen": False, "verify": False, "norms": True}


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
    assert "dataclasses" not in state["norms"]


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
