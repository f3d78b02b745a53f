"""The public surface: every exported name resolves and has a caller in
the library, the result records are immutable value tuples, the integer
layers and the CLI start without numpy, click or `inspect`, only `norms`
loads numpy, no command loads `dataclasses`, `certify` runs without the
rational and statistics modules, and the sampler layers without `walsh`.
One AST walker and one table, ROUTES, keep each shared route in one
place: the box sum, the masked rank, the packed position, the dual route,
the bit reversal and the tensor character."""

import ast
import functools
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

import dyadnet
from dyadnet.discrepancy import GapReport
from dyadnet.verify import IdentityResult

# The running sums: `itertools.accumulate`, and numpy's `cumsum`.
RUNNING_SUMS = {"accumulate", "cumsum"}


class Scope:
    """What one scope's own body holds, its nested functions and classes
    left out; `functions` are the functions that hold it, itself included."""

    def __init__(self, functions: tuple[str, ...]):
        self.functions = functions
        # Identifiers loaded, identifiers bound or deleted, attribute names.
        self.loads, self.stores, self.attrs = set(), set(), set()
        # The names imported (a module by its last part), and those bound.
        self.imports, self.bound = set(), set()
        self.sums, self.shifts = [], []  # running-sum calls, shifts by a product

    @property
    def names(self) -> set[str]:
        return self.loads | self.stores | self.attrs


def scopes(source: str) -> dict[str, Scope]:
    """Each scope of a module by its path, dotted through classes and
    nesting, and "<module>" outside every function and class."""
    found: dict[str, Scope] = {}

    def visit(node, path, functions):
        scope = found.setdefault(".".join(path) or "<module>", Scope(functions))
        todo = list(ast.iter_child_nodes(node))
        while todo:
            child = todo.pop()
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = (*path, child.name)
                is_class = isinstance(child, ast.ClassDef)
                visit(child, inner, functions if is_class else (*functions, ".".join(inner)))
                continue
            todo.extend(ast.iter_child_nodes(child))
            if isinstance(child, ast.Name):
                (scope.loads if isinstance(child.ctx, ast.Load) else scope.stores).add(child.id)
            elif isinstance(child, ast.Attribute):
                scope.attrs.add(child.attr)
            elif isinstance(child, ast.Import):
                scope.imports.update(a.name.rsplit(".", 1)[-1] for a in child.names)
                scope.bound.update(a.asname or a.name.split(".")[0] for a in child.names)
            elif isinstance(child, ast.ImportFrom):
                scope.imports.update({a.name for a in child.names}
                                     | {(child.module or "").rsplit(".", 1)[-1]})
                if child.module != "__future__":
                    scope.bound.update(a.asname or a.name for a in child.names)
            elif isinstance(child, ast.Call):
                f = child.func
                if (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) in RUNNING_SUMS:
                    scope.sums.append(child)
            elif isinstance(child, (ast.BinOp, ast.AugAssign)) and isinstance(child.op, ast.LShift):
                # The inline packing form `w << (j * s)`; a size
                # `1 << (...)` is no packing.
                shifted, amount = ((child.left, child.right) if isinstance(child, ast.BinOp)
                                   else (child.target, child.value))
                if not (isinstance(shifted, ast.Constant) and shifted.value == 1) and any(
                        isinstance(c, ast.BinOp) and isinstance(c.op, ast.Mult)
                        for c in ast.walk(amount)):
                    scope.shifts.append(child)

    visit(ast.parse(source), (), ())
    return found


@functools.cache
def package() -> dict[str, dict[str, Scope]]:
    """The scopes of each module of the package, by module name."""
    return {path.stem: scopes(path.read_text())
            for path in Path(dyadnet.__file__).parent.glob("*.py")}


def referenced_names() -> set[str]:
    """Names read by the package's modules other than `__init__.py`:
    loaded identifiers and attribute names, not imports or definitions."""
    return {name for module, found in package().items() if module != "__init__"
            for scope in found.values() for name in scope.loads | scope.attrs}


def unread_imports(module: dict[str, Scope]) -> set[str]:
    """Names a module binds by import but never loads; an `import a.b`
    binds `a`, and `from __future__` imports bind nothing."""
    return (set().union(*(s.bound for s in module.values()))
            - set().union(*(s.loads for s in module.values())))


def test_unread_imports_are_found():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from .f2core import _index, _unpack\nx = np.zeros(_unpack(1, 1, 1))\n")
    assert unread_imports(scopes(source)) == {"os", "_index"}


def test_no_module_imports_a_name_it_never_reads():
    # `__init__.py` imports to re-export, so it is left out.
    for name, module in package().items():
        if name != "__init__":
            assert unread_imports(module) == set(), name


def own_body(holds: Callable[[Scope], object]):
    """The finder of the scopes whose own body `holds`."""
    return lambda module: {path for path, scope in module.items() if holds(scope)}


def reads_each(*groups: set[str]):
    """The finder of the functions that read a name of every one of
    `groups`, the reads of their nested functions included. A class body
    is no function: its reads count for the functions around it, or for
    "<module>"."""
    def finds(module: dict[str, Scope]) -> set[str]:
        read: dict[str, set[str]] = {}
        for scope in module.values():
            for f in scope.functions or ("<module>",):
                read.setdefault(f, set()).update(scope.names)
        return {f for f, names in read.items() if all(g & names for g in groups)}
    return finds


# The dual route's names: the tensor character, the reversal of a point
# (`_rev_words` was a second entry to it) and the synthesis module.
DUAL_ROUTE = {"walsh", "_character", "_rev_packed", "_rev_words"}


class Route(NamedTuple):
    """One evaluation route: on every module but the `exempt` ones, what
    `finds` reports must be what `owners` lists, by module."""
    finds: Callable[[dict[str, Scope]], set[str]]
    owners: dict[str, set[str]]
    exempt: frozenset[str] = frozenset()


ROUTES = {
    # `discrepancy._box_table` is the one exclusive prefix sum; a check
    # that needs box sums writes signed cells for it instead of summing.
    "box-sum": Route(own_body(lambda scope: scope.sums), {"discrepancy": {"_box_table"}}),
    # `nets._shape_rank` is the one route to the rank of a net's basis
    # under a box shape's leading-digit mask, the one function that reads
    # both `_rank` and `_leading_digits_mask`; every other route calls it.
    "masked-rank": Route(reads_each({"_rank"}, {"_leading_digits_mask"}),
                         {"nets": {"_shape_rank"}}),
    # `f2core._index` lays out every digit word in packed order.
    "packed-position": Route(own_body(lambda scope: scope.shifts), {}),
    # `verify._dual_cells` is the one dual route, a Walsh synthesis signed
    # by `f2core._character`: no other module imports its names.
    "dual-route": Route(lambda module: DUAL_ROUTE & set().union(
        *(scope.imports for scope in module.values())), {}, frozenset({"f2core", "verify"})),
    # `f2core._rev_packed` is the one reversal of a point.
    "bit-reversal": Route(own_body(lambda scope: "bit_reverse" in scope.names),
                          {"f2core": {"_rev_packed"}}),
    # `f2core._character` is the one tensor character: outside f2core no
    # function pairs a parity with a bit reversal by hand.
    "character": Route(reads_each({"parity"}, {"bit_reverse", "_rev_packed"}), {},
                       frozenset({"f2core"})),
}


@pytest.mark.parametrize("route", ROUTES)
def test_each_route_has_its_one_owner(route):
    finds, owners, exempt = ROUTES[route]
    found = {name: finds(module) for name, module in package().items() if name not in exempt}
    assert {name: f for name, f in found.items() if f} == owners


DUAL_SOURCE = ("from . import nets, walsh\n"
               "from .f2core import _character as ch, _index, bit_reverse\n"
               "import dyadnet.f2core\n"
               "def late():\n"
               "    from dyadnet.f2core import _rev_packed\n"
               "    from .walsh import synthesis\n"
               "    return _rev_packed, synthesis\n"
               "def rev(w, s):\n    return bit_reverse(w, s)\n"
               "class C:\n    def words(self, ws, s):\n"
               "        return [dyadnet.f2core.bit_reverse(w, s) for w in ws]\n"
               "def outer(s):\n    def inner(w):\n        return w\n"
               "    return list(map(bit_reverse, [1], [s]))\n"
               "TABLE = [bit_reverse(w, 3) for w in range(8)]\n"
               "def plain(w):\n    return w\n")

# Forms that the guards caught in the package: `f2core._pack` and
# `_rev_words` before `_index` and `_rev_packed` replaced them, the inline
# masked rank of `nets.certify_deficiency`, and `discrepancy`'s imports
# of the dual route before it moved to `verify`.
PACKING_EXCERPT = ("def _pack(words, s):\n    out = 0\n    for j, w in enumerate(words):\n"
                   "        out |= w << (j * s)\n    return out\n"
                   "def _rev_words(words, s):\n    out = 0\n    for j, w in enumerate(words):\n"
                   "        out |= bit_reverse(w, s) << (j * s)\n    return out\n")

# Sources, and what each route finds in them.
SAMPLES = [
    ("box-sum", "import numpy as np\nfrom numpy import cumsum\nnp.cumsum([1])\n"
     "def f(a):\n    return a.cumsum()\n"
     "class C:\n    def g(self, a):\n        return cumsum(a, axis=0)\n"
     "import itertools\nfrom itertools import accumulate\n"
     "def h(a):\n    def inner():\n        return accumulate(a)\n"
     "    return list(itertools.accumulate(a, initial=0))\n",
     {"<module>", "f", "C.g", "h", "h.inner"}),
    ("masked-rank", "from dyadnet import f2core, nets\n"
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
     "    return _rank(basis)\n",
     {"<module>", "inline", "hoisted", "C.method", "outer"}),
    ("masked-rank", "def certify_deficiency(sub):\n    n, s = sub.n, sub.s\n    m = 1\n"
     "    while m <= s and all(\n"
     "        _rank(map(_leading_digits_mask(d, s).__and__, sub.basis)) == m\n"
     "        for d in _compositions(m, n)\n    ):\n        m += 1\n    return s + 1 - m\n",
     {"certify_deficiency"}),
    ("packed-position", "def pack(words, s):\n    out = 0\n    for j, w in enumerate(words):\n"
     "        out |= w << (j * s)\n    return out\n"
     "class C:\n    def rev(self, words, s):\n"
     "        return sum(bit_reverse(w, s) << (j * s) for j, w in enumerate(words))\n"
     "def mask(shape, s):\n    m = 0\n    for j, d in enumerate(shape):\n"
     "        m |= ((1 << d) - 1) << (s - d + j * s)\n    return m\n"
     "def augmented(w, j, s):\n    w <<= j * s\n    return w\n"
     "TOP = 5 << (2 * 3)\n"
     "def size(n, s):\n    return 1 << (n * s)\n"
     "def plain(w, s):\n    return (w << s) * 2\n",
     {"pack", "C.rev", "mask", "augmented", "<module>"}),
    ("packed-position", PACKING_EXCERPT, {"_pack", "_rev_words"}),
    ("dual-route", DUAL_SOURCE, {"walsh", "_character", "_rev_packed"}),
    ("dual-route", "import dyadnet.walsh as w\nfrom .f2core import _rev_words\n",
     {"walsh", "_rev_words"}),
    ("dual-route", "from .f2core import (\n    F2Subspace,\n    _character,\n    _index,\n"
     "    _rev_packed,\n    _rev_words,\n)\nfrom . import walsh\n",
     {"_character", "_rev_packed", "_rev_words", "walsh"}),
    ("bit-reversal", DUAL_SOURCE, {"rev", "C.words", "outer", "<module>"}),
    ("bit-reversal", PACKING_EXCERPT, {"_rev_words"}),
    ("character", "from dyadnet import f2core\n"
     "from dyadnet.f2core import _character, _rev_packed, bit_reverse, parity\n"
     "def by_hand(a, b, n, s):\n    return parity(_rev_packed(a, n, s) & b)\n"
     "def nested(a, b, s):\n    r = f2core.bit_reverse(a, s)\n"
     "    def inner():\n        return f2core.parity(r & b)\n    return inner()\n"
     "def poisson(pivots, dual, n, s):\n"
     "    rev = [_rev_packed(p, n, s) for p in pivots]\n"
     "    return all(_character(r, L) > 0 for L in dual for r in rev)\n"
     "def parity_only(a):\n    return parity(a)\n",
     {"by_hand", "nested"}),
]


@pytest.mark.parametrize("route, source, expected", SAMPLES,
                         ids=[f"{route}-{k}" for k, (route, _, _) in enumerate(SAMPLES)])
def test_routes_find_their_forms(route, source, expected):
    assert ROUTES[route].finds(scopes(source)) == expected


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


# The layers that the sampler commands (`norms`, `sweep`) import, alone.
LAYER_PROBE = """
import json, sys
import dyadnet.norms, dyadnet.discrepancy
print(json.dumps(sorted(m for m in sys.modules if m.startswith("dyadnet"))))
"""


def run_startup_probe(probe: str = STARTUP_PROBE, **env):
    src = str(Path(dyadnet.__file__).resolve().parent.parent)
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env={**base, "PYTHONPATH": src, **env}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def state():
    """The modules loaded at each step of STARTUP_PROBE, run once."""
    return run_startup_probe()


def test_cli_loads_numpy_only_for_the_array_commands(state):
    # `verify` works on lists of Python ints; the Monte Carlo layer `norms`
    # is the one that loads numpy.
    steps = ("import", "certify", "gen", "verify", "norms")
    assert {k: "numpy" in state[k] for k in steps} == {
        "import": False, "certify": False, "gen": False, "verify": False, "norms": True}


def test_cli_loads_fractions_and_statistics_only_where_used(state):
    # `certify` works on integer words; `gen` builds Fraction points, and
    # only `sweep` takes a median.
    assert state["import"] == state["certify"] == []
    assert "fractions" in state["gen"]
    assert "statistics" not in state["verify"]
    assert "statistics" not in state["norms"]


def test_cli_starts_without_click_inspect_or_dataclasses(state):
    # The command line is argparse, and the integer layers' value types are
    # plain classes: click and `dataclasses` (which imports `inspect`) were
    # the largest imports of a `certify` or `gen` process.
    assert {step: sorted({"click", "inspect", "dataclasses"} & set(state[step]))
            for step in ("import", "certify", "gen")} == {
        "import": [], "certify": [], "gen": []}
    # `DiscrepancyContext` is a plain class too, so no module of the
    # package imports `dataclasses`, also once numpy is loaded.
    assert "dataclasses" not in state["verify"]
    assert "dataclasses" not in state["norms"]


def test_sampler_layers_load_no_walsh():
    # The Walsh synthesis serves only `verify`'s dual route, so the
    # layers a `norms` or `sweep` child imports leave it unloaded.
    loaded = set(run_startup_probe(LAYER_PROBE))
    assert {"dyadnet.norms", "dyadnet.discrepancy"} <= loaded
    assert "dyadnet.walsh" not in loaded


def test_cli_runs_blas_single_threaded(state):
    # numpy's OpenBLAS would start a worker thread per extra core; no array
    # layer uses threaded BLAS, so the CLI pins the pool before numpy loads.
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
