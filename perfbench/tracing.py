"""Traced in-process replay of a workload, for the per-layer metrics.

The tracer wraps, for the duration of a replay, every public module-level
function of the six library layers (plus the few methods the metrics
need) and records one span per call: id, parent id, name, start, end.
Spans stay in memory and are written out when the run ends.  A span's
self time is its duration minus the part of its interval that its child
spans cover; a layer's self time sums the self time of its spans.

The CLI commands of the workload run in this process through click's
test runner, so the same command code runs as in the untraced children,
and every traced output is checked and compared with the untraced one.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import itertools
import statistics
import sys
import threading
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

LAYERS = ("f2core", "walsh", "nets", "discrepancy", "norms", "verify")

# Word- and digit-level helpers, called once per grid cell, character or
# coefficient (up to millions of calls a pass).  A span each would cost
# more than the work it measures, so their time stays in the caller's
# self time.
UNSPANNED = frozenset({
    "f2core.bit_reverse", "f2core.parity",
    "walsh.as_fraction", "walsh.digit_word", "walsh.rho_index", "walsh.decompose",
    "walsh.omega",
})

# Methods wrapped as well as the module-level functions.
METHODS = (
    ("f2core", "F2Subspace", "dual"),
    ("f2core", "F2Subspace", "min_weight"),
    ("discrepancy", "DiscrepancyContext", "build"),
)

# The end-to-end metric each per-layer metric should move, and on which
# workload; later changes cite these names.
MOVES = {
    "f2core.dual_s": "wall_s/cpu_s on certify, slightly on norms",
    "f2core.min_weight_s": "wall_s/cpu_s on certify, slightly on norms",
    "f2core.dual_elems": "wall_s/cpu_s on certify, slightly on norms",
    "nets.load_s": "setup_s on every workload",
    "nets.certify_s": "wall_s/cpu_s/work_per_s on certify",
    "nets.box_counts_s": "wall_s/cpu_s/work_per_s on certify",
    "nets.net_points_s": "wall_s/cpu_s on norms (gen)",
    "nets.points_per_s": "wall_s/cpu_s on norms (gen)",
    "nets.rescale_s": "wall_s/cpu_s on norms (gen)",
    "nets.rescale_attempts": "wall_s/cpu_s on norms (gen; useful/attempted shifts)",
    "discrepancy.context_build_s": "wall_s and peak_rss_mb on norms",
    "discrepancy.dual_points": "wall_s and peak_rss_mb on norms",
    "discrepancy.gap_s": "wall_s/cpu_s on certify (verify bundle); norms unchanged",
    "discrepancy.m_direct_s": "wall_s/cpu_s on certify (verify bundle); norms unchanged",
    "discrepancy.m_dual_sum_s": "wall_s/cpu_s on certify (verify bundle); norms unchanged",
    "walsh.fine_coefficient_s": "wall_s/cpu_s on certify (verify bundle)",
    "norms.m_block_s": "wall_s/cpu_s/work_per_s on norms",
    "norms.m_block_tail_s": "wall_s/cpu_s/work_per_s on norms",
    "norms.m_blocks": "sample count of norms.m_block_s",
    "norms.m_terms_per_sample": "wall_s/cpu_s/work_per_s on norms",
    "norms.l2_exact_s": "wall_s/cpu_s on norms",
    "norms.dn_block_s": "wall_s/cpu_s/work_per_s on norms (dn target)",
    "norms.dn_block_tail_s": "wall_s/cpu_s/work_per_s on norms (dn target)",
    "norms.dn_blocks": "sample count of norms.dn_block_s",
    "norms.lq_self_s": "wall_s/cpu_s/work_per_s on norms",
    "verify.poisson_s": "wall_s/cpu_s on certify (verify bundle); norms unchanged",
    "verify.route_s": "wall_s/cpu_s on certify (verify bundle); norms unchanged",
    "verify.gap_s": "wall_s/cpu_s on certify (verify bundle); norms unchanged",
    "verify.delta_s": "wall_s/cpu_s on certify (verify bundle); norms unchanged",
    "verify.fine_s": "wall_s/cpu_s on certify (verify bundle); norms unchanged",
    "verify.cases": "identity cases per pass of the verify bundle on certify",
    "verify.cases_per_s": "wall_s/cpu_s on certify (verify bundle)",
    "cli.startup_s": "setup_s on every workload",
    "cli.out_bytes": "setup_s on every workload; wall_s on norms (gen CSV)",
    "trace.overhead_s": "none: traced pass wall minus untraced pass wall",
    "trace.base_wall_s": "none: base of trace.overhead_s",
}
for _layer in ("cli",) + LAYERS:
    MOVES[f"{_layer}.self_s"] = "wall_s/cpu_s on the workloads that reach the layer"


class Tracer:
    """In-memory spans and counters for one traced replay."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, on_return=None):
        def traced(*args, **kwargs):
            stack = self._stack()
            # A pool thread starts with an empty stack; its caller is the
            # span open on the main thread (the one waiting on the pool).
            parent = stack[-1] if stack else (self._main[-1] if self._main else 0)
            sid = next(self._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, start, end))
            if on_return is not None:
                result = on_return(self, fn, args, kwargs, result)
            return result
        return traced


def _count_min_weight(tracer, fn, args, kwargs, result):
    if result.exhaustive:
        tracer.counts["dual_elems"] += args[0].cardinality
    return result


def _enumerated_dual(ctx) -> int:
    # Read the instance dict only, so a lazily built dual is not forced.
    pts = vars(ctx).get("dual_points")
    return len(pts) if pts is not None else 0


def _count_build(tracer, fn, args, kwargs, ctx):
    n = _enumerated_dual(ctx)
    tracer.counts["dual_points"] += n
    tracer.counts["dual_elems"] += n
    return ctx


def _count_points(tracer, fn, args, kwargs, points):
    tracer.counts["points"] += points.size
    return points


def _count_rescale(tracer, fn, args, kwargs, result):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    if result.shift is bound.arguments["shift"]:
        attempts = 1
    else:
        # Retry k (from 0) draws its shift with seed retry_seed + k.
        attempts = result.shift.seed - bound.arguments["retry_seed"] + 2
    tracer.counts["rescale_useful"] += 1
    tracer.counts["rescale_attempted"] += attempts
    return result


def _count_cases(tracer, fn, args, kwargs, result):
    tracer.counts["cases"] += result.checked
    return result


def _sampler(block_name):
    def hook(tracer, fn, args, kwargs, f):
        if block_name == "norms.m_block":
            # The dual route sums over the nonzero dual; a sampler that
            # never enumerates the dual sums over the N net points.
            ctx = args[0]
            dual = _enumerated_dual(ctx)
            tracer.counts["m_terms"] = dual - 1 if dual else ctx.cardinality
        return tracer.wrap(block_name, f)
    return hook


HOOKS = {
    "f2core.F2Subspace.min_weight": _count_min_weight,
    "discrepancy.DiscrepancyContext.build": _count_build,
    "nets.net_points": _count_points,
    "nets.rescale_to_N": _count_rescale,
    "norms.m_sampler": _sampler("norms.m_block"),
    "norms.dn_sampler": _sampler("norms.dn_block"),
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if name == "dyadnet" or name.startswith("dyadnet.")]


def clear_caches() -> None:
    """Empty the package's function caches, so that every in-process pass
    starts as cold as a fresh CLI process."""
    for mod in _package_modules():
        for obj in list(vars(mod).values()):
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


@contextmanager
def instrument(tracer: Tracer):
    """Replace the layers' public functions by traced wrappers in every
    dyadnet module that refers to them; restore them on exit."""
    mods = {layer: importlib.import_module(f"dyadnet.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, mod in mods.items():
        for name, obj in vars(mod).items():
            span = f"{layer}.{name}"
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_") and span not in UNSPANNED
                    and not inspect.isgeneratorfunction(obj)):
                hook = HOOKS.get(span)
                if layer == "verify" and name.startswith("check_"):
                    hook = _count_cases
                wrappers[id(obj)] = (obj, tracer.wrap(span, obj, hook))
    undo = []
    for mod in _package_modules():
        for name, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                undo.append((mod, name, obj))
                setattr(mod, name, hit[1])
    for layer, cls_name, meth in METHODS:
        cls = getattr(mods[layer], cls_name)
        raw = cls.__dict__[meth]
        is_cm = isinstance(raw, classmethod)
        traced = tracer.wrap(f"{layer}.{cls_name}.{meth}", raw.__func__ if is_cm else raw,
                             HOOKS.get(f"{layer}.{cls_name}.{meth}"))
        undo.append((cls, meth, raw))
        setattr(cls, meth, classmethod(traced) if is_cm else traced)
    try:
        yield
    finally:
        for target, name, obj in reversed(undo):
            setattr(target, name, obj)


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sid, parent, _, start, end in spans:
        children[parent].append((start, end))
    out = {}
    for sid, _, _, start, end in spans:
        covered, lo, hi = 0.0, None, None
        for a, b in sorted(children.get(sid, ())):
            a, b = max(a, start), min(b, end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[sid] = (end - start) - covered
    return out


def _tail(values: list[float]) -> float:
    """p90 when at least ten samples lie beyond it, else the maximum."""
    if not values:
        return 0.0
    if len(values) >= 100:
        return statistics.quantiles(values, n=10)[-1]
    return max(values)


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-pass per-layer metrics from the spans and counters of `passes`
    traced passes.  A layer the workload never reaches reads 0."""
    total = defaultdict(float)
    durations = defaultdict(list)
    layer_self = defaultdict(float)
    layer_calls = Counter()
    selfs = self_times(tracer.spans)
    for sid, _, name, start, end in tracer.spans:
        total[name] += end - start
        durations[name].append(end - start)
        layer = name.split(".", 1)[0]
        layer_self[layer] += selfs[sid]
        layer_calls[layer] += 1
    c = tracer.counts

    def per_pass(x):
        return x / passes

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    lq_self = sum(selfs[sid] for sid, _, name, _, _ in tracer.spans
                  if name == "norms.lq_norms_mc")
    checks = sum(v for k, v in total.items() if k.startswith("verify.check_"))
    m_blocks, dn_blocks = durations["norms.m_block"], durations["norms.dn_block"]
    metrics = {
        "f2core.dual_s": per_pass(total["f2core.F2Subspace.dual"]),
        "f2core.min_weight_s": per_pass(total["f2core.F2Subspace.min_weight"]),
        "f2core.dual_elems": per_pass(c["dual_elems"]),
        "nets.load_s": per_pass(total["nets.load_generators"]),
        "nets.certify_s": per_pass(total["nets.certify_deficiency"]),
        "nets.box_counts_s": per_pass(total["nets.verify_box_counts"]),
        "nets.net_points_s": per_pass(total["nets.net_points"]),
        "nets.points_per_s": rate(c["points"], total["nets.net_points"]),
        "nets.rescale_s": per_pass(total["nets.rescale_to_N"]),
        "nets.rescale_attempts": rate(c["rescale_useful"], c["rescale_attempted"]),
        "discrepancy.context_build_s": per_pass(total["discrepancy.DiscrepancyContext.build"]),
        "discrepancy.dual_points": per_pass(c["dual_points"]),
        "discrepancy.gap_s": per_pass(total["discrepancy.approximation_gap"]),
        "discrepancy.m_direct_s": per_pass(total["discrepancy.m_direct"]),
        "discrepancy.m_dual_sum_s": per_pass(total["discrepancy.m_dual_sum"]),
        "walsh.fine_coefficient_s": per_pass(total["walsh.fine_coefficient"]),
        "norms.m_block_s": statistics.median(m_blocks) if m_blocks else 0.0,
        "norms.m_block_tail_s": _tail(m_blocks),
        "norms.m_blocks": len(m_blocks),
        "norms.m_terms_per_sample": c["m_terms"],
        "norms.l2_exact_s": per_pass(total["norms.l2_m_exact"]),
        "norms.dn_block_s": statistics.median(dn_blocks) if dn_blocks else 0.0,
        "norms.dn_block_tail_s": _tail(dn_blocks),
        "norms.dn_blocks": len(dn_blocks),
        "norms.lq_self_s": per_pass(lq_self),
        "verify.poisson_s": per_pass(total["verify.check_poisson"]),
        "verify.route_s": per_pass(total["verify.check_route_equivalence"]),
        "verify.gap_s": per_pass(total["verify.check_approximation_gap"]),
        "verify.delta_s": per_pass(total["verify.check_delta_identities"]),
        "verify.fine_s": per_pass(total["verify.check_fine_closed_form"]
                                  + total["verify.check_fine_square_norm"]),
        "verify.cases": per_pass(c["cases"]),
        "verify.cases_per_s": rate(c["cases"], checks),
        "cli.out_bytes": per_pass(c["out_bytes"]),
    }
    for layer in ("cli",) + LAYERS:
        metrics[f"{layer}.self_s"] = per_pass(layer_self[layer])
    return metrics


def write_spans(tracer: Tracer, path: Path) -> None:
    """All spans as gzipped CSV: id,parent,name,start,end (seconds)."""
    with gzip.open(path, "wt") as fh:
        fh.write("id,parent,name,start_s,end_s\n")
        for sid, parent, name, start, end in tracer.spans:
            fh.write(f"{sid},{parent},{name},{start:.9f},{end:.9f}\n")


def replay(cli_main, argv, tracer: Tracer) -> tuple[int, bytes, str]:
    """Run one CLI command in this process under a `cli.<command>` span;
    return its exit code, stdout bytes and any uncaught exception."""
    from click.testing import CliRunner

    result = tracer.wrap(f"cli.{argv[0]}", CliRunner().invoke)(cli_main, list(argv))
    tracer.counts["out_bytes"] += len(result.stdout_bytes)
    error = repr(result.exception) if result.exit_code and result.exception else ""
    return result.exit_code, result.stdout_bytes, error
