"""Batch command line for net generation, certification, identity
verification, norm estimation, and the growth-law sweep.

Every output starts with a provenance header (config echo, seeds,
version, arithmetic mode) and is byte-reproducible for a fixed config.
Exit codes: 0 ok, 1 runtime failure, 2 input error, 3 identity-suite
failure.

The array layers (`discrepancy`, `norms`, `verify`) are imported inside
the commands that use them, so `gen` and `certify` run without numpy.
Likewise `fractions` loads only with the points of `gen` (in `nets`) and
`statistics` only in `sweep`, so `certify` loads neither.
Before they load, the command group sets `OPENBLAS_NUM_THREADS=1` unless
the caller has set it: no array layer uses threaded BLAS, and numpy's
import would otherwise start OpenBLAS worker threads, one per extra core,
that only burn CPU time.  Only this command group sets it; `import
dyadnet` does not.

The `dyadnet` process (the console script and `python -m dyadnet.cli`)
enters through `run`: it flushes its output and ends without interpreter
teardown.  In-process callers of `main` (tests, click's `CliRunner`) are
unaffected and exit normally.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import click

from . import __version__
from .nets import (
    GeneratorFormatError,
    GeneratorSet,
    InjectivityError,
    RescaleError,
    certify_deficiency,
    load_generators,
    net_points,
    random_shift,
    rescale_to_N,
    verify_box_counts,
)

if TYPE_CHECKING:
    from fractions import Fraction

EXIT_RUNTIME = 1
EXIT_INPUT = 2
EXIT_IDENTITY = 3


class _Failure(click.ClickException):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.exit_code = code


def _provenance_lines(command: str, config: dict, mode: str) -> list[str]:
    blob = json.dumps(config, sort_keys=True, default=str)
    return [
        f"# dyadnet {__version__}",
        f"# command: {command}",
        f"# config: {blob}",
        f"# mode: {mode}",
    ]


def _emit(out: str | None, fmt: str, command: str, config: dict, mode: str,
          columns: list[str], rows: list[list], extras: dict | None = None) -> None:
    if fmt == "json":
        doc = {
            "generator": f"dyadnet {__version__}",
            "command": command,
            "config": config,
            "mode": mode,
            "columns": columns,
            "rows": rows,
        }
        if extras:
            doc["extras"] = extras
        text = json.dumps(doc, sort_keys=True, indent=2, default=str) + "\n"
    else:
        lines = _provenance_lines(command, config, mode)
        if extras:
            for k in sorted(extras):
                lines.append(f"# {k}: {json.dumps(extras[k], sort_keys=True, default=str)}")
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_cell(v) for v in row))
        text = "\n".join(lines) + "\n"
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise _Failure(f"cannot write {out}: {exc.strerror or exc}", EXIT_RUNTIME)
    else:
        _write_stdout(text.encode())


def _write_stdout(data: bytes) -> None:
    """Write all of `data` to the byte stream under stdout.

    An unbuffered stdout (`PYTHONUNBUFFERED`) is a raw file, and a raw
    write that a closed pipe cuts short returns the count it wrote; the
    text layer drops the rest without an error.  Writing the remainder
    again raises EPIPE instead, which click turns into exit 1.
    """
    if sys.stdout is None:
        return
    sys.stdout.flush()
    buffer = sys.stdout.buffer
    view = memoryview(data)
    while view:
        written = buffer.write(view)
        if not written:
            raise _Failure("stdout accepted no bytes", EXIT_RUNTIME)
        view = view[written:]
    buffer.flush()


def _cell(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _load_net(net: str, n: int | None, s: int | None) -> GeneratorSet:
    try:
        return load_generators(net, n=n, s=s)
    except (GeneratorFormatError, InjectivityError, ValueError, OSError) as exc:
        raise _Failure(f"cannot load net: {exc}", EXIT_INPUT)


def _parse_q_grid(text: str | None) -> tuple[float, ...]:
    from .norms import DEFAULT_Q_GRID, q_grid

    if not text:
        return q_grid(DEFAULT_Q_GRID)
    try:
        return q_grid([float(v) for v in text.split(",") if v.strip()])
    except ValueError as exc:
        raise _Failure(f"bad q grid: {exc}", EXIT_INPUT)


_NET_OPTIONS = [
    click.option("--net", default="van-der-corput", show_default=True,
                 help="Builtin name (van-der-corput, sobol) or file:PATH."),
    click.option("--n", type=int, default=None, help="Dimension (builtin nets)."),
    click.option("--s", type=click.IntRange(min=1), default=None,
                 help="Digit resolution; 2^s points."),
]


def _net_options(fn):
    for opt in reversed(_NET_OPTIONS):
        fn = opt(fn)
    return fn


@click.group()
@click.version_option(__version__, prog_name="dyadnet")
def main():
    """Digital nets, exact discrepancy identities, and norm experiments."""
    # Runs before every subcommand, so before the deferred numpy import.
    # Once numpy is loaded its BLAS pool is fixed, so leave the environment
    # alone then; a value the caller exported wins.
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


@main.command()
@_net_options
@click.option("--count", type=int, default=None,
              help="Rescale the net down to this many points.")
@click.option("--shift-seed", type=click.IntRange(min=0), default=None,
              help="Random digit shift seed.")
@click.option("--shift-retries", type=click.IntRange(min=0), default=64, show_default=True,
              help="Extra seeded shifts to try when --count hits a tie.")
@click.option("--exact", is_flag=True, help="Exact coordinates instead of doubles.")
@click.option("--out", type=click.Path(), default=None)
def gen(net, n, s, count, shift_seed, shift_retries, exact, out):
    """Write net points (optionally shifted and rescaled) as CSV."""
    gen_set = _load_net(net, n, s)
    shift = random_shift(gen_set.n, gen_set.s, shift_seed) if shift_seed is not None else None
    config = {"net": net, "n": gen_set.n, "s": gen_set.s, "count": count,
              "shift_seed": shift_seed, "exact": exact}
    extras: dict = {}
    try:
        if count is None:
            points = net_points(gen_set, shift)
        else:
            # The first attempt already used --shift-seed; retries go on after it.
            retry_seed = 0 if shift_seed is None else shift_seed + 1
            result = rescale_to_N(gen_set, count, shift,
                                  shift_retries=shift_retries, retry_seed=retry_seed)
            points = result.points
            extras["divisor"] = str(result.divisor)
            if result.shift is not None:
                extras["shift_applied"] = result.shift.seed
    except RescaleError as exc:
        raise _Failure(str(exc), EXIT_RUNTIME)
    except (InjectivityError, ValueError) as exc:
        raise _Failure(str(exc), EXIT_INPUT)
    columns = [f"x{j + 1}" for j in range(points.n)]
    rows = []
    for p in points.points:
        if exact:
            rows.append([_exact_coord(c, gen_set.s) for c in p])
        else:
            rows.append([float(c) for c in p])
    _emit(out, "csv", "gen", config, "exact" if exact else "float", columns, rows,
          extras or None)


def _exact_coord(c: Fraction, s: int) -> str:
    scaled = c * (1 << s)
    if scaled.denominator == 1:
        return f"{int(scaled)}/2^{s}"
    return f"{c.numerator}/{c.denominator}"


@main.command()
@_net_options
@click.option("--box-check/--no-box-check", default=True, show_default=True,
              help="Also verify box counts directly (nets with s <= 12).")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="json",
              show_default=True)
@click.option("--out", type=click.Path(), default=None)
def certify(net, n, s, box_check, fmt, out):
    """Certify the deficiency exactly by rank conditions, with box-count
    cross-check.  The `exhaustive` column is always true; it stays for
    readers of the earlier output."""
    gen_set = _load_net(net, n, s)
    config = {"net": net, "n": gen_set.n, "s": gen_set.s, "box_check": box_check}
    deficiency = certify_deficiency(gen_set.subspace)
    boxes = None
    if box_check and gen_set.s <= 12:
        boxes = verify_box_counts(gen_set.point_words, gen_set.s, deficiency)
    columns = ["n", "s", "deficiency", "dual_rt_weight", "exhaustive", "box_counts_ok"]
    # The minimum RT weight of the nonzero dual follows from the deficiency.
    rows = [[gen_set.n, gen_set.s, deficiency, gen_set.s + 1 - deficiency,
             True, boxes]]
    _emit(out, fmt, "certify", config, "exact", columns, rows)
    if boxes is False:
        raise _Failure("box counts contradict the rank certificate", EXIT_IDENTITY)


@main.command()
@_net_options
@click.option("--shift-seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--out", type=click.Path(), default=None)
def verify(net, n, s, shift_seed, fmt, out):
    """Run the exact identity suites; nonzero exit on any failure.

    Without --s, runs the bundle of the builtin net at s = 2..4, a shifted
    instance each; by default that is the planar builtin.
    """
    from .discrepancy import DiscrepancyContext, RouteUnavailableError
    from .verify import run_net_suite

    results = []
    config = {"net": net, "n": n, "s": s, "shift_seed": shift_seed}
    if s is None and not net.startswith("file:"):
        runs = [(si, shift_seed + si) for si in (2, 3, 4)]
    else:
        runs = [(s, shift_seed)]
    try:
        for si, seed in runs:
            gen_set = _load_net(net, n, si)
            shift = random_shift(gen_set.n, gen_set.s, seed)
            results.extend(run_net_suite(DiscrepancyContext.build(gen_set.subspace, shift)))
    except RouteUnavailableError as exc:
        raise _Failure(str(exc), EXIT_RUNTIME)
    columns = ["identity", "passed", "checked", "witness"]
    rows = [[r.name, r.passed, r.checked,
             json.dumps(r.witness, sort_keys=True, default=str) if r.witness else ""]
            for r in results]
    _emit(out, fmt, "verify", config, "exact", columns, rows)
    if not all(r.passed for r in results):
        raise _Failure("identity suite failed", EXIT_IDENTITY)


@main.command()
@_net_options
@click.option("--target", type=click.Choice(["dn", "m", "both"]), default="both",
              show_default=True, help="Discrepancy of one shifted net (dn) and/or "
              "the truncated approximation jointly over shifts (m).")
@click.option("--shift-seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--q-grid", "q_text", default=None, help="Comma-separated exponents.")
@click.option("--samples", type=click.IntRange(min=1), default=10000, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--theta", type=float, default=None,
              help="Orlicz exponent; defaults to (n+1)/2.")
@click.option("--stratified", is_flag=True, help="Per-axis stratified sampling.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--out", type=click.Path(), default=None)
def norms(net, n, s, target, shift_seed, q_text, samples, seed, theta, stratified,
          fmt, out):
    """Estimate moment norms over a q grid, with the exact second-moment
    oracle and the exponential-Orlicz estimate."""
    from .discrepancy import DiscrepancyContext
    from .norms import (
        dn_sampler,
        exp_orlicz_estimate,
        l2_m_exact,
        lq_norms_mc,
        m_sampler,
        normalized_ratio,
    )

    qs = _parse_q_grid(q_text)
    if theta is not None and not (math.isfinite(theta) and theta > 0):
        raise _Failure(f"bad --theta: {theta}; need a finite value > 0", EXIT_INPUT)
    gen_set = _load_net(net, n, s)
    nn, ss = gen_set.n, gen_set.s
    theta_val = theta if theta is not None else (nn + 1) / 2
    config = {"net": net, "n": nn, "s": ss, "target": target, "q_grid": list(qs),
              "samples": samples, "seed": seed, "shift_seed": shift_seed,
              "theta": theta_val, "stratified": stratified}
    columns = ["target", "q", "estimate", "stderr", "samples", "normalized_ratio"]
    rows: list[list] = []
    extras: dict = {}
    results = []
    # One shifted context serves both targets: `m_sampler` replaces the
    # shift with sampled ones, and `l2_m_exact` reads the unshifted words.
    ctx = DiscrepancyContext.build(gen_set.subspace, random_shift(nn, ss, shift_seed))
    try:
        if target in ("dn", "both"):
            results.append(("dn", lq_norms_mc(dn_sampler(ctx), nn, qs, samples, seed,
                                              stratified=stratified)))
        if target in ("m", "both"):
            results.append(("m", lq_norms_mc(m_sampler(ctx), 2 * nn, qs, samples,
                                             seed + 1, stratified=stratified)))
            extras["m_l2_exact"] = float(l2_m_exact(ctx)) ** 0.5
    except OverflowError as exc:
        raise _Failure(str(exc), EXIT_RUNTIME)
    for name, ests in results:
        for e in ests:
            rows.append([name, e.q, e.value, e.stderr, e.samples,
                         normalized_ratio(e.value, e.q, ss, nn)])
        orl = exp_orlicz_estimate(ests, theta_val)
        extras[f"{name}_exp_orlicz"] = {
            "value": orl.value, "theta": orl.theta, "at_q": orl.at_q,
        }
    _emit(out, fmt, "norms", config, "float", columns, rows, extras)


@main.command()
@_net_options
@click.option("--s-min", type=int, default=4, show_default=True)
@click.option("--s-max", type=int, default=10, show_default=True)
@click.option("--shifts", type=click.IntRange(min=1), default=8, show_default=True,
              help="Random digit shifts per resolution.")
@click.option("--q-grid", "q_text", default="2,4,8", show_default=True)
@click.option("--samples", type=click.IntRange(min=1), default=10000, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True)
@click.option("--out", type=click.Path(), default=None)
def sweep(net, n, s, s_min, s_max, shifts, q_text, samples, seed, fmt, out):
    """Growth-law table: discrepancy norms across resolutions and shifts,
    normalized by the expected moment profile."""
    import statistics

    from .discrepancy import DiscrepancyContext
    from .norms import dn_sampler, lq_norms_mc, normalized_ratio

    qs = _parse_q_grid(q_text)
    if s is not None:
        s_min = s_max = s
    if s_min < 1 or s_max < s_min:
        raise _Failure("need 1 <= s-min <= s-max", EXIT_INPUT)
    config = {"net": net, "n": n, "s_min": s_min, "s_max": s_max, "shifts": shifts,
              "q_grid": list(qs), "samples": samples, "seed": seed}
    columns = ["kind", "s", "q", "shift", "shift_seed", "estimate", "stderr", "ratio"]
    rows: list[list] = []
    for si in range(s_min, s_max + 1):
        gen_set = _load_net(net, n, si)
        nn = gen_set.n
        per_q: dict[float, list[float]] = {q: [] for q in qs}
        for r in range(shifts):
            shift_seed = seed + 7919 * si + r
            ctx = DiscrepancyContext.build(gen_set.subspace,
                                           random_shift(nn, si, shift_seed))
            try:
                ests = lq_norms_mc(dn_sampler(ctx), nn, qs, samples,
                                   seed + 104729 * si + r)
            except OverflowError as exc:
                raise _Failure(str(exc), EXIT_RUNTIME)
            for e in ests:
                ratio = normalized_ratio(e.value, e.q, si, nn)
                per_q[e.q].append(ratio)
                rows.append(["dn", si, e.q, r, shift_seed, e.value, e.stderr, ratio])
        if shifts > 1:
            for q in qs:
                vals = per_q[q]
                rows.append(["summary-min", si, q, "", "", "", "", min(vals)])
                rows.append(["summary-median", si, q, "", "", "",
                             "", statistics.median(vals)])
                rows.append(["summary-max", si, q, "", "", "", "", max(vals)])
    _emit(out, fmt, "sweep", config, "float", columns, rows)


def run() -> None:
    """Process entry: run `main`, flush the standard streams and end the
    process with `os._exit`, as mypy's `util.hard_exit` does.

    This skips interpreter finalization, which clears every module and
    frees every object, a cost that rivals the compute of a short command.
    It relies on every output being written through `sys.stdout`,
    `sys.stderr` or a closed file (`_emit` uses `Path.write_text`), and on
    nothing registering `atexit` work.  A flush that fails (a closed pipe) exits 1,
    the code click uses for EPIPE.  Any exception other than `SystemExit`
    propagates with its traceback and a normal exit.
    """
    code = 0
    try:
        main()
    except SystemExit as exc:
        if exc.code is not None and not isinstance(exc.code, int):
            raise
        code = exc.code or 0
    # A stream is None when its descriptor was closed at start.
    for stream in filter(None, (sys.stdout, sys.stderr)):
        try:
            stream.flush()
        except OSError:
            code = EXIT_RUNTIME
    os._exit(code)


if __name__ == "__main__":
    run()
