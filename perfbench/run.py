"""dyadnet benchmark: CLI workloads with end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

NAME is one of the workloads in BENCHMARK.json (certify, norms) or `all`,
which runs them one after another.  Run it from the root of a source
checkout; the CLI runs from `src/` there.

--trace 0 (end to end, tracing off): a few set-up children import
dyadnet.cli and load the workload's generator sets (`setup_s`, median),
then passes of the workload's CLI commands run as child processes, one at
a time, until T seconds are used (at least two passes, so byte-identical
output across passes can be checked).  Each child's CPU time and peak RSS
come from its own os.wait4 record.  Per pass: wall_s sums the children's
wall time, cpu_s their user+sys time, work_per_s is the pass's work (see
workloads.py) over wall_s, peak_rss_mb the largest child peak RSS; each is
reported as the median over the run's passes.

--trace 1 (per layer): the same commands replay in this process, once
untraced (the base) and then with a span around every call into f2core,
walsh, nets, discrepancy, norms and verify (see tracing.py), for T seconds
in all.

Every output is checked (workloads.py); a failed check or exit code is a
failed command.  A readable table goes to stdout, the full record (with
machine and commit) to perfbench/out/, spans to perfbench/out/*.spans.csv.gz,
and the last stdout line is one JSON object:
{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import NoReturn

from workloads import WORKLOADS, Command, Workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SPEC = ROOT / "BENCHMARK.json"

SETUP_REPS = 5
MIN_PASSES = 2
CHILD_TIMEOUT_S = 170

SETUP_CODE = (
    "import json, sys\n"
    "import dyadnet.cli\n"
    "from dyadnet.nets import load_generators\n"
    "for net, n, s in json.loads(sys.argv[1]):\n"
    "    load_generators(net, n=n, s=s)\n"
)
STARTUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import dyadnet.cli\n"
    "print(time.perf_counter() - t)\n"
)


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


@dataclass
class CommandRun:
    label: str
    child: Child
    problems: list[str]
    work: float

    def record(self) -> dict:
        return {"command": self.label, "exit_code": self.child.code,
                "wall_s": self.child.wall_s, "cpu_s": self.child.cpu_s,
                "peak_rss_mb": self.child.rss_mb,
                "stdout_bytes": len(self.child.stdout),
                "stdout_sha256": digest(self.child.stdout),
                "problems": self.problems, "work": self.work}


@dataclass
class Pass:
    runs: list[CommandRun] = field(default_factory=list)
    elapsed_s: float = 0.0

    @property
    def wall_s(self) -> float:
        return sum(r.child.wall_s for r in self.runs)

    @property
    def cpu_s(self) -> float:
        return sum(r.child.cpu_s for r in self.runs)

    @property
    def work(self) -> float:
        return sum(r.work for r in self.runs)

    @property
    def rss_mb(self) -> float:
        """The largest peak RSS among the pass's children."""
        return max(r.child.rss_mb for r in self.runs)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], workdir: Path) -> Child:
    """Run one child to completion; its rusage comes from os.wait4 on its
    own pid, not from the running maximum over all children."""
    with open(workdir / "stdout", "w+b") as out, open(workdir / "stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.daemon = True
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, wall,
                     usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                     out.read(), err.read())


def cli_argv(cmd: Command) -> list[str]:
    return [sys.executable, "-m", "dyadnet.cli", *cmd.argv]


def judge(cmd: Command, code: int, stdout: bytes, error: str = "") -> tuple[list[str], float]:
    """Problems with one command's output, and the work it accounts for."""
    if code != 0:
        return [f"exit code {code}" + (f": {error}" if error else "")], 0
    try:
        return cmd.check(stdout.decode())
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unparseable output: {exc!r}"], 0


def same_bytes(reference: dict[str, str], label: str, stdout: bytes) -> list[str]:
    """The first output of a command with a seed sets its reference digest;
    every later output must reproduce it byte for byte."""
    if reference.setdefault(label, digest(stdout)) != digest(stdout):
        return ["stdout differs from the first run of this command and seed"]
    return []


def run_pass(cmds: list[Command], workdir: Path, reference: dict[str, str]) -> Pass:
    """One pass of the workload's commands, each in a child process."""
    p = Pass()
    start = time.perf_counter()
    for cmd in cmds:
        child = run_child(cli_argv(cmd), workdir)
        problems, work = judge(cmd, child.code, child.stdout,
                               child.stderr.decode(errors="replace")[-300:].strip())
        problems += same_bytes(reference, cmd.label, child.stdout)
        p.runs.append(CommandRun(cmd.label, child, problems, work))
    p.elapsed_s = time.perf_counter() - start
    return p


def measure_setup(workload: Workload, workdir: Path) -> list[float]:
    argv = [sys.executable, "-c", SETUP_CODE, json.dumps(workload.nets)]
    times = []
    # The first child also writes the bytecode cache; it is not counted.
    for i in range(SETUP_REPS + 1):
        child = run_child(argv, workdir)
        if child.code != 0:
            fail(f"set-up child failed: {child.stderr.decode(errors='replace')[-500:]}")
        if i:
            times.append(child.wall_s)
    return times


def keep_going(walls: list[float], start: float, seconds: float) -> bool:
    if len(walls) < MIN_PASSES:
        return True
    return time.perf_counter() - start + statistics.median(walls) <= seconds


def run_e2e(workload: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    cmds = workload.commands(seed)
    setup = measure_setup(workload, workdir)
    passes: list[Pass] = []
    reference: dict[str, str] = {}
    start = time.perf_counter()
    while keep_going([p.elapsed_s for p in passes], start, seconds):
        passes.append(run_pass(cmds, workdir, reference))
    runs = [r for p in passes for r in p.runs]
    walls = [p.wall_s for p in passes]
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "work_per_s": statistics.median(p.work / p.wall_s for p in passes),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
    }
    failed = sum(1 for r in runs if r.problems)
    return {
        "workload": workload.name, "trace": 0, "metrics": metrics,
        "attempted": len(runs), "failed": failed,
        "fail_ratio": failed / len(runs),
        "detail": {"passes": len(passes), "wall_s_all": walls,
                   "peak_rss_mb_max": max(p.rss_mb for p in passes), "setup_s_all": setup,
                   "work_per_pass": passes[0].work, "work_unit": workload.work_unit},
        "commands": [{"pass": i, **r.record()} for i, p in enumerate(passes) for r in p.runs],
    }


def run_traced(workload: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    sys.path.insert(0, str(SRC))
    import dyadnet.cli
    import tracing as tr

    cmds = workload.commands(seed)
    startup = []
    for i in range(4):
        child = run_child([sys.executable, "-c", STARTUP_CODE], workdir)
        if child.code != 0:
            fail(f"import child failed: {child.stderr.decode(errors='replace')[-500:]}")
        if i:
            startup.append(float(child.stdout))

    # No child runs from here on, so SIGTERM may end the process at once
    # (click's test runner would otherwise swallow the exit).
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    reference: dict[str, str] = {}
    records: list[dict] = []

    def replay_pass(tracer, jobs, traced: bool) -> float:
        """Replay (command, argv) jobs in this process."""
        tr.clear_caches()
        start = time.perf_counter()
        with tr.instrument(tracer) if traced else contextlib.nullcontext():
            outs = [tr.replay(dyadnet.cli.main, argv, tracer) for _, argv in jobs]
        wall = time.perf_counter() - start
        for (cmd, argv), (code, stdout, error) in zip(jobs, outs):
            problems, work = judge(cmd, code, stdout, error)
            problems += same_bytes(reference, cmd.label, stdout)
            records.append({"traced": traced, "command": " ".join(["dyadnet", *argv]),
                            "exit_code": code, "stdout_sha256": digest(stdout),
                            "problems": problems, "work": work})
        return wall

    jobs = [(cmd, cmd.argv) for cmd in cmds]
    start = time.perf_counter()
    base = replay_pass(tr.Tracer(), jobs, traced=False)
    tracer = tr.Tracer()
    walls: list[float] = []
    while not walls or time.perf_counter() - start + statistics.median(walls) <= seconds:
        walls.append(replay_pass(tracer, jobs, traced=True))

    metrics = tr.layer_metrics(tracer, len(walls))
    metrics["cli.startup_s"] = statistics.median(startup)
    metrics["trace.base_wall_s"] = base
    metrics["trace.overhead_s"] = statistics.median(walls) - base

    spans_path = OUT / f"{workload.name}-seed{seed}.spans.csv.gz"
    tr.write_spans(tracer, spans_path)
    failed = sum(1 for r in records if r["problems"])
    return {
        "workload": workload.name, "trace": 1, "metrics": metrics,
        "attempted": len(records), "failed": failed,
        "fail_ratio": failed / len(records),
        "detail": {"traced_passes": len(walls), "traced_wall_s": walls,
                   "untraced_wall_s": base, "spans": len(tracer.spans),
                   "spans_file": str(spans_path.relative_to(ROOT)),
                   "cli_startup_s_all": startup},
        "moves": {k: tr.MOVES[k] for k in metrics},
        "commands": records,
    }


def machine_record(seed: int, load_start: tuple[float, ...]) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "click": version("click"),
        "platform": platform.platform(),
        "loadavg_start": load_start,
        "seed": seed,
        "commit": commit(),
    }


def commit() -> dict:
    """The git commit when the checkout has one, and always a digest of
    the package source, which identifies the code in a plain checkout."""
    h = hashlib.sha256()
    for path in sorted((SRC / "dyadnet").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    git = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            git = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            git = ref
    return {"git": git, "source_sha256": h.hexdigest()}


def fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def print_table(result: dict, units: dict[str, str], spec_names: list[str]) -> None:
    d = result["detail"]
    print(f"== {result['workload']} (trace {result['trace']}): "
          f"{result['failed']}/{result['attempted']} commands failed, "
          f"fail_ratio {result['fail_ratio']:.3g}")
    if result["trace"]:
        print(f"   {d['traced_passes']} traced pass(es), {d['spans']} spans "
              f"in {d['spans_file']}")
    else:
        print(f"   {d['passes']} passes of {d['work_per_pass']:g} {d['work_unit']}; "
              f"wall_s min {min(d['wall_s_all']):.4f} max {max(d['wall_s_all']):.4f}; "
              f"setup_s over {len(d['setup_s_all'])} children")
    for name in spec_names:
        value = result["metrics"][name]
        moves = result.get("moves", {}).get(name, "")
        print(f"   {name:30s} {value:14.6g} {units[name]:6s} {moves}")
    for r in result["commands"]:
        for problem in r["problems"]:
            print(f"   FAILED {r['command']}: {problem}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Turn SIGTERM into an exception, so that a running child is killed
    # and reaped (run_child) before the benchmark exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    load_start = os.getloadavg()
    if not (SRC / "dyadnet" / "cli.py").is_file():
        fail(f"no dyadnet source under {SRC}; run from the root of a checkout")
    if not SPEC.is_file():
        fail(f"{SPEC} is missing")
    spec = json.loads(SPEC.read_text())
    group = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[group]}
    names = list(units)
    if args.workload == "all":
        chosen = list(WORKLOADS.values())
    elif args.workload in WORKLOADS:
        chosen = [WORKLOADS[args.workload]]
    else:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all")

    workdir = OUT / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    machine = machine_record(args.seed, load_start)
    results = []
    for w in chosen:
        runner = run_traced if args.trace else run_e2e
        result = runner(w, args.seed, args.seconds, workdir)
        missing = [n for n in names if n not in result["metrics"]]
        if missing:
            fail(f"metrics not produced: {missing}")
        result["machine"] = machine
        (OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(result, indent=1, default=str) + "\n")
        print_table(result, units, names)
        results.append(result)

    prefix = len(results) > 1
    metrics = {
        (f"{r['workload']}.{n}" if prefix else n):
            {"value": r["metrics"][n], "unit": units[n]}
        for r in results for n in names
    }
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
