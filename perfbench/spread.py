"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads certify,norms --seeds 10 [--first-seed 1]
                                [--out perfbench/out/spread.json]

Runs `perfbench/run.py --trace 0` once per seed and workload, one run at a
time, then reports for every end-to-end metric the median, the quartiles
(statistics.quantiles(values, n=4)) and the quartile distance as a share
of the median, next to the metric's bound in BENCHMARK.json.  A spread at
or above a third of its bound is flagged (setup_s is exempt).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", required=True, help="comma-separated names")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", type=Path, default=BENCH_DIR / "out" / "spread.json")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    summary = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        failures = 0
        for seed in seeds:
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failures += result["failed"] + (not result["correct"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={v[-1]:.5g}" for n, v in values.items()), flush=True)
        rows = {}
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            rows[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                          "spread": spread, "bound": bounds[name], "values": vals}
            flag = "" if name == "setup_s" or spread < bounds[name] / 3 else "  <-- wide"
            print(f"  {workload:8s} {name:12s} median {statistics.median(vals):12.6g} "
                  f"spread {spread:7.4f} bound {bounds[name]}{flag}", flush=True)
        summary["workloads"][workload] = {"failures": failures, "metrics": rows}
        record = BENCH_DIR / "out" / f"{workload}-seed{seed}-trace0.json"
        summary["machine"] = json.loads(record.read_text())["machine"]
    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
