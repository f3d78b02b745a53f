"""Shows that the benchmark's correctness gate rejects wrong outputs.

    python3 perfbench/gate_check.py [--seed N]

Runs each workload command once (as the benchmark does), checks that the
real output passes, then corrupts it in the ways a broken program could
(a failed identity row, an m estimate outside the oracle bound, a wrong
deficiency, a short or out-of-range point file, a nonzero exit, changed
bytes between passes) and checks that each corruption is rejected.
Exits 1 if any wrong output gets through.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from run import OUT, cli_argv, judge, run_child, same_bytes
from workloads import WORKLOADS


def _fail_first_identity(text: str) -> str:
    return text.replace(",True,", ",False,", 1)


def _m_outside_bound(text: str) -> str:
    exact = float(re.search(r"^# m_l2_exact: (\S+)$", text, re.M).group(1))

    def move(match):
        stderr = float(match.group(2))
        return f"m,2.0,{exact + 5 * stderr!r},{match.group(2)},"
    return re.sub(r"^m,2\.0,([^,]+),([^,]+),", move, text, flags=re.M)


def _wrong_deficiency(text: str) -> str:
    doc = json.loads(text)
    doc["rows"][0][doc["columns"].index("deficiency")] = 3
    return json.dumps(doc)


def _boxes_not_ok(text: str) -> str:
    doc = json.loads(text)
    doc["rows"][0][doc["columns"].index("box_counts_ok")] = False
    return json.dumps(doc)


def _drop_last_line(text: str) -> str:
    return "".join(text.splitlines(keepends=True)[:-1])


def _coordinate_one(text: str) -> str:
    lines = text.splitlines(keepends=True)
    first = lines[-1].split(",")
    lines[-1] = ",".join(["1.0"] + first[1:])
    return "".join(lines)


CORRUPTIONS = {
    "verify": [("failed identity row", _fail_first_identity)],
    "norms": [("m estimate 5 stderr from m_l2_exact", _m_outside_bound)],
    "certify": [("deficiency 3", _wrong_deficiency),
                ("box_counts_ok false", _boxes_not_ok)],
    "gen": [("one point fewer", _drop_last_line),
            ("coordinate equal to 1", _coordinate_one)],
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    leaks = 0
    workdir = OUT / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    for workload in WORKLOADS.values():
        for cmd in workload.commands(args.seed):
            child = run_child(cli_argv(cmd), workdir)
            text = child.stdout.decode()
            problems, _ = judge(cmd, child.code, child.stdout)
            print(f"{cmd.label}\n  real output: "
                  f"{'rejected ' + str(problems) if problems else 'accepted'}")
            leaks += bool(problems)
            cases = CORRUPTIONS[cmd.argv[0]] + [
                ("exit code 3", None), ("bytes changed between passes", "digest")]
            for name, corrupt in cases:
                if corrupt is None:
                    problems, _ = judge(cmd, 3, child.stdout)
                elif corrupt == "digest":
                    reference = {}
                    same_bytes(reference, cmd.label, child.stdout)
                    problems = same_bytes(reference, cmd.label, child.stdout + b" ")
                else:
                    bad = corrupt(text)
                    assert bad != text, f"corruption {name!r} changed nothing"
                    problems, _ = judge(cmd, 0, bad.encode())
                print(f"  {name}: {'rejected: ' + problems[0] if problems else 'ACCEPTED'}")
                leaks += not problems
    print("gate rejects every wrong output" if not leaks
          else f"{leaks} wrong outputs were accepted or real outputs rejected")
    sys.exit(1 if leaks else 0)


if __name__ == "__main__":
    main()
