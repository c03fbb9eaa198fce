"""Record the benchmark of a checkout as one BENCH_<tag>.json.

    python3 tools/bench_record.py TAG [--checkout DIR]

Runs ``perfbench/run.py`` of the checkout (default: the one holding this
script) on every workload of its BENCHMARK.json at ``--seed 0``, with
``--trace 0`` and then ``--trace 1``, each in a fresh process.  Each run
contributes its result line (the last line of stdout), all metrics, the
environment record (core count, Python, numpy, BLAS threads) and, per
instance of its first pass, the wall and scaled seconds, status, value,
nodes, evals and ``stats`` (the solver's work counters).  The file is
``BENCH_<tag>.json`` at the root of the checkout holding this script.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPORT_KEYS = ("status", "value", "bound", "nodes", "evals", "stats")


def instance_rows(passes: list) -> list[dict]:
    rows = []
    for o in passes[0]:
        report = o["report"] or {}
        rows.append({"label": o["label"], "seconds": o["seconds"],
                     "scaled_s": o["seconds"] * o["speed"], "failure": o["failure"],
                     **{k: report[k] for k in REPORT_KEYS if k in report}})
    return rows


def record(checkout: Path, workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode not in (0, 1):
        raise SystemExit(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    full = json.loads((checkout / "perfbench" / "_work"
                       / f"{workload}-seed0-trace{trace}.json").read_text())
    return {"workload": workload, "seed": 0, "trace": trace,
            "result": json.loads(proc.stdout.strip().splitlines()[-1]),
            "metrics": full["metrics"], "environment": full["environment"],
            "instances": instance_rows(full["passes"]),
            "stderr": proc.stderr.strip().splitlines()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("tag")
    p.add_argument("--checkout", type=Path, default=ROOT)
    args = p.parse_args(argv)
    checkout = args.checkout.resolve()
    # "-dirty" marks a checkout with changes not yet committed
    commit = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                            cwd=checkout, capture_output=True, text=True).stdout.strip() or None
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    runs = [record(checkout, w["name"], trace)
            for trace in (0, 1) for w in spec["workloads"]]
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps({"tag": args.tag, "commit": commit, "runs": runs},
                              indent=1) + "\n")
    print(out)
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
