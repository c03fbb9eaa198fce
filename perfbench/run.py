"""Benchmark of the kqkp solver, driven from outside through its CLI entry point.

    python3 perfbench/run.py --workload bb_n40 --seed 0 --seconds 20 --trace 0

Runs one workload (or ``all``) in this process: generates the instance
files, calls ``kqkp.cli.main`` on each with stdout captured, checks every
answer and prints a table of every metric with its unit.  BLAS runs one
thread, and times are scaled to a reference machine speed (calibration.py).
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
A traced run makes one untraced and one traced pass; the traced pass must
reproduce the untraced answers exactly.  The exit code is 1 on an incorrect
answer and 2 when the solver source cannot be found.  Results and spans are
written under perfbench/_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUP_REPEATS = 5
IMPORT_PROBE = ("import time; t = time.perf_counter(); import kqkp.cli; "
                "print(time.perf_counter() - t)")

# One thread in both bundled OpenBLAS copies, set before numpy is first
# imported: with a second BLAS thread on a machine of few cores the timings
# measure the scheduler, not the solver (README, "BLAS threads").
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def import_solver() -> float:
    """Import kqkp from this checkout's source tree; returns the seconds taken."""
    if not (SRC / "kqkp" / "cli.py").is_file():
        print(f"error: no solver source under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import kqkp.cli
    seconds = time.perf_counter() - t0
    if Path(kqkp.cli.__file__).resolve().parent != SRC / "kqkp":
        print(f"error: kqkp was imported from {kqkp.cli.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return seconds


def import_seconds_fresh() -> float:
    """Import time of kqkp.cli in a fresh interpreter (interpreter start excluded)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.strip())


def blas_threads() -> dict:
    """Thread count of each bundled OpenBLAS copy (numpy's and scipy's)."""
    import ctypes
    import numpy

    site = Path(numpy.__file__).resolve().parent.parent
    symbols = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
               "openblas_get_num_threads64_", "openblas_get_num_threads")
    found = {}
    for pkg in ("numpy", "scipy"):
        for lib_path in sorted((site / f"{pkg}.libs").glob("*openblas*")):
            lib = ctypes.CDLL(str(lib_path))
            fn = next((getattr(lib, s) for s in symbols if hasattr(lib, s)), None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                found[pkg] = fn()
    return found


def environment() -> dict:
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": blas_threads(),
    }


def parse_args(argv):
    names = [w["name"] for w in SPEC["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*names, "all"])
    p.add_argument("--seed", type=int, default=0,
                   help="0 runs the canonical instance files; any other seed "
                        "relabels their items at random")
    p.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]),
                   help="measuring time: whole passes over the instances are "
                        "repeated while they fit (at least one)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def _print_table(outcomes, metrics: dict, env: dict) -> None:
    for o in outcomes:
        rep = o.report or {}
        answer = rep.get("value", rep.get("bound"))
        print(f"  {o.label:<20} {o.seconds:9.3f} s  {rep.get('status', '-'):<9} "
              f"answer={answer} nodes={rep.get('nodes', '-')} evals={rep.get('evals', '-')}"
              + (f"  FAILED: {o.failure}" if o.failure else ""))
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:<34} {metrics[name]:>16.6g} {unit}")
    print(f"  environment: {json.dumps(env)}")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 import_samples: list[float]) -> dict:
    import bench_suite as bs
    from bench_trace import Tracer, layer_metrics

    wl = bs.WORKLOADS[name]
    reference = bs.load_reference()
    gen_samples = []
    for _ in range(SETUP_REPEATS):
        cases, gen_s, speed = calibration.measure(
            lambda: bs.make_cases(wl, seed, WORK / name, reference))
        gen_samples.append(gen_s * speed)
    setup_s = statistics.median(import_samples) + statistics.median(gen_samples)

    run_start = time.perf_counter()
    passes = [bs.run_pass(wl, cases, run_start)]
    while not trace:
        pass_s = (time.perf_counter() - run_start) / len(passes)
        if (len(passes) + 1) * pass_s > seconds:
            break
        passes.append(bs.run_pass(wl, cases, run_start))
    metrics = bs.outcome_metrics(passes)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        with Tracer() as tracer:
            traced = bs.run_pass(wl, cases, run_start, tracer)
        passes.append(traced)
        traced_totals = bs.outcome_metrics([traced])
        layers = layer_metrics(tracer.spans, traced_totals["wall.suite_s"])
        metrics.update(layers)
        metrics["trace.overhead_frac"] = traced_totals["suite_s"] / metrics["suite_s"] - 1.0
        metrics["bnb.nodes_per_s"] = (metrics["nodes_total"] / layers["bnb.solve.s"]
                                      if layers["bnb.solve.s"] else 0.0)
        for plain, t in zip(passes[0], traced):
            if bs.answer_key(plain) != bs.answer_key(t):
                t.failure, t.wrong = (f"traced run differs: {bs.answer_key(t)} "
                                      f"vs {bs.answer_key(plain)}"), True
        tracer.dump(WORK / f"{name}-seed{seed}-spans.json")

    every = [o for p in passes for o in p]
    wrong = [o for o in every if o.wrong]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    result = {
        "correct": not wrong,
        "attempted": len(every),
        "failed": sum(o.failure is not None for o in every),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    env = environment()
    print(f"workload {name}  seed {seed}  passes {len(passes)}  trace {int(trace)}")
    _print_table(passes[0] if not trace else passes[0] + passes[-1], metrics, env)
    for o in wrong:
        print(f"INCORRECT {name} {o.label}: {o.failure}", file=sys.stderr)
    record = {"workload": name, "seed": seed, "trace": int(trace), "environment": env,
              "metrics": metrics, "result": result,
              "passes": [[vars(o) for o in p] for p in passes]}
    (WORK / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, default=str))
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    with calibration.sampling():
        return run(args)


def run(args) -> int:
    import_samples = []
    for probe in [import_solver] + [import_seconds_fresh] * (SETUP_REPEATS - 1):
        seconds, _, speed = calibration.measure(probe)
        import_samples.append(seconds * speed)
    names = ([w["name"] for w in SPEC["workloads"]] if args.workload == "all"
             else [args.workload])
    status = 0
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace),
                              import_samples)
        print(json.dumps(result), flush=True)
        status = max(status, 0 if result["correct"] else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
