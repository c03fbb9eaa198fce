"""Command-line surface: solve, bound, generate, bench, check.

Reports are JSON (self-validating: the selection is included so f(x) can be
recomputed from the instance file), instances are plain text, benchmark
tables are CSV.  Exit codes: 0 solved to optimality, 1 bad input, 2 time
limit reached.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, bnb, generator, ipm, oracle
from .instance import Instance, InstanceError, load, preprocess, validate

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_TIME_LIMIT = 2

# flag defaults are read from SolverConfig, the one place they are set
_DEFAULT = bnb.SolverConfig()


def _int_at_least(lo: int):
    """An argparse type: an integer >= lo, else a usage error."""
    def integer(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be an integer >= {lo}, got {value}")
        return value
    return integer


def _seconds(text: str) -> float:
    """An argparse type: a finite number of seconds >= 0, else a usage error."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--time-limit", type=_seconds, default=_DEFAULT.time_limit_s, metavar="S",
                   help="wall-clock limit in seconds (default 3 hours)")
    p.add_argument("--cuts-m", type=_int_at_least(1), default=_DEFAULT.cuts_per_update,
                   metavar="M",
                   help="triangle cuts added per pool update (default min(5n, 300))")
    p.add_argument("--output", "-o", type=Path, default=None,
                   help="also write the JSON report to this path")


def _add_search_flags(p: argparse.ArgumentParser) -> None:
    """Branch-and-prune thresholds: read by a search, not by ``bound``."""
    p.add_argument("--bnp-node-k", type=_int_at_least(0), default=_DEFAULT.bnp_node_k,
                   metavar="K", help="switch to branch-and-prune when node cardinality <= K")
    p.add_argument("--bnp-root-k", type=_int_at_least(0), default=_DEFAULT.bnp_root_k,
                   metavar="K", help="solve the whole instance by branch-and-prune when k <= K")


def _config_from_args(args) -> bnb.SolverConfig:
    return bnb.SolverConfig(
        time_limit_s=args.time_limit,
        cuts_per_update=args.cuts_m,
        bnp_node_k=args.bnp_node_k,
        bnp_root_k=args.bnp_root_k,
    )


def _finite_or_none(x: float) -> float | None:
    """JSON has no infinities or NaN; a bound that is not finite prints as null."""
    return x if np.isfinite(x) else None


def _load_validated(path) -> Instance:
    inst = load(path)
    return validate(inst)


def _emit(payload: dict, out_path: Path | None) -> None:
    text = json.dumps(payload, indent=2)
    print(text)
    if out_path is not None:
        out_path.write_text(text + "\n")


def _solve_payload(path: Path, cfg: bnb.SolverConfig) -> tuple[dict, bnb.SolveReport]:
    inst = _load_validated(path)
    report = bnb.solve(inst, cfg)
    status = {"optimal": "Optimal", "time_limit": "TimeLimit",
              "infeasible": "Infeasible"}[report.status]
    payload = {
        "instance": str(path),
        "status": status,
        "value": None if report.best is None else report.best.value,
        "selection": None if report.best is None
        else [int(i) for i in np.nonzero(report.best.x)[0]],
        "incumbent_source": None if report.best is None else report.best.source,
        "root_bound": _finite_or_none(report.root_bound),
        "root_gap_percent": report.root_gap_percent,
        "open_bound": _finite_or_none(report.open_bound),
        "nodes": report.nodes,
        "evals": report.evals,
        "stats": report.stats,
        "time_ms": report.time_ms,
        "config": dataclasses.asdict(cfg),
        "version": __version__,
    }
    return payload, report


def _write_trace(trace_dir: Path, path: Path, report: bnb.SolveReport) -> None:
    trace_dir.mkdir(parents=True, exist_ok=True)
    out = trace_dir / (Path(path).stem + "_trace.csv")
    with out.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["depth", "fixed_ones", "bound", "action"])
        w.writerows(report.node_trace)


def cmd_solve(args) -> int:
    cfg = _config_from_args(args)
    payload, report = _solve_payload(args.path, cfg)
    if args.trace_dir is not None:
        _write_trace(args.trace_dir, args.path, report)
    _emit(payload, args.output)
    return EXIT_TIME_LIMIT if report.status == bnb.STATUS_TIME_LIMIT else EXIT_OK


def cmd_bound(args) -> int:
    inst = _load_validated(args.path)
    prep = preprocess(inst)
    t0 = time.perf_counter()
    before = ipm.COUNTS.copy()
    evals = 0
    if inst.k > prep.k_max:
        bound = float("-inf")
    else:
        max_evals = 1 if args.mode == "sdp" else bnb.ROOT_EVALS
        bound, _, evals, *_ = bnb.node_bound(inst, float("-inf"), max_evals, args.cuts_m,
                                             t0 + args.time_limit)
    payload = {
        "instance": str(args.path),
        "mode": args.mode,
        "bound": _finite_or_none(bound),
        "evals": evals,
        "stats": ipm.counts_since(before),
        "time_ms": int(1000 * (time.perf_counter() - t0)),
        "version": __version__,
    }
    _emit(payload, args.output)
    return EXIT_OK


def cmd_generate(args) -> int:
    spec = generator.GenSpec(n=args.n, density_percent=args.density, seed=args.seed)
    inst = generator.generate(spec)
    out_dir = args.out_dir or Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / generator.filename(spec)
    from .instance import dump
    dump(inst, path)
    print(path)
    return EXIT_OK


_NAME_RE = re.compile(r"kqkp_n(\d+)_d(\d+)_s\d+")


def _bench_meta(path: Path, inst: Instance) -> tuple[int, int]:
    """(n, density in percent): n from the data, the density from a
    generator file name if the stem is exactly one with the data's n, else
    counted."""
    n = inst.n
    m = _NAME_RE.fullmatch(path.stem)
    if m and int(m.group(1)) == n:
        return n, int(m.group(2))
    upper = n * (n + 1) // 2
    nz = int(np.count_nonzero(np.triu(inst.C)))
    return n, round(100.0 * nz / upper)


def _bench_one(path: Path, cfg: bnb.SolverConfig) -> tuple:
    inst = _load_validated(path)
    report = bnb.solve(inst, cfg)
    n, delta = _bench_meta(path, inst)
    # coarse rounding keeps the table reproducible across runs
    return (n, delta, round(report.root_gap_percent, 4),
            round(report.time_ms / 1000.0, 1), report.nodes)


def cmd_bench(args) -> int:
    cfg = _config_from_args(args)
    if not args.dir.is_dir():
        raise NotADirectoryError(f"not a directory: {args.dir}")
    rows = [_bench_one(p, cfg) for p in sorted(args.dir.glob("*.txt"))]
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["n", "delta", "gap_root_percent", "time_s", "nodes"])
    w.writerows(rows)
    text = buf.getvalue()
    sys.stdout.write(text)
    if args.output is not None:
        args.output.write_text(text)
    return EXIT_OK


def cmd_check(args) -> int:
    inst = _load_validated(args.path)
    if inst.n > oracle.MAX_N:
        print(f"error: oracle check limited to n <= {oracle.MAX_N}, got n = {inst.n}",
              file=sys.stderr)
        return EXIT_BAD_INPUT
    cfg = _config_from_args(args)
    opt = oracle.enumerate_exact(inst)
    report = bnb.solve(inst, cfg)
    solver_value = None if report.best is None else report.best.value
    payload = {
        "instance": str(args.path),
        "oracle_value": opt.value,
        "solver_value": solver_value,
        "match": solver_value == opt.value,
        "version": __version__,
    }
    _emit(payload, args.output)
    if report.status == bnb.STATUS_TIME_LIMIT:
        return EXIT_TIME_LIMIT
    return EXIT_OK if payload["match"] else EXIT_BAD_INPUT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kqkp",
        description="Exact solver for the k-item quadratic knapsack problem",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve an instance file to optimality")
    p.add_argument("path", type=Path)
    _add_solver_flags(p)
    _add_search_flags(p)
    p.add_argument("--trace-dir", type=Path, default=None,
                   help="write per-instance node trace CSVs into this directory")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bound", help="compute the root bound only")
    p.add_argument("path", type=Path)
    p.add_argument("--mode", choices=["sdp", "sdpmet"], default="sdpmet",
                   help="plain relaxation or triangle-cut strengthened")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("generate", help="write a random instance file")
    p.add_argument("--n", type=_int_at_least(3), required=True)
    p.add_argument("--density", type=int, required=True, choices=[25, 50, 75, 100])
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    p.add_argument("--out-dir", type=Path, default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("bench", help="solve every *.txt in a directory, emit CSV")
    p.add_argument("dir", type=Path)
    _add_solver_flags(p)
    _add_search_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("check", help="compare against brute-force enumeration")
    p.add_argument("path", type=Path)
    _add_solver_flags(p)
    _add_search_flags(p)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InstanceError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
