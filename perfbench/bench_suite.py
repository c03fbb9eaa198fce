"""Workloads, instance files, answer checks and metrics of the benchmark.

The solver is driven only through ``kqkp.cli.main`` on instance files this
module writes; its JSON report is captured from stdout and every answer is
checked against the instance data held here and the committed references.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import signal
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import calibration
from kqkp import cli, generator

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"
CANONICAL_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple  # CLI words before the instance path / after it
    n: int
    draws: tuple  # (generator seed, density percent), in run order
    cap_s: float  # hard cap on one instance's wall time
    time_limit_s: float | None = None  # the --time-limit the solver is given


WORKLOADS = {
    # the first three generator seeds with k > 10 at n=40 (k = 34, 26, 13)
    "bb_n40": Workload(
        "bb_n40", ("solve",), 40,
        tuple((s, d) for s in (1, 3, 4) for d in (25, 50, 75, 100)), cap_s=60.0),
    # one root bound with triangle cuts at n=100 (k = 25)
    "root_n100": Workload(
        "root_n100", ("bound", "--mode", "sdpmet"), 100, ((1, 50),), cap_s=120.0),
    # n=50 draws with k <= 10 among seeds 1..20 (density cycling 25/50/75/100
    # in seed order) that branch-and-prune finishes within the hard cap
    "bnp_small_k": Workload(
        "bnp_small_k", ("solve", "--time-limit", "5"), 50,
        ((6, 75), (8, 25), (10, 50), (12, 75), (13, 100), (19, 50)),
        cap_s=40.0, time_limit_s=5.0),
}

# no new instance starts once a run has used this much wall time, so that a
# run ends well inside three minutes even if every instance hits its cap
RUN_BUDGET_S = 160.0
# an answer returned later than --time-limit plus this grace is an overrun
OVERRUN_GRACE_S = 1.0


@dataclass
class Case:
    label: str
    path: Path
    k: int
    a: np.ndarray
    b: int
    C: np.ndarray
    ref: dict


@dataclass
class Outcome:
    label: str
    seconds: float
    report: dict | None = None
    failure: str | None = None  # why the operation failed; None if it did not
    wrong: bool = False  # the failure is an incorrect answer
    solved: bool = False
    overrun: bool = False
    gap_pct: float | None = None
    # mean machine speed over the call (calibration.py); a failed call keeps
    # 1.0, so it is charged exactly the cap
    speed: float = 1.0

    @property
    def scaled_s(self) -> float:
        """Wall time at the reference machine speed."""
        return self.seconds * self.speed


def digest(inst) -> str:
    """Content hash of a generated instance, committed to pin the suite."""
    h = hashlib.sha256(f"{inst.n} {inst.k} {inst.b}".encode())
    h.update(np.ascontiguousarray(inst.a, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(inst.C, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def write_instance(path: Path, k: int, a: np.ndarray, b: int, C: np.ndarray) -> None:
    rows = [f"{len(a)} {k} {b}", " ".join(map(str, a.tolist()))]
    rows += [" ".join(map(str, row)) for row in C.tolist()]
    path.write_text("\n".join(rows) + "\n")


def make_cases(wl: Workload, seed: int, work_dir: Path, reference: dict) -> list[Case]:
    """Generate, check against the pinned digest, relabel by seed, write.

    The canonical seed keeps the generator's item order; any other seed
    applies a seeded random relabeling of the items to every instance, which
    leaves optima and feasible values unchanged but changes the input the
    solver sees (tie orders, floating-point sums, branch-and-prune order).
    """
    work_dir.mkdir(parents=True, exist_ok=True)
    cases = []
    for gseed, density in wl.draws:
        spec = generator.GenSpec(wl.n, density, gseed)
        label = Path(generator.filename(spec)).stem
        inst = generator.generate(spec)
        ref = reference[wl.name][label]
        if digest(inst) != ref["digest"]:
            raise RuntimeError(f"{label}: generated instance does not match the "
                               "committed digest; the generator changed")
        perm = np.arange(wl.n)
        if seed != CANONICAL_SEED:
            perm = np.random.default_rng([seed, wl.n, density, gseed]).permutation(wl.n)
        a = inst.a[perm]
        C = inst.C[np.ix_(perm, perm)]
        path = work_dir / f"{label}.txt"
        write_instance(path, inst.k, a, inst.b, C)
        cases.append(Case(label, path, inst.k, a, inst.b, C, ref))
    return cases


class CapExceeded(BaseException):
    """Raised from SIGALRM; a BaseException so no solver handler swallows it."""


def _on_alarm(signum, frame):
    raise CapExceeded()


def call_cli(argv: list[str], cap_s: float) -> tuple[int, str, float, float]:
    """Run ``kqkp.cli.main(argv)`` with stdout captured and a hard cap.

    Returns (exit code, stdout, seconds from the call until it returned less
    the speed sampler's time, mean machine speed over the call).
    """
    buf = io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    t0, spent0 = time.perf_counter(), calibration.spent()
    try:
        signal.setitimer(signal.ITIMER_REAL, cap_s)
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = time.perf_counter()
        signal.signal(signal.SIGALRM, previous)
    seconds = (t1 - t0) - (calibration.spent() - spent0)
    return rc, buf.getvalue(), seconds, calibration.speed_between(t0, t1)


def _rel_tol(x: float) -> float:
    return 1e-6 * max(1.0, abs(x))


def check_solve(case: Case, rc: int, rep: dict, out: Outcome) -> None:
    opt = case.ref["optimum"]
    if rc not in (cli.EXIT_OK, cli.EXIT_TIME_LIMIT):
        out.failure = f"exit code {rc}"
        return
    sel = rep["selection"]
    if rep["status"] not in ("Optimal", "TimeLimit") or sel is None \
            or len(sel) != case.k or len(set(sel)) != case.k:
        out.failure = f"status {rep['status']}, selection {sel} is not k = {case.k} items"
        out.wrong = True
        return
    sel = np.asarray(sel)
    weight = int(case.a[sel].sum())
    value = int(case.C[np.ix_(sel, sel)].sum())
    if weight > case.b:
        out.failure, out.wrong = f"selection weight {weight} > b = {case.b}", True
    elif rep["value"] != value:
        out.failure, out.wrong = f"reported value {rep['value']} != x'Cx = {value}", True
    elif value > opt or (rep["status"] == "Optimal" and value != opt):
        out.failure, out.wrong = f"value {value} != reference optimum {opt}", True
    elif rep["root_bound"] is not None and rep["root_bound"] < opt - _rel_tol(opt):
        out.failure, out.wrong = f"root bound {rep['root_bound']} < optimum {opt}", True
    else:
        out.solved = rep["status"] == "Optimal"
        if rep["root_bound"] is not None:
            out.gap_pct = 100.0 * (rep["root_bound"] - opt) / opt


def check_bound(case: Case, rc: int, rep: dict, out: Outcome) -> None:
    feas = case.ref["feasible"]
    bound = rep.get("bound")
    if rc != cli.EXIT_OK or bound is None or not math.isfinite(bound):
        out.failure = f"exit code {rc}, bound {bound}"
    elif bound < feas - _rel_tol(feas):
        out.failure, out.wrong = f"bound {bound} < reference feasible value {feas}", True
    else:
        out.solved = True
        out.gap_pct = 100.0 * (bound - feas) / feas


def run_case(wl: Workload, case: Case, cap_s: float) -> Outcome:
    argv = [wl.command[0], str(case.path), *wl.command[1:]]
    try:
        rc, text, seconds, speed = call_cli(argv, cap_s)
    except CapExceeded:
        return Outcome(case.label, cap_s, failure=f"stopped by the hard cap of {cap_s:.1f} s")
    except Exception as exc:  # any solver exception is a counted failure
        return Outcome(case.label, cap_s, failure=f"{type(exc).__name__}: {exc}")
    out = Outcome(case.label, seconds, speed=speed)
    try:
        out.report = json.loads(text)
    except json.JSONDecodeError:
        out.failure, out.wrong = f"exit code {rc}, no JSON report", True
        return out
    (check_solve if wl.command[0] == "solve" else check_bound)(case, rc, out.report, out)
    if wl.time_limit_s is not None:
        out.overrun = seconds > wl.time_limit_s + OVERRUN_GRACE_S
    return out


def run_pass(wl: Workload, cases: list[Case], run_start: float, tracer=None) -> list[Outcome]:
    outcomes = []
    for case in cases:
        left = RUN_BUDGET_S - (time.perf_counter() - run_start)
        if left <= 0:
            outcomes.append(Outcome(case.label, wl.cap_s, failure="run budget used up"))
            continue
        if tracer is not None:
            tracer.op = case.label
        outcomes.append(run_case(wl, case, min(wl.cap_s, left)))
    return outcomes


def shifted_geomean(values: list[float], shift: float = 1.0) -> float:
    return math.exp(statistics.fmean(math.log(v + shift) for v in values)) - shift


def answer_key(out: Outcome) -> tuple:
    """What a traced run must reproduce exactly."""
    rep = out.report or {}
    return (out.failure, rep.get("value"), rep.get("bound"), rep.get("nodes"), rep.get("evals"))


def outcome_metrics(passes: list[list[Outcome]]) -> dict:
    """End-to-end metrics over one or more passes of the same instances.

    Times are at the reference machine speed (``Outcome.scaled_s``) and use
    each instance's median over the passes; ``wall.suite_s`` is the same sum
    of unscaled wall times.  Counts and answers come from the first pass
    (they repeat exactly between passes).
    """
    first = passes[0]
    per_instance = [statistics.median(p[i].scaled_s for p in passes)
                    for i in range(len(first))]
    wall = [statistics.median(p[i].seconds for p in passes) for i in range(len(first))]
    every = [o for p in passes for o in p]
    gaps = [o.gap_pct for o in first if o.gap_pct is not None]
    reports = [o.report for o in first if o.report is not None]
    return {
        "time_sgm_s": shifted_geomean(per_instance),
        "suite_s": math.fsum(per_instance),
        "wall.suite_s": math.fsum(wall),
        "machine.speed": statistics.fmean(o.speed for o in every),
        "solved_frac": sum(o.solved for o in every) / len(every),
        "failed_frac": sum(o.failure is not None for o in every) / len(every),
        "overrun_frac": sum(o.overrun for o in every) / len(every),
        "nodes_total": sum(r.get("nodes", 0) for r in reports),
        "evals_total": sum(r.get("evals", 0) for r in reports),
        "root_gap_pct_mean": statistics.fmean(gaps) if gaps else 0.0,
    }

