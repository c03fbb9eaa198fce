"""Outside-in layer trace: wrap the solver's public functions, record spans.

Each layer boundary is a public function of one kqkp module.  It is patched
in the namespace its caller looks it up in, because ``bnb`` and ``cli``
import several names directly (``from .instance import preprocess``).  A
span records name, operation (the instance being run), parent span, start
and end; spans stay in memory and are written out when the run ends.  Span
clocks leave out the time spent in the speed sampler (calibration.py), as
the end-to-end wall times do.  Counts are read from the functions' public
return values only.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from collections import defaultdict

import calibration

# (module, attribute, span name): every patch site of the solver's layers
PATCH_SITES = [
    ("kqkp.ipm", "solve", "ipm.solve"),
    ("kqkp.bundle", "minimize", "bundle.minimize"),
    ("kqkp.bundle", "oracle_eval", "bundle.oracle_eval"),
    ("kqkp.cuts", "separate", "cuts.separate"),
    ("kqkp.cuts", "evaluate", "cuts.evaluate"),
    ("kqkp.cuts", "adjoint_apply", "cuts.adjoint_apply"),
    ("kqkp.relaxation", "build", "relaxation.build"),
    ("kqkp.bnb", "solve", "bnb.solve"),
    ("kqkp.bnb", "branch_and_prune", "bnb.branch_and_prune"),
    ("kqkp.bnb", "primal_heuristic", "heuristics.primal"),
    ("kqkp.bnb", "varfix_heuristic", "heuristics.varfix"),
    ("kqkp.bnb", "fix_variable", "instance.fix_variable"),
    ("kqkp.bnb", "preprocess", "instance.preprocess"),
    ("kqkp.cli", "preprocess", "instance.preprocess"),
    ("kqkp.cli", "load", "instance.load"),
]


def _ipm_info(sol):
    return {"iters": sol.iterations, "status": sol.status}


def _bundle_info(res):
    return {"evals": res.evals, "reason": res.reason, "pool": len(res.pool)}


def _separate_info(cuts):
    return {"returned": len(cuts)}


def _value_info(inc):
    return {"value": None if inc is None else inc.value}


INFO = {
    "ipm.solve": _ipm_info,
    "bundle.minimize": _bundle_info,
    "cuts.separate": _separate_info,
    "heuristics.primal": _value_info,
    "heuristics.varfix": _value_info,
}


class Tracer:
    """Installs span-recording wrappers at PATCH_SITES; use as a context manager."""

    def __init__(self):
        # span: [name, op, parent index, start, end, info]
        self.spans: list[list] = []
        self.op = ""
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn):
        info = INFO.get(name)
        spans, stack = self.spans, self._stack

        def clock():
            return time.perf_counter() - calibration.spent()

        def traced(*args, **kwargs):
            rec = [name, self.op, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = {"raised": type(exc).__name__}
                raise
            finally:
                rec[4] = clock()
                stack.pop()
            if info is not None:
                rec[5] = info(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        for mod_name, attr, name in PATCH_SITES:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(name, orig))
        return self

    def __exit__(self, *exc):
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)
        return False

    def dump(self, path) -> None:
        keys = ("name", "op", "parent", "start", "end", "info")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], suite_s: float) -> dict:
    """Per-layer counts, busy time and self time from a finished trace.

    ``suite_s`` is the traced run's summed per-instance wall time; shares are
    relative to it.  Busy time of a layer counts each span in full (spans of
    one name never nest); self time subtracts the spans nested directly
    inside it.
    """
    child_s = [0.0] * len(spans)
    for name, _, parent, t0, t1, _ in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
    calls = defaultdict(int)
    busy = defaultdict(float)
    self_s = defaultdict(float)
    for idx, (name, _, _, t0, t1, _) in enumerate(spans):
        calls[name] += 1
        busy[name] += t1 - t0
        self_s[name] += (t1 - t0) - child_s[idx]

    def infos(name):
        return [s[5] for s in spans if s[0] == name and s[5] is not None]

    ipm = [i for i in infos("ipm.solve") if "iters" in i]
    iters = sum(i["iters"] for i in ipm)
    statuses = [i["status"] for i in ipm]
    bundles = [i for i in infos("bundle.minimize") if "reason" in i]
    reasons = [b["reason"] for b in bundles]
    separated = [i["returned"] for i in infos("cuts.separate") if "returned" in i]
    cut_s = busy["cuts.separate"] + busy["cuts.evaluate"] + busy["cuts.adjoint_apply"]

    # a varfix call improves when it beats every heuristic value seen before
    # it within the same operation
    best: dict[str, float] = {}
    improved = 0
    for name, op, _, _, _, info in spans:
        if name not in ("heuristics.primal", "heuristics.varfix"):
            continue
        value = None if not info else info.get("value")
        if value is None:
            continue
        if name == "heuristics.varfix" and value > best.get(op, -math.inf):
            improved += 1
        best[op] = max(best.get(op, -math.inf), value)

    return {
        "ipm.solve.calls": calls["ipm.solve"],
        "ipm.solve.s": busy["ipm.solve"],
        "ipm.iters": iters,
        "ipm.iter_ms": 1000.0 * _ratio(busy["ipm.solve"], iters),
        "ipm.status.optimal": statuses.count("optimal"),
        "ipm.status.slow_progress": statuses.count("slow_progress"),
        "ipm.status.iter_limit": statuses.count("iter_limit"),
        "ipm.breakdowns": sum(1 for i in infos("ipm.solve")
                              if i.get("raised") == "NumericalBreakdown"),
        "ipm.share": _ratio(busy["ipm.solve"], suite_s),
        "cuts.separate.calls": calls["cuts.separate"],
        "cuts.separate.s": busy["cuts.separate"],
        "cuts.separate.ms_per_call": 1000.0 * _ratio(busy["cuts.separate"],
                                                     calls["cuts.separate"]),
        "cuts.separate.returned": sum(separated),
        "cuts.evaluate.s": busy["cuts.evaluate"],
        "cuts.adjoint_apply.s": busy["cuts.adjoint_apply"],
        "cuts.share": _ratio(cut_s, suite_s),
        "bundle.minimize.calls": calls["bundle.minimize"],
        "bundle.minimize.self_s": self_s["bundle.minimize"],
        "bundle.self_share": _ratio(self_s["bundle.minimize"], suite_s),
        "bundle.evals": sum(b["evals"] for b in bundles),
        "bundle.reason.pruned": reasons.count("pruned"),
        "bundle.reason.stalled": reasons.count("stalled"),
        "bundle.reason.budget": reasons.count("budget"),
        "bundle.reason.no_cuts": reasons.count("no_cuts"),
        "bundle.pruned_frac": _ratio(reasons.count("pruned"), len(reasons)),
        "bundle.pool_mean": _ratio(sum(b["pool"] for b in bundles), len(bundles)),
        "heuristics.primal.calls": calls["heuristics.primal"],
        "heuristics.primal.s": busy["heuristics.primal"],
        "heuristics.varfix.calls": calls["heuristics.varfix"],
        "heuristics.varfix.s": busy["heuristics.varfix"],
        "heuristics.varfix.improved_frac": _ratio(improved, calls["heuristics.varfix"]),
        "bnb.solve.s": busy["bnb.solve"],
        "bnb.solve.self_s": self_s["bnb.solve"],
        "bnb.branch_and_prune.calls": calls["bnb.branch_and_prune"],
        "bnb.branch_and_prune.s": busy["bnb.branch_and_prune"],
        "bnb.branch_and_prune.share": _ratio(busy["bnb.branch_and_prune"], suite_s),
        "instance.load.s": busy["instance.load"],
        "instance.preprocess.calls": calls["instance.preprocess"],
        "instance.fix_variable.calls": calls["instance.fix_variable"],
        "instance.fix_variable.s": busy["instance.fix_variable"],
        "relaxation.build.calls": calls["relaxation.build"],
        "relaxation.build.s": busy["relaxation.build"],
    }

