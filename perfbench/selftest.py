"""Self-tests of the benchmark harness, kept apart from the solver's tests.

    python3 -m pytest perfbench/selftest.py -q

They drive single instances through the same code as run.py and take about
a minute, most of it the one n=100 root bound.
"""

from __future__ import annotations

import dataclasses
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bench_suite as bs  # noqa: E402
import calibration  # noqa: E402
from bench_trace import PATCH_SITES, Tracer, layer_metrics  # noqa: E402


WORK = HERE / "_work" / "selftest"


def _cases(name, labels, seed=bs.CANONICAL_SEED):
    """The named instances of a workload, in the order given."""
    wl = bs.WORKLOADS[name]
    cases = bs.make_cases(wl, seed, WORK / f"{name}-seed{seed}", bs.load_reference())
    by_label = {c.label: c for c in cases}
    return wl, [by_label[label] for label in labels]


def _traced_pass(wl, cases):
    with Tracer() as tracer:
        outcomes = bs.run_pass(wl, cases, time.perf_counter(), tracer)
    wall_s = bs.outcome_metrics([outcomes])["wall.suite_s"]
    return outcomes, tracer.spans, layer_metrics(tracer.spans, wall_s)


@pytest.fixture(scope="module")
def traced():
    """One traced instance per workload: name -> (outcomes, spans, layers)."""
    picks = {"bb_n40": ["kqkp_n40_d50_s1"], "root_n100": ["kqkp_n100_d50_s1"],
             "bnp_small_k": ["kqkp_n50_d25_s8"]}
    out = {}
    for name, labels in picks.items():
        wl, cases = _cases(name, labels)
        out[name] = _traced_pass(wl, cases)
    return out


def test_every_span_fires_on_its_workload(traced):
    fired = {name: {s[0] for s in spans} for name, (_, spans, _) in traced.items()}
    bb_layers = {name for _, _, name in PATCH_SITES} - {"bnb.branch_and_prune"}
    assert bb_layers <= fired["bb_n40"]
    assert "bnb.branch_and_prune" in fired["bnp_small_k"]
    assert {"ipm.solve", "bundle.minimize", "cuts.separate", "relaxation.build",
            "instance.load", "instance.preprocess"} <= fired["root_n100"]
    for outcomes, _, _ in traced.values():
        assert all(o.failure is None for o in outcomes)


def test_predicted_zeros_hold(traced):
    assert traced["bnp_small_k"][2]["ipm.solve.calls"] == 0
    assert traced["root_n100"][2]["bnb.branch_and_prune.calls"] == 0
    assert traced["root_n100"][2]["heuristics.primal.calls"] == 0


def test_traced_run_reproduces_untraced_answers():
    wl, cases = _cases("bb_n40", ["kqkp_n40_d50_s1", "kqkp_n40_d75_s3"])
    plain = bs.run_pass(wl, cases, time.perf_counter())
    traced, _, layers = _traced_pass(wl, cases)
    assert [bs.answer_key(o) for o in plain] == [bs.answer_key(o) for o in traced]
    assert all(o.solved for o in plain)
    totals = bs.outcome_metrics([plain])
    assert totals["evals_total"] == layers["bundle.evals"] == layers["ipm.solve.calls"]


def test_hard_cap_counts_a_failure_and_the_next_instance_runs():
    wl, cases = _cases("bnp_small_k", ["kqkp_n50_d75_s12", "kqkp_n50_d25_s8"])
    capped = dataclasses.replace(wl, cap_s=0.2)
    first, second = bs.run_pass(capped, cases, time.perf_counter())
    assert first.failure is not None and "hard cap" in first.failure
    assert not first.wrong and first.seconds == pytest.approx(0.2)
    assert second.failure is None and second.solved


def test_relabeled_seed_changes_the_file_not_the_optimum():
    label = ["kqkp_n50_d50_s19"]
    wl, (canonical,) = _cases("bnp_small_k", label)
    _, (relabeled,) = _cases("bnp_small_k", label, seed=7)
    assert canonical.path.read_text() != relabeled.path.read_text()
    (out,) = bs.run_pass(wl, [relabeled], time.perf_counter())
    assert out.solved and out.report["value"] == relabeled.ref["optimum"]


def test_checks_flag_wrong_answers():
    wl, cases = _cases("bnp_small_k", ["kqkp_n50_d25_s8"])
    (ok,) = bs.run_pass(wl, cases, time.perf_counter())
    assert ok.solved
    opt = cases[0].ref["optimum"]
    for doctored in ({"value": opt + 1}, {"selection": ok.report["selection"][:-1]},
                     {"root_bound": opt - 1.0}, {"status": "Infeasible"}):
        out = bs.Outcome(ok.label, 0.0)
        bs.check_solve(cases[0], 0, {**ok.report, **doctored}, out)
        assert out.wrong, doctored


def test_speed_sampler_runs_inside_calls_and_stops():
    with calibration.sampling():
        _, seconds, speed = calibration.measure(lambda: calibration._loop(2_000_000))
        (out,) = bs.run_pass(*_cases("bnp_small_k", ["kqkp_n50_d75_s12"]), time.perf_counter())
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert seconds > 0 and 0.1 < speed < 10
    assert 0.1 < out.speed < 10 and out.scaled_s == out.seconds * out.speed
