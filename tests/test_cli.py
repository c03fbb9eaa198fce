import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kqkp import bundle, cli, generator, ipm, relaxation
from kqkp.bnb import SolverConfig
from kqkp.heuristics import primal_heuristic
from kqkp.instance import Instance, dump, load, preprocess
from kqkp.oracle import enumerate_exact
from conftest import k_lightest_instance, make_instance, record_ipm_calls


def _write(tmp_path, inst, name="inst.txt"):
    path = tmp_path / name
    dump(inst, path)
    return path


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


def _strict_json(text):
    """json.loads that rejects the non-standard Infinity and NaN tokens."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


class TestSolve:
    def test_trivial_small_instance(self, tmp_path, capsys):
        inst = make_instance(8, seed=1)
        path = _write(tmp_path, inst)
        code, out = _run(capsys, ["solve", str(path)])
        payload = json.loads(out)
        assert code == 0
        assert payload["status"] == "Optimal"
        assert payload["nodes"] >= 1
        assert payload["open_bound"] == payload["value"]
        assert payload["version"]
        assert "config" in payload

    def test_report_self_validating(self, tmp_path, capsys):
        inst = make_instance(10, seed=2)
        path = _write(tmp_path, inst)
        _, out = _run(capsys, ["solve", str(path)])
        payload = json.loads(out)
        reloaded = load(path)
        x = np.zeros(reloaded.n, dtype=np.int64)
        x[payload["selection"]] = 1
        assert reloaded.objective(x) == payload["value"]
        assert reloaded.is_feasible(x)

    def test_open_root_bound_is_strict_json_null(self, tmp_path, capsys):
        # stopped before the root, the open bound is infinite
        path = _write(tmp_path, make_instance(12, seed=0))
        code, out = _run(capsys, ["solve", str(path), "--time-limit", "0",
                                  "--bnp-root-k", "0"])
        payload = _strict_json(out)
        assert (code, payload["status"], payload["open_bound"]) == (2, "TimeLimit", None)

    def test_malformed_line_cited(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("3 2 5\n1 z 1\n0 0 0\n0 0 0\n0 0 0\n")
        code = cli.main(["solve", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "line 2" in err

    @pytest.mark.parametrize("weights, b, c00", [
        ([10**23, 4, 5, 6], 9, 2),  # a weight outside int64
        ([3, 4, 5, 6], 9, 10**23),  # a profit outside int64
        ([3, 4, 5, 6], 9, 3074457345618258602),  # x'Cx not exact in a float
        ([2**62] * 5 + [10], 2**62 + 5, 2),  # weights whose int64 sum wraps around
    ], ids=["weight_1e23", "profit_1e23", "profit_3e18", "weight_sum_wraps"])
    def test_out_of_range_integers_are_bad_input(self, tmp_path, capsys, weights, b, c00):
        n = len(weights)
        C = [[1] * n for _ in range(n)]
        C[0][0] = c00
        path = tmp_path / "big.txt"
        path.write_text("\n".join(" ".join(map(str, row))
                                  for row in [[n, 2, b], weights, *C]) + "\n")
        code = cli.main(["solve", str(path)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_BAD_INPUT
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_stats_count_the_search_work(self, tmp_path, capsys):
        # an SDP root: one bundle, whose IPM calls end with a status each
        path = _write(tmp_path, make_instance(12, seed=0))
        _, out = _run(capsys, ["solve", str(path), "--bnp-root-k", "0"])
        payload = json.loads(out)
        stats = payload["stats"]
        assert stats["iters"] > 0 and stats["chol"] > 0
        assert sum(v for k, v in stats.items() if k.startswith("stop_")) >= 1
        assert stats["optimal"] + stats.get("slow_progress", 0) \
            + stats.get("iter_limit", 0) == payload["evals"]
        assert all(v > 0 for v in stats.values())

    def test_root_branch_and_prune_runs_no_ipm(self, tmp_path, capsys):
        inst = make_instance(12, seed=0)
        assert inst.k <= SolverConfig().bnp_root_k
        _, out = _run(capsys, ["solve", str(_write(tmp_path, inst))])
        payload = json.loads(out)
        assert (payload["nodes"], payload["evals"], payload["stats"]) == (1, 0, {})

    def test_missing_file(self, capsys):
        assert cli.main(["solve", "/nonexistent/file.txt"]) == 1

    def test_output_file_written(self, tmp_path, capsys):
        path = _write(tmp_path, make_instance(8, seed=3))
        out_json = tmp_path / "report.json"
        _run(capsys, ["solve", str(path), "-o", str(out_json)])
        assert json.loads(out_json.read_text())["status"] == "Optimal"

    def test_config_is_solver_defaults(self, tmp_path, capsys):
        path = _write(tmp_path, make_instance(8, seed=1))
        _, out = _run(capsys, ["solve", str(path)])
        assert json.loads(out)["config"] == dataclasses.asdict(SolverConfig())

    def test_matches_oracle_via_check(self, tmp_path, capsys):
        inst = make_instance(12, seed=7)
        path = _write(tmp_path, inst)
        code_s, out_s = _run(capsys, ["solve", str(path)])
        code_c, out_c = _run(capsys, ["check", str(path)])
        assert code_s == 0 and code_c == 0
        assert json.loads(out_s)["value"] == json.loads(out_c)["oracle_value"]
        assert json.loads(out_c)["match"] is True


class TestBound:
    def test_modes_ordered(self, tmp_path, capsys):
        inst = make_instance(14, seed=4)
        path = _write(tmp_path, inst)
        _, out1 = _run(capsys, ["bound", str(path), "--mode", "sdp"])
        _, out2 = _run(capsys, ["bound", str(path), "--mode", "sdpmet"])
        assert json.loads(out2)["bound"] <= json.loads(out1)["bound"] + 1e-6

    def test_bound_at_least_heuristic(self, tmp_path, capsys):
        inst = make_instance(14, seed=5)
        inc = primal_heuristic(inst, preprocess(inst))
        path = _write(tmp_path, inst)
        _, out = _run(capsys, ["bound", str(path)])
        assert json.loads(out)["bound"] >= inc.value - 1e-6

    def test_zero_cost_bound_zero(self, tmp_path, capsys):
        inst = Instance(2, np.array([1, 2, 3, 4]), 6,
                        np.zeros((4, 4), dtype=np.int64))
        path = _write(tmp_path, inst)
        _, out = _run(capsys, ["bound", str(path)])
        assert abs(json.loads(out)["bound"]) < 1e-4

    def test_sdp_mode_is_plain_relaxation(self, tmp_path, capsys):
        inst = make_instance(14, seed=4)
        path = _write(tmp_path, inst)
        _, out = _run(capsys, ["bound", str(path), "--mode", "sdp"])
        payload = json.loads(out)
        data = relaxation.build(inst)
        ref = ipm.solve(data, data.C_bar, bundle.IPM_TOL).certified_dual + data.const_term
        assert payload["evals"] == 1
        assert abs(payload["bound"] - ref) <= 1e-9 * abs(ref)

    def test_stats_of_one_evaluation(self, tmp_path, capsys):
        path = _write(tmp_path, make_instance(14, seed=4))
        _, out = _run(capsys, ["bound", str(path), "--mode", "sdp"])
        stats = json.loads(out)["stats"]
        # one cold IPM call, whose bundle stops at its budget of one
        assert (stats["optimal"], stats["stop_budget"]) == (1, 1) and stats["iters"] > 0
        assert "restarted" not in stats

    @pytest.mark.parametrize("mode", ["sdp", "sdpmet"])
    def test_every_ipm_solve_uses_ipm_tol(self, tmp_path, capsys, monkeypatch, mode):
        # bundle.oracle_eval passes its own IPM_TOL, so it suffices that
        # every IPM call is one evaluation's
        calls = record_ipm_calls(monkeypatch)
        path = _write(tmp_path, make_instance(14, seed=4))
        _, out = _run(capsys, ["bound", str(path), "--mode", mode])
        assert len(calls) == json.loads(out)["evals"] >= 1

    def test_time_limit_honoured(self, tmp_path, capsys):
        inst = generator.generate(generator.GenSpec(n=30, density_percent=50, seed=1))
        path = _write(tmp_path, inst)
        _, out = _run(capsys, ["bound", str(path), "--time-limit", "0"])
        payload = json.loads(out)
        assert payload["evals"] == 1
        assert payload["bound"] >= primal_heuristic(inst, preprocess(inst)).value

    def test_branch_and_prune_flags_rejected(self, tmp_path, capsys):
        # the bound pipeline has no branch-and-prune to configure
        path = _write(tmp_path, make_instance(8, seed=0))
        with pytest.raises(SystemExit) as exc:
            cli.main(["bound", str(path), "--bnp-root-k", "0"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bnp-root-k" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["sdp", "sdpmet"])
    def test_k1_bound_is_the_largest_diagonal_entry(self, tmp_path, capsys, mode):
        # nothing to relax at k = 1: every item fits, the best one is the
        # bound; nor on a b == b' face with one selection, or one item of the
        # tie class to choose.  Each prints its exact value with no evaluation.
        C = np.array([[3, 7, 1], [7, 5, 2], [1, 2, 9]])
        k1 = Instance(1, np.array([1, 2, 3]), 3, C)
        faces = [k_lightest_instance(name) for name in ("all_tied_unique", "one_of_tie")]
        for i, inst in enumerate([k1, *faces]):
            path = _write(tmp_path, inst, f"inst{i}.txt")
            code, out = _run(capsys, ["bound", str(path), "--mode", mode])
            payload = _strict_json(out)
            assert code == 0
            assert (payload["bound"], payload["evals"]) == (enumerate_exact(inst).value, 0)
            assert isinstance(payload["bound"], int)
        assert enumerate_exact(k1).value == 9

    def test_infeasible_bound_is_strict_json_null(self, tmp_path, capsys):
        # k = 3 exceeds k_max = 2: the two lightest weights already fill b = 4
        inst = Instance(3, np.array([1, 2, 3, 4]), 4, np.zeros((4, 4), dtype=np.int64))
        path = _write(tmp_path, inst)
        code, out = _run(capsys, ["bound", str(path)])
        assert code == 0
        assert _strict_json(out)["bound"] is None


class TestGenerate:
    def test_writes_named_file(self, tmp_path, capsys):
        code, out = _run(capsys, ["generate", "--n", "12", "--density", "50",
                                  "--seed", "5", "--out-dir", str(tmp_path)])
        assert code == 0
        path = tmp_path / "kqkp_n12_d50_s5.txt"
        assert path.exists()
        inst = load(path)
        assert inst.n == 12


class TestBench:
    def _populate(self, tmp_path, n_files=3):
        d = tmp_path / "inst"
        d.mkdir()
        for seed in range(n_files):
            spec = generator.GenSpec(n=10, density_percent=50, seed=seed)
            dump(generator.generate(spec), d / generator.filename(spec))
        return d

    def test_empty_dir_header_only(self, tmp_path, capsys):
        d = tmp_path / "empty"
        d.mkdir()
        code, out = _run(capsys, ["bench", str(d)])
        assert code == 0
        assert out.strip() == "n,delta,gap_root_percent,time_s,nodes"

    @pytest.mark.parametrize("name", ["missing", "file.txt"])
    def test_not_a_directory_is_bad_input(self, tmp_path, capsys, name):
        (tmp_path / "file.txt").write_text("")
        code = cli.main(["bench", str(tmp_path / name)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_BAD_INPUT
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_gap_column_nonnegative(self, tmp_path, capsys):
        d = self._populate(tmp_path)
        _, out = _run(capsys, ["bench", str(d)])
        lines = out.strip().splitlines()
        assert lines[0] == "n,delta,gap_root_percent,time_s,nodes"
        for line in lines[1:]:
            n, delta, gap, t, nodes = line.split(",")
            assert float(gap) >= 0
            assert int(nodes) >= 1

    def test_n_comes_from_the_data_not_the_file_name(self, tmp_path, capsys):
        d = tmp_path / "inst"
        d.mkdir()
        inst = generator.generate(generator.GenSpec(n=10, density_percent=50, seed=1))
        dump(inst, d / "kqkp_n10_d25_s1.txt")
        dump(inst, d / "kqkp_n40_d25_s1.txt")
        dump(inst, d / "kqkp_n40_d25_s1_copy.txt")
        _, out = _run(capsys, ["bench", str(d)])
        rows = [line.split(",")[:2] for line in out.strip().splitlines()[1:]]
        # a generator file name with the data's n gives the density; a name
        # with another n, or any other name, is counted
        counted = round(100 * np.count_nonzero(np.triu(inst.C)) / (10 * 11 // 2))
        assert rows == [["10", "25"], ["10", str(counted)], ["10", str(counted)]]

    def test_deterministic_rerun(self, tmp_path, capsys):
        d = self._populate(tmp_path)
        _, out1 = _run(capsys, ["bench", str(d)])
        _, out2 = _run(capsys, ["bench", str(d)])
        assert out1 == out2


class TestCheck:
    def test_oracle_guard(self, tmp_path, capsys):
        inst = make_instance(30, seed=1)
        path = _write(tmp_path, inst)
        assert cli.main(["check", str(path)]) == 1


@pytest.mark.parametrize("module", ["scipy.optimize", "scipy.linalg", "numpy.f2py"])
def test_import_leaves_module_unloaded(module):
    # the bundle subproblem has its own exact solver and the IPM loads only
    # scipy's LAPACK extension; the scipy.optimize and scipy.linalg package
    # inits (the latter loads numpy.f2py) would add to the start-up time and
    # memory of every command.  The key is exact: the extension itself is
    # registered as scipy.linalg._flapack
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run(
        [sys.executable, "-c", f"import sys, kqkp.cli; print({module!r} in sys.modules)"],
        capture_output=True, text=True, env=env, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def _usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    [cmd, target, flag, value]
    for cmd, target in (("solve", "F"), ("bound", "F"), ("bench", "D"), ("check", "F"))
    for flag, value in (("--tol", "1e-6"), ("--gamma-drop", "1e-4"),
                        ("--cut-update-period", "3"))
] + [["bench", "D", "--threads", "2"]], ids=" ".join)
def test_removed_knobs_rejected(capsys, argv):
    # the IPM tolerances, cut-drop threshold and update period are constants,
    # and bench runs in one process
    assert f"unrecognized arguments: {argv[2]}" in _usage_error(capsys, argv)


@pytest.mark.parametrize("value", ["0", "-3"])
def test_nonpositive_cuts_m_is_usage_error(capsys, value):
    err = _usage_error(capsys, ["solve", "F", "--bnp-root-k", "0", "--cuts-m", value])
    assert "--cuts-m" in err


@pytest.mark.parametrize("flag", ["--bnp-node-k", "--bnp-root-k"])
def test_negative_bnp_threshold_is_usage_error(capsys, flag):
    assert flag in _usage_error(capsys, ["solve", "F", flag, "-3"])


@pytest.mark.parametrize("value", ["0", "1", "2"])
def test_generate_needs_three_items(capsys, value):
    err = _usage_error(capsys, ["generate", "--n", value, "--density", "50", "--seed", "1"])
    assert "--n" in err


def test_generate_rejects_negative_seed(capsys):
    err = _usage_error(capsys, ["generate", "--n", "10", "--density", "50", "--seed", "-1"])
    assert "--seed" in err


@pytest.mark.parametrize("cmd", ["solve", "bound"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_time_limit_must_be_finite_and_nonnegative(capsys, cmd, value):
    # a NaN deadline never passes and would print as NaN in the JSON report
    err = _usage_error(capsys, [cmd, "F", "--time-limit", value])
    assert "--time-limit" in err


def _long_flags(parser):
    flags = set()
    for action in parser._actions:
        flags.update(o for o in action.option_strings if o.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _long_flags(sub)
    return flags - {"--help"}


def test_readme_command_line_lists_the_parser_flags():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z](?:[a-z-]*[a-z])?", section))
    registered = _long_flags(cli.build_parser())
    assert documented - registered == set(), "README names flags the parser rejects"
    assert registered - documented == set(), "README misses registered flags"
