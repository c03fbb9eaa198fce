"""Every name and flag the benchmark tooling relies on must exist.

``perfbench/bench_trace.py`` wraps the solver's public functions at the
module attributes listed in ``PATCH_SITES``, and
``perfbench/make_reference.py`` confirms each reference answer with a
second ``kqkp solve`` run whose flags are listed in ``SECOND_PATH``.  A
refactor that drops one of those names (say, an import in ``cli`` or
``bnb``) or flags would otherwise surface only when a traced benchmark or
the reference generator runs.  The lists are read with ``ast`` so the
tooling modules (and their imports) are never executed here.
"""

import ast
import importlib
from pathlib import Path

import pytest

from kqkp import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _literal(path: Path, name: str):
    tree = ast.parse(path.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} in {path}")


@pytest.mark.parametrize("module, attr, span",
                         _literal(PERFBENCH / "bench_trace.py", "PATCH_SITES"))
def test_patch_site_exists(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr, None)), \
        f"{module}.{attr} (span {span}) is gone"


SECOND_PATH = _literal(PERFBENCH / "make_reference.py", "SECOND_PATH")


@pytest.mark.parametrize("flags", list(SECOND_PATH.values()), ids=list(SECOND_PATH))
def test_reference_second_path_flags_accepted(flags):
    args = cli.build_parser().parse_args(["solve", "FILE", *flags])
    assert args.func is cli.cmd_solve
