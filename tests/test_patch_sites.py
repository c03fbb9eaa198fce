"""Every layer boundary the benchmark's trace patches must exist.

``perfbench/bench_trace.py`` wraps the solver's public functions at the
module attributes listed in ``PATCH_SITES``.  A refactor that drops one of
those names (say, an import in ``cli`` or ``bnb``) would otherwise surface
only when a traced benchmark runs.  The list is read with ``ast`` so the
harness module (and its imports) is never executed here.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH_TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "bench_trace.py"


def _patch_sites():
    tree = ast.parse(BENCH_TRACE.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "PATCH_SITES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no PATCH_SITES in {BENCH_TRACE}")


@pytest.mark.parametrize("module, attr, span", _patch_sites())
def test_patch_site_exists(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr, None)), \
        f"{module}.{attr} (span {span}) is gone"
