"""Every name and flag the benchmark tooling relies on must exist.

``perfbench/bench_trace.py`` wraps the solver's public functions at the
module attributes listed in ``PATCH_SITES``, and
``perfbench/make_reference.py`` confirms each reference answer with a
second ``kqkp solve`` run whose flags are listed in ``SECOND_PATH``.  A
refactor that drops one of those names (say, an import in ``cli`` or
``bnb``) or flags would otherwise surface only when a traced benchmark or
the reference generator runs.  The same holds for the fields that the
trace's ``INFO`` readers take from a return value.  The lists are read with
``ast`` so the tooling modules (and their imports) are never executed here.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

import pytest

from kqkp import bundle, cli, heuristics, ipm

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _assigned(path: Path, name: str) -> ast.expr:
    tree = ast.parse(path.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return node.value
    raise AssertionError(f"no {name} in {path}")


def _literal(path: Path, name: str):
    return ast.literal_eval(_assigned(path, name))


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


# the type a span's INFO reader receives: the return value of the wrapped function
READ_TYPES = {
    "ipm.solve": ipm.SdpSolution,
    "bundle.minimize": bundle.BundleResult,
    "heuristics.primal": heuristics.Incumbent,
    "heuristics.varfix": heuristics.Incumbent,
}


def _info_reads():
    """(span, attributes the span's INFO reader takes from its argument)."""
    path = PERFBENCH / "bench_trace.py"
    readers = {node.name: node for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.FunctionDef)}
    info = _assigned(path, "INFO")
    for key, value in zip(info.keys, info.values):
        fn = readers[value.id]
        arg = fn.args.args[0].arg
        yield key.value, sorted({n.attr for n in ast.walk(fn)
                                 if isinstance(n, ast.Attribute)
                                 and isinstance(n.value, ast.Name) and n.value.id == arg})


INFO_READS = dict(_info_reads())


@pytest.mark.parametrize("span", list(INFO_READS))
def test_info_reader_fields_exist(span):
    cls = READ_TYPES.get(span)
    fields = {f.name for f in dataclasses.fields(cls)} if cls else set()
    missing = set(INFO_READS[span]) - fields
    assert not missing, f"the {span} reader takes {sorted(missing)}, which are gone"
