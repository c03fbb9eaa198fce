"""Record perfbench/reference.json: the committed answers every run is checked against.

    python3 perfbench/make_reference.py

For every instance of every workload it stores the generator digest and:

- for solve workloads, the optimum, found by the default search path and
  confirmed by a second one (pure branch-and-bound with other cut settings
  for B&B draws; B&B without branch-and-prune for the small-k draws);
- for bound workloads, a feasible value from the primal heuristic, whose
  selection is checked for feasibility and recomputed here.

Takes several minutes.  Run it only when the suite itself changes.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import bench_suite as bs  # noqa: E402
from kqkp import generator  # noqa: E402
from kqkp.heuristics import primal_heuristic  # noqa: E402
from kqkp.instance import preprocess  # noqa: E402

SECOND_PATH = {
    "bb_n40": ["--cuts-m", "10", "--bnp-node-k", "0"],
    "bnp_small_k": ["--bnp-root-k", "0", "--bnp-node-k", "0"],
}
CAP_S = 900.0


def solve_value(path: Path, flags: list[str]) -> int:
    rc, text, _, _ = bs.call_cli(["solve", str(path), *flags], CAP_S)
    rep = json.loads(text)
    if rc != 0 or rep["status"] != "Optimal":
        raise RuntimeError(f"{path.name} {flags}: exit {rc}, status {rep['status']}")
    return rep["value"]


def main() -> int:
    work = HERE / "_work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    reference: dict = {}
    for wl in bs.WORKLOADS.values():
        entries = reference[wl.name] = {}
        for gseed, density in wl.draws:
            spec = generator.GenSpec(wl.n, density, gseed)
            label = Path(generator.filename(spec)).stem
            inst = generator.generate(spec)
            entry = entries[label] = {"digest": bs.digest(inst), "k": inst.k}
            path = work / f"{label}.txt"
            bs.write_instance(path, inst.k, inst.a, inst.b, inst.C)
            if wl.command[0] == "solve":
                value = solve_value(path, [])
                second = solve_value(path, SECOND_PATH[wl.name])
                if value != second:
                    raise RuntimeError(f"{label}: {value} != {second} on the second path")
                entry["optimum"] = value
                entry["confirmed_by"] = " ".join(SECOND_PATH[wl.name])
            else:
                inc = primal_heuristic(inst, preprocess(inst))
                sel = np.nonzero(inc.x)[0]
                value = int(inst.C[np.ix_(sel, sel)].sum())
                if len(sel) != inst.k or int(inst.a[sel].sum()) > inst.b or value != inc.value:
                    raise RuntimeError(f"{label}: heuristic selection does not check out")
                entry["feasible"] = value
            print(label, entry, flush=True)
    bs.REFERENCE_FILE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
