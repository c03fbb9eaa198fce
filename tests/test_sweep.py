"""The first 50 draws of the exactness sweep (``tools/sweep.py``): every
solve exact with valid bounds, and the SDP path's fix rounds and
branch-and-prune exercised."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import sweep  # noqa: E402


def test_first_50_draws_are_exact():
    failures, paths = sweep.sweep(50)
    assert failures == []
    sdp, defaults = paths["thresholds 0"], paths["defaults"]
    assert sdp["draws"] == defaults["draws"] == 50
    assert sdp["stopped fixable"] > 0 and sdp["reached branch-and-prune"] > 0
    assert defaults["reached branch-and-prune"] > 0
