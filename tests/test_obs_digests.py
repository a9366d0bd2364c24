"""Byte-exact artifacts of two observed CLI runs.

The trace, metrics, flight-recorder JSONL and HTML report of an SLO-
alerting ``demo`` run and a rolled-back ``replan`` run are pinned by
sha256 in ``tests/data/golden_obs_digests.json``; regenerate with
``PYTHONPATH=src python tests/make_obs_digests.py`` only after an
intended output change.
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))
try:
    from make_obs_digests import OBS_RUNS, read_digests, run_digests
finally:
    sys.path.pop(0)


@pytest.mark.parametrize("name", sorted(OBS_RUNS))
def test_observed_artifacts_match_golden(name, tmp_path):
    assert run_digests(name, str(tmp_path)) == read_digests()[name]
