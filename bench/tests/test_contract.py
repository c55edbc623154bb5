"""BENCHMARK.json names exactly the workloads and metrics the code produces.

Run from the repository root: python3 -m pytest bench/tests -q
"""

import json
import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _spec():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_workloads_match():
    spec = _spec()
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]


def test_metrics_match():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert all(m["better"] == "lower" for m in spec["end_to_end"])
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.METRICS
    bounds = {m["name"]: m.pop("bound") for m in spec["end_to_end"]}
    assert bounds.pop("setup_s") == 0.25 > max(bounds.values())
