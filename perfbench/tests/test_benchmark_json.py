import json
from pathlib import Path

import layers

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_per_layer_metrics_match_what_the_traced_run_prints():
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.PER_LAYER


def test_end_to_end_metrics_have_bounds_and_include_setup():
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert names == ["setup_s", "wall_s", "subsets_per_s", "call_ms.p50", "call_ms.p99", "peak_rss_mb"]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert max(m["bound"] for m in SPEC["end_to_end"]) == SPEC["end_to_end"][0]["bound"]
