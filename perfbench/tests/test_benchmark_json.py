"""BENCHMARK.json, the layer map and the workload registry agree."""

import json
import os
import re

from perfbench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def load(path):
    with open(os.path.join(ROOT, path)) as f:
        return json.load(f)


def test_benchmark_json_shape():
    spec = load("BENCHMARK.json")
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    names = [m["name"] for k in ("end_to_end", "per_layer") for m in spec[k]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_layer_map_covers_every_per_layer_metric():
    spec = load("BENCHMARK.json")
    layers = load("perfbench/layers.json")["metrics"]
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    for m in layers.values():
        assert set(m["on"]) <= set(WORKLOADS)
        assert set(m["moves"]) <= {e["name"] for e in spec["end_to_end"]}
