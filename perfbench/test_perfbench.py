"""Smoke test of the benchmark at tiny sizes: metric names, checks and
the self-time arithmetic.  Run with ``python -m pytest perfbench``."""

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import sparsedl.learner  # noqa: E402
from scene import make_scene  # noqa: E402
from spans import Hook, Span, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    # 64x64 is about the smallest scene that still meets the scene's targets
    "denoise": replace(WORKLOADS["denoise-256-s20"], scene_size=64, num_atoms=100, iterations=2),
    "dct": replace(WORKLOADS["dct-256-s20"], scene_size=64, num_atoms=100),
    "learn": replace(WORKLOADS["learn-30k-lam30"], scene_size=64, signals=400, num_atoms=64, iterations=2),
}


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("kind", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_reports_every_metric(kind, trace):
    record = bench.measure(TINY[kind], seed=3, seconds=1, trace=trace, setup_samples=1)
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert list(record["metrics"]) == list(expected)
    for m in record["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    assert record["failures"] == [] and record["correct"]
    assert record["attempted"] >= 2 and record["failed"] == 0
    if trace:
        assert record["traced_walls_s"] and record["walls_s"]


def test_traced_layers_add_up_to_the_call():
    tracer = Tracer()
    case = bench.DenoiseCase(TINY["denoise"], seed=5)
    with tracer.installed(bench.HOOKS):
        case.traced(tracer)
    m = bench.layer_metrics(tracer)
    (root,) = tracer.named(bench.DENOISE_ROOT)
    children = (
        m["patches.extract_s"] + m["dictionaries.dct_s"] + m["learner.learn_s"]
        + m["omp.code_s"] + m["patches.aggregate_s"]
    )
    assert m["denoise.self_s"] == pytest.approx(root.duration - children, abs=1e-9)
    assert m["learner.self_s"] == pytest.approx(m["learner.learn_s"] - m["learner.threshold_s"], abs=1e-9)
    assert m["learner.sweeps"] == 2 and m["learner.threshold_calls"] == 2 * 100
    assert m["patches.count"] == m["omp.signals"] == 57 * 57


def test_self_time_subtracts_the_union_of_children():
    tracer = Tracer()
    tracer.spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 3.0, parent=0),
        Span("b", 2.0, 4.0, parent=0),  # overlaps a: together they cover 3 s
        Span("c", 9.0, 12.0, parent=0),  # only 1 s of it lies inside root
        Span("leaf", 1.5, 2.5, parent=1),  # a grandchild: no effect on root
    ]
    assert tracer.self_time("root") == pytest.approx(10.0 - 3.0 - 1.0)
    assert tracer.self_time("a") == pytest.approx(2.0 - 1.0)
    assert tracer.self_time("leaf") == pytest.approx(1.0)


def test_installed_hooks_are_restored():
    original = sparsedl.learner.truncated_hard_threshold
    tracer = Tracer()
    hook = Hook("sparsedl.learner", "truncated_hard_threshold", "threshold", lambda r: {"n": r.size})
    with tracer.installed([hook]):
        assert sparsedl.learner.truncated_hard_threshold is not original
        sparsedl.learner.truncated_hard_threshold(np.array([0.5, 2.0]), 1.0, 5.0)
    assert sparsedl.learner.truncated_hard_threshold is original
    assert tracer.count("threshold", "n") == 2


def test_scene_depends_only_on_its_seed():
    a = make_scene(64, [7, 0])
    assert a.dtype == np.uint8 and a.shape == (64, 64)
    assert np.array_equal(a, make_scene(64, [7, 0]))
    assert not np.array_equal(a, make_scene(64, [8, 0]))
