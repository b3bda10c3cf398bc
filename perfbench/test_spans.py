"""Spans, self times, wrapping of package attributes and per-layer names.

Run with: python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import spans  # noqa: E402


def test_nested_calls_give_parents_and_self_times():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(10_000)))
    outer = tracer.wrap("outer", lambda: inner() + inner())
    outer()
    names = [s["name"] for s in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert [s["parent"] for s in tracer.spans] == [None, 0, 0]
    selfs = spans.self_times(tracer.spans)
    whole = tracer.spans[0]["end"] - tracer.spans[0]["start"]
    children = sum(s["end"] - s["start"] for s in tracer.spans[1:])
    assert selfs[0] == pytest.approx(whole - children)


def test_install_wraps_every_module_reference_and_uninstall_restores():
    import rpcurve
    import rpcurve.fitting
    import rpcurve.projection

    original = rpcurve.projection.project_points
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert rpcurve.fitting.project_points is not original
        assert rpcurve.projection.project_points is not original
        assert rpcurve.project_points is rpcurve.fitting.project_points
    finally:
        tracer.uninstall()
    assert rpcurve.fitting.project_points is original
    assert rpcurve.project_points is original


def test_metric_names_are_the_declared_per_layer_metrics():
    names = [t[2] for t in spans.TARGETS]
    fake = [{"name": n, "parent": None, "start": 0.0, "end": 1.0,
             "points": 1, "clamped": 0, "peak_alloc": 1} for n in names]
    got = spans.layer_metrics(fake, ops=1, import_s=1.0)
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"]
                    for m in json.load(fh)["per_layer"]}
    assert {k: u for k, (_, u) in got.items()} == declared


def test_fitting_self_time_leaves_out_projection_and_data():
    fake = [
        {"name": "fitting.rank", "parent": None, "start": 0.0, "end": 10.0},
        {"name": "data.apply_transform", "parent": 0, "start": 1.0,
         "end": 2.0},
        {"name": "projection.project_points", "parent": 0, "start": 2.0,
         "end": 9.0, "points": 7, "clamped": 1},
    ]
    got = spans.layer_metrics(fake, ops=2, import_s=1.0)
    assert got["fitting.self_s"] == (1.0, "s")
    assert got["fitting.rank_s"] == (5.0, "s")
    assert got["data.s"] == (0.5, "s")
    assert got["projection.us_per_point"] == (1e6, "us/point")
