"""The summary of tests/pairs.py, the alternating-pairs benchmark runner, on a fixed sample."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location("pairs", Path(__file__).with_name("pairs.py"))
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)


def _run(op: float, rate: float, rss: float | None = None) -> dict:
    metrics = {"op_s_p50": {"value": op, "unit": "s"}, "ops_per_s": {"value": rate, "unit": "1/s"}}
    if rss is not None:
        metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    return {"correct": True, "attempted": 8, "failed": 0, "metrics": metrics}


def test_summary_gives_each_side_its_quartiles_and_counts_strict_wins():
    parent = [_run(3.0, 300, 47.0), _run(3.2, 310, 47.0), _run(3.1, 320, 47.5), _run(3.3, 290, 47.4)]
    change = [_run(2.9, 330, 47.0), _run(3.0, 310, 47.1), _run(3.2, 300), _run(2.8, 340, 47.3)]
    rows = pairs.summarize(parent, change, {"op_s_p50": "lower", "ops_per_s": "higher"})
    # peak_rss_mb is missing from one run, so it has no row
    assert [r["metric"] for r in rows] == ["op_s_p50", "ops_per_s"]
    op, rate = rows
    assert op["parent"] == pytest.approx((3.075, 3.15, 3.225))
    assert op["change"] == pytest.approx((2.875, 2.95, 3.05))
    assert op["relative"] == pytest.approx(2.95 / 3.15 - 1.0)
    assert (op["wins"], op["pairs"], op["unit"]) == (3, 4, "s")
    # higher is better for a rate; the tie of pair 1 is no win
    assert rate["parent"] == pytest.approx((297.5, 305.0, 312.5))
    assert (rate["wins"], rate["pairs"]) == (2, 4)
    text = pairs.table(rows)
    assert "| `op_s_p50` (s) | 3.15 (3.075–3.225) | 2.95 (2.875–3.05) | -6.3 % | 3 of 4 |" in text
    assert text.count("\n") == 3
    # a metric without a direction counts lower as better; one pair has equal quartiles
    rows = pairs.summarize([_run(1.0, 1.0, 48.0)], [_run(1.0, 1.0, 47.0)], {})
    assert [(r["metric"], r["wins"], r["parent"]) for r in rows] == [
        ("op_s_p50", 0, (1.0, 1.0, 1.0)), ("ops_per_s", 0, (1.0, 1.0, 1.0)),
        ("peak_rss_mb", 1, (48.0, 48.0, 48.0))]
