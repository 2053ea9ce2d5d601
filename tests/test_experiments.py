"""Smoke tests for the experiment harness at miniature scale: every
figure driver runs end to end, reports, and keeps its key shape
properties even on a small overlay (the full-scale shape assertions run
in benchmarks/)."""

import pytest

pytestmark = pytest.mark.slow  # multi-minute sims; run with `pytest -m slow`

from repro.experiments import fig7_8, fig9_10, fig11, fig12, fig13_14
from repro.experiments.common import (
    Scale,
    current_scale,
    format_series,
    format_table,
)
from repro.topology import build_overlay, transit_stub

TINY = Scale(
    name="tiny", n_nodes=16, degree=3,
    query_counts=(2, 6),
    burst_count=2, burst_interval=8.0,
    seed=5,
)


@pytest.fixture(scope="module")
def overlay():
    return build_overlay(transit_stub(seed=TINY.seed),
                         n_nodes=TINY.n_nodes, degree=TINY.degree,
                         seed=TINY.seed)


def test_scale_selection_env(monkeypatch):
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    assert current_scale().name == "small"
    monkeypatch.setenv("REPRO_SCALE", "full")
    full = current_scale()
    assert full.name == "full"
    assert full.n_nodes == 100  # the paper's deployment size


def test_fig7_8_smoke(overlay):
    result = fig7_8.run(overlay=overlay, scale=TINY)
    assert set(result.runs) == {"hopcount", "latency", "reliability",
                                "random"}
    for run in result.runs.values():
        assert run.convergence > 0
        assert run.total_mb > 0
        assert run.results_series[-1][1] == 1.0
    # Core orderings hold even at tiny scale.
    assert result.runs["hopcount"].total_mb < result.runs["random"].total_mb
    assert "Hop-Count" in result.report()


def test_fig9_10_smoke(overlay):
    result = fig9_10.run(overlay=overlay, scale=TINY, interval=0.3)
    for metric in result.periodic.runs:
        assert result.reduction(metric) > 0
    assert "periodic" in result.report()


def test_fig11_smoke(overlay):
    result = fig11.run(overlay=overlay, scale=TINY)
    assert result.lines["MS"] == sorted(result.lines["MS"])
    assert len(result.lines["No-MS"]) == len(TINY.query_counts)
    assert result.lines["MSC-10%"][-1] <= result.lines["MSC"][-1] + 1e-9
    assert "Figure 11" in result.report()


def test_fig12_smoke(overlay):
    result = fig12.run(overlay=overlay, scale=TINY)
    assert result.share_mb < result.no_share_mb
    assert result.saving > 0
    assert "sharing" in result.report()


def test_fig13_smoke(overlay):
    result = fig13_14.run_fig13(overlay=overlay, scale=TINY)
    assert result.consistent
    assert result.mean_burst_mb < result.initial_mb
    assert "Figure 13" in result.report()


def test_fig14_smoke(overlay):
    result = fig13_14.run_fig14(overlay=overlay, scale=TINY)
    assert result.consistent
    assert "Figure 14" in result.report()


class TestReporting:
    def test_format_table(self):
        text = format_table(("a", "bb"), [(1, 22), (333, 4)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "333" in lines[2] or "333" in lines[3]

    def test_format_series_downsamples(self):
        series = [(i * 0.1, float(i)) for i in range(100)]
        text = format_series(series, max_points=5)
        assert text.count(":") <= 8
        assert "9.9" in text  # last point always kept

    def test_format_series_empty(self):
        assert format_series([]) == "(empty)"
