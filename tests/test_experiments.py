"""The paper's Section 6 claims (Figures 7-14) on the experiment drivers.

Tier-1 runs every driver on a 16-node overlay (``TINY``, about 3 s in
all) and asserts each figure's ``check_shape()`` there, except Figure
11, whose MS line crosses No-MS only with more queries than ``TINY``
issues.  The slow tier (``pytest -m slow``) runs every driver's
``check_shape()`` at the default ``small`` scale.  ``python -m
repro.experiments.figNN`` prints a figure and checks the same shape.
"""

import pytest

from repro.experiments import fig7_8, fig9_10, fig11, fig12, fig13_14
from repro.experiments.common import (
    SMALL,
    Scale,
    current_scale,
    default_overlay,
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
    assert "Hop-Count" in result.report()
    result.check_shape()


def test_fig9_10_smoke(overlay):
    result = fig9_10.run(overlay=overlay, scale=TINY, interval=0.3)
    assert "periodic" in result.report()
    result.check_shape()


def test_fig11_smoke(overlay):
    result = fig11.run(overlay=overlay, scale=TINY)
    assert result.lines["MS"] == sorted(result.lines["MS"])
    assert len(result.lines["No-MS"]) == len(TINY.query_counts)
    assert result.lines["MSC-10%"][-1] <= result.lines["MSC"][-1] + 1e-9
    assert "Figure 11" in result.report()


def test_fig12_smoke(overlay):
    result = fig12.run(overlay=overlay, scale=TINY)
    assert "sharing" in result.report()
    result.check_shape()


def test_fig13_smoke(overlay):
    result = fig13_14.run_fig13(overlay=overlay, scale=TINY)
    assert "Figure 13" in result.report()
    result.check_shape()


def test_fig14_smoke(overlay):
    result = fig13_14.run_fig14(overlay=overlay, scale=TINY)
    assert "Figure 14" in result.report()
    result.check_shape()


# ----------------------------------------------------------------------
# The default ``small`` scale (48 nodes): slow tier
# ----------------------------------------------------------------------
FIG12_DEVIATION = (
    "Figure 12 at the small scale: sharing's per-node peak is above the "
    "no-share run's (79.7 against 75.2 kB/s at PYTHONHASHSEED=0; the "
    "paper has 27 -> 16).  It began at 8c43c00, when a chunk's heads "
    "started to leave as one message per neighbour: the no-share peak "
    "fell from 95.8 to 75.3 kB/s while sharing stayed at 80.4.  "
    "Candidate cause: a link's one share window flushes 300 ms after it "
    "opens, where the paper delays each outbound tuple by 300 ms."
)


@pytest.fixture(scope="module")
def small_overlay():
    return default_overlay(SMALL)


@pytest.mark.slow
@pytest.mark.parametrize("driver", [
    pytest.param(fig7_8.run, id="fig7_8"),
    pytest.param(fig9_10.run, id="fig9_10"),
    pytest.param(fig11.run, id="fig11"),
    pytest.param(fig12.run, id="fig12", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=FIG12_DEVIATION)),
    pytest.param(fig13_14.run_fig13, id="fig13"),
    pytest.param(fig13_14.run_fig14, id="fig14"),
])
def test_small_scale_shape(driver, small_overlay):
    driver(overlay=small_overlay, scale=SMALL).check_shape()


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
