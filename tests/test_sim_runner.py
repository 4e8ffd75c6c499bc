"""Tests for sweep/series utilities, table formatting and ASCII charts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.params import SimulationParams
from repro.sim.runner import (
    Series,
    ascii_chart,
    crossover,
    format_table,
    sweep,
    sweep_mttf,
)
from repro.sim.stats import Summary, relative_error, summarize


class TestSeries:
    def test_length_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            Series(label="x", x=(1.0, 2.0), y=(1.0,))

    def test_value_at(self):
        s = Series(label="x", x=(1.0, 2.0), y=(10.0, 20.0))
        assert s.value_at(2.0) == 20.0
        with pytest.raises(SimulationError):
            s.value_at(3.0)

    def test_value_at_tolerates_float_representation(self):
        # Grids built arithmetically (np.linspace, accumulation) don't
        # always hit the literal the caller writes: 0.1 + 0.2 != 0.3.
        s = Series(label="x", x=(0.1 + 0.2, 1.0), y=(3.0, 10.0))
        assert s.value_at(0.3) == 3.0

    def test_value_at_accumulated_grid(self):
        xs = []
        v = 0.0
        for _ in range(5):
            v += 0.1
            xs.append(v)  # 0.30000000000000004 lands in the grid
        s = Series(label="x", x=tuple(xs), y=tuple(range(5)))
        assert s.value_at(0.3) == 2
        assert s.value_at(0.5) == 4

    def test_value_at_isclose_is_not_a_net(self):
        s = Series(label="x", x=(1.0, 2.0), y=(10.0, 20.0))
        with pytest.raises(SimulationError):
            s.value_at(1.001)  # near miss is still a miss


class TestSweep:
    def test_sweep_collects_means_and_summaries(self):
        series = sweep(
            [1.0, 2.0, 3.0],
            technique="retrying",
            # No failures: every run takes exactly F.
            params_of=lambda x: SimulationParams(failure_free_time=x * 10.0),
            label="tens",
            runs=100,
        )
        assert series.y == (10.0, 20.0, 30.0)
        assert all(isinstance(s, Summary) for s in series.summaries)

    def test_sweep_mttf_produces_labelled_series(self):
        params = SimulationParams(runs=2000)
        out = sweep_mttf(params, [10, 50], techniques=("retrying", "replication"))
        assert set(out) == {"retrying", "replication"}
        assert out["retrying"].label == "Retrying"
        assert out["retrying"].x == (10.0, 50.0)
        # Sanity: retrying at MTTF=10 is much slower than at MTTF=50.
        assert out["retrying"].y[0] > out["retrying"].y[1]


class TestCrossover:
    def test_detects_interpolated_crossing(self):
        a = Series(label="a", x=(0.0, 10.0, 20.0), y=(10.0, 5.0, 0.0))
        b = Series(label="b", x=(0.0, 10.0, 20.0), y=(4.0, 4.0, 4.0))
        x = crossover(a, b)
        assert x == pytest.approx(12.0)  # linear between (10,5) and (20,0)

    def test_none_when_a_always_above(self):
        a = Series(label="a", x=(0.0, 1.0), y=(10.0, 9.0))
        b = Series(label="b", x=(0.0, 1.0), y=(1.0, 1.0))
        assert crossover(a, b) is None

    def test_none_when_a_starts_below(self):
        a = Series(label="a", x=(0.0, 1.0), y=(0.0, 0.0))
        b = Series(label="b", x=(0.0, 1.0), y=(1.0, 1.0))
        assert crossover(a, b) is None

    def test_requires_same_grid(self):
        a = Series(label="a", x=(0.0,), y=(1.0,))
        b = Series(label="b", x=(1.0,), y=(1.0,))
        with pytest.raises(SimulationError):
            crossover(a, b)

    def test_exact_grid_point_crossing(self):
        a = Series(label="a", x=(0.0, 1.0), y=(2.0, 1.0))
        b = Series(label="b", x=(0.0, 1.0), y=(1.0, 1.0))
        assert crossover(a, b) == pytest.approx(1.0)


class TestFormatting:
    def series(self):
        return [
            Series(label="Retrying", x=(10.0, 20.0), y=(190.5, 77.3)),
            Series(label="Checkpointing", x=(10.0, 20.0), y=(45.6, 43.0)),
        ]

    def test_table_contains_headers_and_rows(self):
        table = format_table("MTTF", self.series())
        assert "MTTF" in table and "Retrying" in table
        assert "190.50" in table and "43.00" in table

    def test_table_inf_rendering(self):
        s = [Series(label="x", x=(1.0,), y=(float("inf"),))]
        assert "inf" in format_table("p", s)

    def test_table_requires_shared_grid(self):
        bad = [
            Series(label="a", x=(1.0,), y=(1.0,)),
            Series(label="b", x=(2.0,), y=(1.0,)),
        ]
        with pytest.raises(SimulationError):
            format_table("x", bad)

    def test_chart_renders_axes_and_legend(self):
        chart = ascii_chart(self.series(), width=40, height=10, title="Fig")
        assert "Fig" in chart
        assert "* Retrying" in chart
        assert "o Checkpointing" in chart
        assert "x: [10, 20]" in chart

    def test_chart_caps_infinite_values(self):
        s = [Series(label="x", x=(1.0, 2.0), y=(10.0, float("inf")))]
        chart = ascii_chart(s, y_cap=100.0)
        assert "capped" in chart

    def test_chart_requires_series(self):
        with pytest.raises(SimulationError):
            ascii_chart([])


class TestStats:
    def test_summary_fields(self):
        samples = np.array([1.0, 2.0, 3.0, 4.0, 5.0] * 100)
        s = summarize(samples)
        assert s.mean == pytest.approx(3.0)
        assert s.p50 == pytest.approx(3.0)
        assert s.n == 500
        assert s.mean - s.ci_halfwidth < 3.0 < s.mean + s.ci_halfwidth

    def test_confidence_levels(self):
        samples = np.random.default_rng(1).normal(10, 1, size=1000)
        narrow = summarize(samples, confidence=0.90)
        wide = summarize(samples, confidence=0.99)
        assert wide.ci_halfwidth > narrow.ci_halfwidth

    def test_invalid_inputs(self):
        with pytest.raises(SimulationError):
            summarize(np.array([]))
        with pytest.raises(SimulationError):
            summarize(np.ones(10), confidence=0.5)

    def test_contains_with_slack(self):
        s = summarize(np.random.default_rng(2).normal(5, 1, 10_000))
        assert s.contains(s.mean)
        assert s.contains(s.mean + 1.5 * s.ci_halfwidth, slack=2.0)

    def test_relative_error_edge_cases(self):
        assert relative_error(11.0, 10.0) == pytest.approx(0.1)
        assert relative_error(float("inf"), float("inf")) == 0.0
        assert relative_error(1.0, float("inf")) == float("inf")
        assert relative_error(0.5, 0.0) == 0.5


class TestCsvExport:
    def test_csv_header_and_rows(self):
        from repro.sim import to_csv

        s = [
            Series(label="Retrying", x=(10.0, 20.0), y=(190.5, 77.3)),
            Series(label="Checkpointing", x=(10.0, 20.0), y=(45.6, 43.0)),
        ]
        csv = to_csv("mttf", s)
        lines = csv.splitlines()
        assert lines[0] == "mttf,Retrying,Checkpointing"
        assert lines[1].startswith("10,190.5,45.6")

    def test_csv_ci_columns_for_summarised_series(self):
        from repro.sim import to_csv

        samples = np.random.default_rng(0).normal(10, 1, 1000)
        summary = summarize(samples)
        s = Series(
            label="sim", x=(1.0,), y=(summary.mean,), summaries=(summary,)
        )
        csv = to_csv("x", [s])
        assert "sim_ci" in csv.splitlines()[0]
        assert repr(summary.ci_halfwidth) in csv

    def test_csv_infinities_and_commas(self):
        from repro.sim import to_csv

        s = Series(label="a,b", x=(1.0,), y=(float("inf"),))
        csv = to_csv("p", [s])
        assert "a;b" in csv and "inf" in csv

    def test_csv_requires_shared_grid(self):
        from repro.sim import to_csv

        with pytest.raises(SimulationError):
            to_csv(
                "x",
                [
                    Series(label="a", x=(1.0,), y=(1.0,)),
                    Series(label="b", x=(2.0,), y=(1.0,)),
                ],
            )

    def test_csv_roundtrips_through_float(self):
        from repro.sim import to_csv

        value = 190.456789123
        s = Series(label="v", x=(1.0,), y=(value,))
        csv = to_csv("x", [s])
        parsed = float(csv.splitlines()[1].split(",")[1])
        assert parsed == value  # repr() preserves the exact float
