"""Unit tests for timelines, summaries and table rendering."""

import pytest

from repro.metrics.summary import gains_versus, summarize
from repro.metrics.tables import format_gains, format_series, format_table
from repro.metrics.timeline import Timeline

MIB = 1 << 20


class TestTimeline:
    def test_bins_accumulate_bytes(self):
        tl = Timeline(bin_s=0.1)
        tl.record("j1", 0.05, 10 * MIB)
        tl.record("j1", 0.07, 10 * MIB)
        tl.record("j1", 0.15, 5 * MIB)
        times, values = tl.series("j1")
        assert values[0] == pytest.approx(200.0)  # 20 MiB in 0.1 s
        assert values[1] == pytest.approx(50.0)

    def test_series_zero_filled_to_horizon(self):
        tl = Timeline(bin_s=0.1)
        tl.record("j1", 0.95, MIB)
        times, values = tl.series("j1")
        assert len(values) == 10
        assert sum(1 for v in values if v) == 1

    def test_series_for_unknown_job_is_zero(self):
        tl = Timeline(bin_s=0.1)
        tl.record("j1", 0.5, MIB)
        _, values = tl.series("ghost")
        assert sum(values) == 0.0

    def test_aggregate_sums_jobs(self):
        tl = Timeline(bin_s=0.1)
        tl.record("a", 0.05, MIB)
        tl.record("b", 0.05, 3 * MIB)
        _, agg = tl.aggregate_series()
        assert agg[0] == pytest.approx(40.0)

    def test_total_bytes_and_mean(self):
        tl = Timeline(bin_s=0.1)
        tl.record("a", 0.5, 10 * MIB)
        tl.record("b", 1.0, 10 * MIB)
        assert tl.total_bytes() == 20 * MIB
        assert tl.total_bytes("a") == 10 * MIB
        assert tl.mean_throughput(duration=2.0) == pytest.approx(10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Timeline(bin_s=0)
        tl = Timeline()
        with pytest.raises(ValueError):
            tl.record("j", 0.0, -1)


class TestSummaries:
    def test_per_job_span_is_completion_time(self):
        tl = Timeline(bin_s=0.1)
        # Both jobs write 100 MiB; j1 finishes at 1 s, j2 at 4 s.
        for t in (0.05 + i * 0.1 for i in range(10)):
            tl.record("j1", t, 10 * MIB)
        for t in (0.05 + i * 0.1 for i in range(40)):
            tl.record("j2", t, 2.5 * MIB)
        summary = summarize(
            "x",
            tl,
            duration_s=4.0,
            jobs=["j1", "j2"],
            job_completion_s={"j1": 1.0, "j2": 4.0},
        )
        assert summary.job("j1") == pytest.approx(100.0)
        assert summary.job("j2") == pytest.approx(25.0)
        # Aggregate over the whole run: 200 MiB / 4 s.
        assert summary.aggregate_mib_s == pytest.approx(50.0)

    def test_unfinished_job_uses_full_duration(self):
        tl = Timeline(bin_s=0.1)
        tl.record("j1", 0.5, 10 * MIB)
        summary = summarize("x", tl, duration_s=10.0, jobs=["j1"])
        assert summary.job("j1") == pytest.approx(1.0)

    def test_gains_computation(self):
        tl = Timeline(bin_s=0.1)
        tl.record("a", 0.5, 20 * MIB)
        tl.record("b", 0.5, 10 * MIB)
        subject = summarize("s", tl, duration_s=1.0)
        tl2 = Timeline(bin_s=0.1)
        tl2.record("a", 0.5, 10 * MIB)
        tl2.record("b", 0.5, 20 * MIB)
        baseline = summarize("b", tl2, duration_s=1.0)
        gains = gains_versus(subject, baseline)
        assert gains["a"] == pytest.approx(100.0)
        assert gains["b"] == pytest.approx(-50.0)
        assert gains["aggregate"] == pytest.approx(0.0)

    def test_gain_against_zero_baseline_is_inf(self):
        tl = Timeline(bin_s=0.1)
        tl.record("a", 0.5, MIB)
        subject = summarize("s", tl, duration_s=1.0)
        empty = Timeline(bin_s=0.1)
        empty.record("b", 0.5, MIB)
        baseline = summarize("b", empty, duration_s=1.0)
        gains = gains_versus(subject, baseline)
        assert gains["a"] == float("inf")

    def test_zero_duration_rejected(self):
        with pytest.raises(ValueError):
            summarize("x", Timeline(), duration_s=0.0)


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(
            ["name", "value"], [["a", 1.234], ["bb", 10.0]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert "1.2" in text and "10.0" in text

    def test_format_table_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text

    def test_format_series_shape(self):
        times = [i * 0.1 for i in range(30)]
        values = [50.0] * 30
        text = format_series("job", times, values, resample_s=1.0)
        assert text.count("t=") == 3
        assert "#" in text

    def test_format_series_empty(self):
        assert "empty" in format_series("job", [], [])

    def test_format_gains_places_aggregate_last(self):
        text = format_gains({"b": 1.0, "a": 2.0, "aggregate": 3.0}, "G")
        lines = text.splitlines()
        assert lines[-1].startswith("aggregate")
