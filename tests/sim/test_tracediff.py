"""The event-trace differ: comparison logic and run-to-run determinism.

Divergence detection and report formatting are pinned on hand-built
streams; the end-to-end use — a real scenario traced twice — checks that
two runs of one spec dispatch the same stream.
"""

import pytest

from repro.sim.tracediff import (
    DiffReport,
    Divergence,
    diff_streams,
    first_divergence,
    format_report,
    trace_scenario,
)


def entry(t, seq, name="Timeout"):
    return (t, 1, seq, name)


def diff_two_runs(spec):
    """Trace ``spec`` twice and compare the two dispatch streams."""
    return diff_streams(
        spec.name,
        ("first run", "second run"),
        trace_scenario(spec),
        trace_scenario(spec),
    )


class TestFirstDivergence:
    def test_equal_streams(self):
        stream = [entry(0.1, 1), entry(0.2, 2)]
        assert first_divergence(stream, list(stream)) is None

    def test_empty_streams_are_equal(self):
        assert first_divergence([], []) is None

    def test_mismatched_entry_reported_at_index(self):
        left = [entry(0.1, 1), entry(0.2, 2), entry(0.3, 3)]
        right = [entry(0.1, 1), entry(0.2, 2, "Event"), entry(0.3, 3)]
        div = first_divergence(left, right)
        assert div == Divergence(index=1, left=left[1], right=right[1])

    def test_prefix_diverges_at_shorter_length(self):
        left = [entry(0.1, 1)]
        right = [entry(0.1, 1), entry(0.2, 2)]
        div = first_divergence(left, right)
        assert div == Divergence(index=1, left=None, right=right[1])

    def test_prefix_other_direction(self):
        left = [entry(0.1, 1), entry(0.2, 2)]
        div = first_divergence(left, [entry(0.1, 1)])
        assert div == Divergence(index=1, left=left[1], right=None)


class TestFormatReport:
    def _report(self, divergence, counts=(3, 3), context=((), ())):
        return DiffReport(
            scenario="demo",
            labels=("first run", "second run"),
            counts=counts,
            divergence=divergence,
            context=context,
        )

    def test_clean_report(self):
        report = self._report(None)
        assert report.equal
        text = format_report(report)
        assert "identical streams" in text
        assert "demo" in text

    def test_divergent_report_names_index_and_sides(self):
        div = Divergence(index=1, left=entry(0.2, 2), right=entry(0.3, 2))
        report = self._report(
            div, counts=(3, 4), context=((entry(0.1, 1),), (entry(0.1, 1),))
        )
        assert not report.equal
        text = format_report(report)
        assert "DIVERGE at dispatch #1" in text
        assert "stream length 3" in text
        assert "stream length 4" in text
        assert "context (first run)" in text
        assert "context (second run)" in text


class TestTraceScenario:
    def test_rejects_non_scenario(self):
        with pytest.raises(TypeError, match="name or ScenarioSpec"):
            trace_scenario(42)

    def test_two_runs_of_one_spec_report_equal(self):
        from repro.scenarios import REGISTRY

        spec = REGISTRY.build("quickstart").with_run(duration_s=0.2)
        report = diff_two_runs(spec)
        assert report.scenario == "quickstart"
        assert report.labels == ("first run", "second run")
        assert report.equal
        assert report.counts[0] == report.counts[1] > 0

    def test_divergent_streams_carry_context_window(self):
        import repro.sim.tracediff as tracediff

        first = [entry(0.1 * i, i) for i in range(20)]
        second = list(first)
        second[12] = entry(1.2, 12, "Event")
        report = diff_streams("demo", ("first run", "second run"), first, second)
        assert report.divergence == Divergence(
            index=12, left=first[12], right=second[12]
        )
        k = tracediff._CONTEXT
        assert report.context == (
            tuple(first[12 - k : 13 + k]),
            tuple(second[12 - k : 13 + k]),
        )
        assert report.counts == (20, 20)
        assert "DIVERGE at dispatch #12" in format_report(report)


@pytest.mark.parametrize(
    "scenario, duration",
    [("quickstart", 1.0), ("multiost", 0.5), ("burst-storm", 0.5)],
)
def test_scenarios_dispatch_identical_streams(scenario, duration):
    from repro.scenarios import REGISTRY

    spec = REGISTRY.build(scenario).with_run(duration_s=duration)
    report = diff_two_runs(spec)
    assert report.equal, format_report(report)
    assert report.counts[0] > 1000  # the run actually did work
