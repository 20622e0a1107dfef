"""The stdlib series and resample mean match the numpy code they replaced.

``Timeline.series``/``aggregate_series`` and ``format_series`` used numpy
arrays; they now return and take lists.  These differential tests hold the
stdlib versions to the old numpy formulas bit for bit, so the figure CSVs
and the ``format_series`` lines of ``run fig3`` etc. cannot move.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.tables import pairwise_sum
from repro.metrics.timeline import MIB, Timeline

np = pytest.importorskip("numpy")


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


finite = st.floats(
    min_value=-1e300, max_value=1e300, allow_nan=False, allow_infinity=False
)
throughputs = st.floats(min_value=0.0, max_value=1e5, allow_nan=False)


@settings(max_examples=400, deadline=None)
@given(
    values=st.lists(st.one_of(finite, throughputs), min_size=0, max_size=400),
    start=st.integers(0, 400),
    stop=st.integers(0, 400),
)
def test_pairwise_sum_is_numpy_sum_and_mean(values, start, stop):
    """Whole lists and contiguous slices, as ``format_series`` takes them."""
    for chunk in (values, values[start:stop]):
        array = np.array(chunk, dtype=np.float64)
        assert bits([pairwise_sum(chunk)]) == bits([np.sum(array)])
        if chunk:
            mean = pairwise_sum(chunk) / len(chunk)
            assert bits([mean]) == bits([np.mean(array)])


def numpy_series(timeline, job_id, until=None):
    """``Timeline.series`` as it was written with numpy."""
    horizon = timeline._last_time if until is None else until
    n = max(1, int(np.ceil(horizon / timeline.bin_s)))
    times = np.arange(n) * timeline.bin_s
    values = np.zeros(n)
    for index, nbytes in timeline._bins.get(job_id, {}).items():
        if index < n:
            values[index] = nbytes
    return times, values / (timeline.bin_s * MIB)


def numpy_aggregate_series(timeline, until=None):
    """``Timeline.aggregate_series`` as it was written with numpy."""
    horizon = timeline._last_time if until is None else until
    n = max(1, int(np.ceil(horizon / timeline.bin_s)))
    times = np.arange(n) * timeline.bin_s
    values = np.zeros(n)
    for job in timeline._bins:
        _, series = numpy_series(timeline, job, until=horizon)
        values[: len(series)] += series
    return times, values


records = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", "d"]),
        st.floats(min_value=0.0, max_value=30.0),
        st.one_of(
            st.integers(0, 1 << 30), st.floats(min_value=0.0, max_value=1e12)
        ),
    ),
    max_size=120,
)


@settings(max_examples=300, deadline=None)
@given(
    records=records,
    bin_s=st.one_of(
        st.sampled_from([0.01, 0.02, 0.05, 0.1, 0.25, 1.0]),
        st.floats(min_value=0.01, max_value=3.0),
    ),
    until=st.one_of(st.none(), st.floats(min_value=0.0, max_value=40.0)),
)
def test_series_match_the_numpy_formulas(records, bin_s, until):
    timeline = Timeline(bin_s=bin_s)
    for job, time, nbytes in records:
        timeline.record(job, time, nbytes)
    for job in ["a", "b", "c", "d", "ghost"]:
        times, values = timeline.series(job, until=until)
        old_times, old_values = numpy_series(timeline, job, until=until)
        assert isinstance(values, list)
        assert bits(times) == old_times.tobytes()
        assert bits(values) == old_values.tobytes()
    times, values = timeline.aggregate_series(until=until)
    old_times, old_values = numpy_aggregate_series(timeline, until=until)
    assert bits(times) == old_times.tobytes()
    assert bits(values) == old_values.tobytes()
