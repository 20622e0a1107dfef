"""Data-path inputs that a bare ``<= 0`` check let through.

A NaN fails every comparison, so ``window <= 0`` passed it, and a NaN
window sent no RPC and ended the run at t = 0 with the client
unfinished and no error.  A NaN size or bin built fine and failed mid-run
(``cannot convert float NaN to integer``), and an infinite volume raised
``OverflowError``.  Each is now a one-line ``ValueError`` naming the
argument, raised where the value is given: counts must be ints (not
bools), sizes and bins finite and positive.
"""

import math

import pytest

from repro.lustre import ClientProcess, FifoPolicy, IoHandle
from repro.lustre.striping import StripeLayout
from repro.metrics.timeline import Timeline
from repro.sim import Environment
from repro.workloads.patterns import SequentialWritePattern
from repro.workloads.spec import ProcessSpec

MB = 1 << 20
NAN = float("nan")


def _one_line(excinfo, name):
    message = str(excinfo.value)
    assert "\n" not in message and name in message


@pytest.mark.parametrize("window", [NAN, 2.5, True])
def test_process_spec_window_must_be_a_count(window):
    with pytest.raises(ValueError) as excinfo:
        ProcessSpec(SequentialWritePattern(MB), window=window)
    _one_line(excinfo, "window")


@pytest.mark.parametrize("window", [NAN, 2.5, True])
def test_client_window_must_be_a_count(make_stack, seq, window):
    env = Environment()
    _, _, oss, net = make_stack(env, FifoPolicy)
    with pytest.raises(ValueError) as excinfo:
        ClientProcess(env, net, oss, "job1", "c0", seq(MB), window=window)
    _one_line(excinfo, "window")


@pytest.mark.parametrize("rpc_size", [NAN, float(MB), True, 0])
def test_rpc_size_must_be_a_count(make_stack, rpc_size):
    env = Environment()
    _, _, oss, net = make_stack(env, FifoPolicy)
    with pytest.raises(ValueError) as excinfo:
        IoHandle(env, net, oss, "job1", "c0", rpc_size=rpc_size)
    _one_line(excinfo, "rpc_size")


@pytest.mark.parametrize("total_bytes", [NAN, math.inf])
def test_write_volume_must_be_finite_and_positive(make_stack, total_bytes):
    env = Environment()
    _, _, oss, net = make_stack(env, FifoPolicy)
    io = IoHandle(env, net, oss, "job1", "c0")
    with pytest.raises(ValueError) as excinfo:
        next(io.write(total_bytes))
    _one_line(excinfo, "total_bytes")
    assert io.rpcs_issued == 0


@pytest.mark.parametrize("stripe_size", [NAN, math.inf, 0.5])
def test_stripe_size_must_be_finite_and_at_least_one_byte(
    make_multi_ost_stack, stripe_size
):
    env = Environment()
    _, osses, _ = make_multi_ost_stack(env)
    with pytest.raises(ValueError) as excinfo:
        StripeLayout(osses, stripe_size=stripe_size)
    _one_line(excinfo, "stripe_size")


@pytest.mark.parametrize("bin_s", [NAN, math.inf])
def test_timeline_bin_must_be_finite_and_positive(bin_s):
    with pytest.raises(ValueError) as excinfo:
        Timeline(bin_s=bin_s)
    _one_line(excinfo, "bin_s")


def test_timeline_rejects_a_nan_payload():
    timeline = Timeline()
    with pytest.raises(ValueError) as excinfo:
        timeline.record("job1", 0.05, NAN)
    _one_line(excinfo, "nbytes")
    assert timeline.total_bytes() == 0.0
