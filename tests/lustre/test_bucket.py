"""Unit tests for the continuous-time token bucket."""

import itertools
import math

import pytest

from repro.lustre.bucket import TokenBucket


def test_starts_full_by_default():
    b = TokenBucket(rate=10.0, depth=3.0, now=0.0)
    assert b.tokens_at(0.0) == 3.0


def test_initial_tokens_clamped_to_depth():
    b = TokenBucket(rate=10.0, depth=3.0, tokens=100.0)
    assert b.tokens_at(0.0) == 3.0


def test_accrual_is_linear_until_depth():
    b = TokenBucket(rate=2.0, depth=10.0, tokens=0.0, now=0.0)
    assert b.tokens_at(1.0) == pytest.approx(2.0)
    assert b.tokens_at(4.0) == pytest.approx(8.0)
    assert b.tokens_at(100.0) == 10.0  # capped at depth


def test_consume_success_and_failure():
    b = TokenBucket(rate=1.0, depth=3.0, tokens=1.0, now=0.0)
    assert b.try_consume(0.0)
    assert not b.try_consume(0.0)
    assert b.try_consume(1.0)  # one token re-accrued


def test_consume_multiple_tokens():
    b = TokenBucket(rate=0.0, depth=5.0, tokens=5.0, now=0.0)
    assert b.try_consume(0.0, n=3)
    assert b.tokens_at(0.0) == pytest.approx(2.0)
    assert not b.try_consume(0.0, n=3)


def test_ready_at_now_when_token_available():
    b = TokenBucket(rate=1.0, depth=3.0, tokens=2.0, now=0.0)
    assert b.ready_at(5.0) == 5.0


def test_ready_at_future_when_token_pending():
    b = TokenBucket(rate=2.0, depth=3.0, tokens=0.0, now=0.0)
    assert b.ready_at(0.0) == pytest.approx(0.5)


def test_ready_at_inf_when_rate_zero_and_empty():
    b = TokenBucket(rate=0.0, depth=3.0, tokens=0.0, now=0.0)
    assert b.ready_at(0.0) == math.inf


def test_ready_at_inf_when_n_exceeds_depth():
    b = TokenBucket(rate=10.0, depth=3.0)
    assert b.ready_at(0.0, n=4) == math.inf


def test_set_rate_preserves_accrued_tokens():
    b = TokenBucket(rate=2.0, depth=10.0, tokens=0.0, now=0.0)
    b.set_rate(2.0, 100.0)  # had accrued 4 tokens by t=2
    assert b.tokens_at(2.0) == pytest.approx(4.0)
    assert b.tokens_at(2.01) == pytest.approx(5.0)


def test_rate_zero_freezes_bucket():
    b = TokenBucket(rate=2.0, depth=10.0, tokens=0.0, now=0.0)
    b.set_rate(1.0, 0.0)
    assert b.tokens_at(100.0) == pytest.approx(2.0)


def test_time_going_backwards_rejected():
    b = TokenBucket(rate=1.0, depth=3.0, now=10.0)
    with pytest.raises(ValueError):
        b.tokens_at(5.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"rate": -1.0},
        {"rate": 1.0, "depth": 0.0},
        {"rate": 1.0, "depth": -2.0},
        {"rate": 1.0, "tokens": -1.0},
        {"rate": math.nan},
        {"rate": 1.0, "depth": math.nan},
        {"rate": 1.0, "tokens": math.nan},
        {"rate": 1.0, "now": math.nan},
    ],
)
def test_invalid_construction(kwargs):
    with pytest.raises(ValueError):
        TokenBucket(**kwargs)


def test_invalid_consume_count():
    b = TokenBucket(rate=1.0, depth=3.0)
    with pytest.raises(ValueError):
        b.try_consume(0.0, n=0)
    with pytest.raises(ValueError):
        b.ready_at(0.0, n=0)


def test_rate_compliance_over_window():
    """Served tokens over [0, T] can never exceed depth + rate*T."""
    b = TokenBucket(rate=5.0, depth=3.0, now=0.0)
    served = 0
    t = 0.0
    while t <= 10.0:
        if b.try_consume(t):
            served += 1
        t += 0.01
    assert served <= 3 + 5 * 10.0 + 1e-6
    # And the bucket is work-conserving down to quantisation: it should have
    # served nearly the full budget given constant pressure.
    assert served >= 5 * 10.0 - 1


@pytest.mark.parametrize(
    "rate, depth, tokens",
    [
        (5.0, 3.0, None),
        (977.31, 5.0, 0.25),
        (0.0, 1.0, 0.0),
        (1e6, 64.0, 0.0),
    ],
)
def test_inlined_accrual_matches_tokens_at_exactly(rate, depth, tokens):
    """``ready_at``/``try_consume`` inline ``tokens_at``'s arithmetic; their
    decisions and the level they leave behind must agree bit-for-bit."""
    b = TokenBucket(rate=rate, depth=depth, tokens=tokens, now=0.0)
    for step in range(1, 40):
        now = step * 0.0137
        have = b.tokens_at(now)
        ready = b.ready_at(now)
        if have + 1e-9 >= 1:
            assert ready == now
        elif b.rate == 0.0:
            assert ready == math.inf
        else:
            assert ready == now + (1 - have) / b.rate
        consumed = b.try_consume(now)
        assert consumed == (ready == now)
        assert b.tokens_at(now) == (max(0.0, have - 1) if consumed else have)
        if step % 7 == 0:
            b.set_rate(now, rate * (step % 3))


def test_set_rate_returns_the_ready_at_deadline():
    """A re-rate takes its next deadline from ``set_rate``; it must be the
    one ``ready_at`` gives right after, bit for bit: ready now, in the
    future, never (rate 0 or a depth under one token) and overflowing."""
    for old_rate, new_rate, depth, tokens, elapsed in itertools.product(
        (0.0, 2.5, math.inf),
        (0.0, 5e-324, 2.5, 977.31, math.inf),
        (0.5, 1.0, 3.0),
        (0.0, 0.4, 1 - 1e-10, 3.0),
        (0.0, 0.13),
    ):
        b = TokenBucket(rate=old_rate, depth=depth, tokens=tokens, now=1.0)
        now = 1.0 + elapsed
        assert b.set_rate(now, new_rate) == b.ready_at(now)


def test_error_messages_name_the_fault():
    b = TokenBucket(rate=1.0, depth=3.0, tokens=1.0, now=5.0)
    # NaN fails every comparison: a NaN time must be refused, or it would
    # settle `last = nan` and the next call would read a full bucket.
    for then in (1.0, math.nan):
        for call in (
            lambda: b.tokens_at(then),
            lambda: b.ready_at(then),
            lambda: b.try_consume(then),
            lambda: b.set_rate(then, 2.0),
        ):
            with pytest.raises(ValueError, match="time went backwards"):
                call()
    assert b.tokens_at(6.0) == 2.0  # the rejected calls changed nothing
    with pytest.raises(ValueError, match="n must be positive"):
        b.try_consume(6.0, n=-1)
    # Over-depth requests are impossible rather than an error.
    assert b.ready_at(6.0, n=99) == math.inf


@pytest.mark.parametrize("now", [math.inf, -math.inf])
def test_infinite_creation_time_rejected(now):
    # `inf - inf` is NaN and `min(depth, nan)` is `depth`: an empty bucket
    # made at `inf` used to grant every `try_consume(inf)`.
    with pytest.raises(ValueError, match=f"^now must be finite, got {now}$"):
        TokenBucket(rate=1.0, depth=3.0, tokens=0.0, now=now)


def test_infinite_time_rejected_by_every_call():
    b = TokenBucket(rate=1.0, depth=3.0, tokens=0.0, now=5.0)
    for call in (
        lambda: b.tokens_at(math.inf),
        lambda: b.ready_at(math.inf),
        lambda: b.try_consume(math.inf),
        lambda: b.set_rate(math.inf, 1.0),
    ):
        with pytest.raises(ValueError, match="^now must be finite, got inf$"):
            call()
    assert b.rate == 1.0
    assert b.tokens_at(6.0) == 1.0  # the rejected calls changed nothing


def test_rejected_set_rate_leaves_bucket_unchanged():
    for rate in (-2.0, math.nan):
        b = TokenBucket(rate=2.0, depth=10.0, tokens=0.0, now=0.0)
        with pytest.raises(ValueError, match="rate must be >= 0"):
            b.set_rate(1.0, rate)
        assert b.rate == 2.0
        assert b.tokens_at(2.0) == pytest.approx(4.0)
