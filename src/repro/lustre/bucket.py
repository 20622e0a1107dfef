"""Continuous-time token bucket.

This is the primitive underneath each TBF queue (paper §II-A): tokens accrue
at ``rate`` tokens/second up to ``depth`` tokens; serving one RPC consumes one
token; excess accrual beyond the depth is discarded, which is what bounds
bursts.  The bucket is *lazy O(1) accrual* — token state is materialised from
``rate × elapsed`` only when observed (when the TBF policy polls, in
practice), so it costs nothing between events and there is no per-tick
replenishment loop.

The accrual ``min(depth, tokens + rate × (now − last))`` and the deadline
that follows from it are written out, with the same expressions and so
bit-identical floats, in every place that runs them:

* :meth:`TokenBucket.tokens_at`, the reference form;
* :meth:`TokenBucket.ready_at`, called by an enqueue that makes a ruled
  queue non-empty;
* :meth:`TokenBucket.try_consume`;
* :meth:`TokenBucket.set_rate`, called once per rule re-rate by
  :meth:`~repro.lustre.nrs.TbfPolicy.change_rates` (a control round
  re-rates its live rules); it writes the ``min`` as a comparison, which
  picks the same float, and returns the re-rated queue's next deadline as
  ``ready_at`` would compute it;
* :meth:`repro.lustre.nrs.TbfPolicy.poll`, which runs ``ready_at`` and
  ``try_consume`` on a bucket's fields itself, once per heap step and once
  more right after a take.

A change to the arithmetic here must be made in each of them.
"""

from __future__ import annotations

import math

__all__ = ["TokenBucket"]

#: Tolerance for floating-point token arithmetic.  One part in 10^9 of a
#: token is far below anything the allocation algorithm can produce.
_EPS = 1e-9

_INF = math.inf


def _bad_time(now: float, last: float) -> ValueError:
    """The error for a time check ``last <= now < inf`` that failed."""
    if now >= last:  # only +inf passes this and fails the check
        return ValueError(f"now must be finite, got {now}")
    return ValueError(f"time went backwards: {now} < {last}")


class TokenBucket:
    """A token bucket with runtime-adjustable rate.

    Parameters
    ----------
    rate:
        Token accrual rate in tokens/second.  May be zero (bucket never
        refills — queue is blocked until the rate is raised).
    depth:
        Maximum tokens the bucket can hold.  Lustre's TBF default is 3,
        which we inherit.
    tokens:
        Initial fill; defaults to a full bucket, matching Lustre's behaviour
        of allowing an immediate small burst on rule creation.
    now:
        Creation timestamp (simulated seconds).  This and every time
        passed later must be finite.
    """

    __slots__ = ("_rate", "depth", "_tokens", "_last")

    def __init__(
        self,
        rate: float,
        depth: float = 3.0,
        tokens: float | None = None,
        now: float = 0.0,
    ) -> None:
        # Negated comparisons, here and in every time check below, so that
        # NaN, which fails every comparison, is rejected too (a NaN level or
        # timestamp would read as a full bucket).  An infinite timestamp
        # would too (``inf - inf`` is NaN), so every time must be finite.
        if not rate >= 0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        if not depth > 0:
            raise ValueError(f"depth must be > 0, got {depth}")
        self._rate = float(rate)
        self.depth = float(depth)
        self._tokens = self.depth if tokens is None else min(float(tokens), self.depth)
        if not self._tokens >= 0:
            raise ValueError(f"initial tokens must be >= 0, got {tokens}")
        if not -_INF < now < _INF:
            raise ValueError(f"now must be finite, got {now}")
        self._last = float(now)

    # -- observation ---------------------------------------------------------
    @property
    def rate(self) -> float:
        """Current accrual rate (tokens/second)."""
        return self._rate

    def tokens_at(self, now: float) -> float:
        """Token level at time ``now`` without mutating state."""
        if not self._last <= now < _INF:
            raise _bad_time(now, self._last)
        return min(self.depth, self._tokens + self._rate * (now - self._last))

    def ready_at(self, now: float, n: int = 1) -> float:
        """Earliest time ≥ ``now`` at which ``n`` tokens will be available.

        Returns ``inf`` when the rate is zero and the bucket holds fewer than
        ``n`` tokens (it can never refill).
        """
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if n > self.depth + _EPS:
            # The bucket can never simultaneously hold this many tokens.
            return math.inf
        if not self._last <= now < _INF:
            raise _bad_time(now, self._last)
        have = min(self.depth, self._tokens + self._rate * (now - self._last))
        if have + _EPS >= n:
            return now
        if self._rate == 0.0:
            return math.inf
        return now + (n - have) / self._rate

    # -- mutation --------------------------------------------------------------
    def try_consume(self, now: float, n: int = 1) -> bool:
        """Consume ``n`` tokens if available at ``now``; report success."""
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if not self._last <= now < _INF:
            raise _bad_time(now, self._last)
        tokens = min(self.depth, self._tokens + self._rate * (now - self._last))
        self._last = now
        if tokens + _EPS >= n:
            self._tokens = max(0.0, tokens - n)
            return True
        self._tokens = tokens
        return False

    def set_rate(self, now: float, rate: float) -> float:
        """Change the accrual rate, settling accrued tokens first.

        Tokens already in the bucket are kept (the paper's rule *changes* do
        not reset buckets); only the future accrual slope changes.  Returns
        ``ready_at(now)`` under the new rate, so a policy re-rating a queue
        gets its next deadline from the same call.
        """
        if not rate >= 0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        last = self._last
        if not last <= now < _INF:
            raise _bad_time(now, last)
        depth = self.depth
        # min(depth, accrued) as a comparison, which picks the same float
        # (depth unless the accrued level is below it, NaN included) without
        # a builtin call: a round re-rates every live rule.
        tokens = self._tokens + self._rate * (now - last)
        if not tokens < depth:
            tokens = depth
        self._tokens = tokens
        self._last = now
        rate = self._rate = float(rate)
        # ready_at(now): no time has passed since the settle, so the level
        # is `tokens` (ready_at reads `depth` under an infinite rate, which
        # yields the same deadline).
        if tokens + _EPS >= 1:
            return now
        if rate == 0.0 or 1 > depth + _EPS:
            return _INF
        return now + (1 - tokens) / rate

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TokenBucket(rate={self._rate}, depth={self.depth}, "
            f"tokens={self._tokens:.3f}@{self._last:.6f})"
        )
