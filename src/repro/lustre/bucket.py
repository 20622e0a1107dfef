"""Continuous-time token bucket.

This is the primitive underneath each TBF queue (paper §II-A): tokens accrue
at ``rate`` tokens/second up to ``depth`` tokens; serving one RPC consumes one
token; excess accrual beyond the depth is discarded, which is what bounds
bursts.  The bucket is *lazy O(1) accrual* — token state is materialised from
``rate × elapsed`` only when observed (at dequeue time, in practice), so it
costs nothing between events and there is no per-tick replenishment loop.
``ready_at``/``try_consume`` are called once per scheduler poll and
``set_rate`` once per rule re-rate, so all three inline the accrual
arithmetic instead of delegating to :meth:`tokens_at` (same expressions, so
the float results are bit-identical).
"""

from __future__ import annotations

import math

__all__ = ["TokenBucket"]

#: Tolerance for floating-point token arithmetic.  One part in 10^9 of a
#: token is far below anything the allocation algorithm can produce.
_EPS = 1e-9


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
        Creation timestamp (simulated seconds).
    """

    __slots__ = ("_rate", "depth", "_tokens", "_last")

    def __init__(
        self,
        rate: float,
        depth: float = 3.0,
        tokens: float | None = None,
        now: float = 0.0,
    ) -> None:
        if rate < 0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        if depth <= 0:
            raise ValueError(f"depth must be > 0, got {depth}")
        self._rate = float(rate)
        self.depth = float(depth)
        self._tokens = self.depth if tokens is None else min(float(tokens), self.depth)
        if self._tokens < 0:
            raise ValueError(f"initial tokens must be >= 0, got {tokens}")
        self._last = float(now)

    # -- observation ---------------------------------------------------------
    @property
    def rate(self) -> float:
        """Current accrual rate (tokens/second)."""
        return self._rate

    def tokens_at(self, now: float) -> float:
        """Token level at time ``now`` without mutating state."""
        if now < self._last:
            raise ValueError(f"time went backwards: {now} < {self._last}")
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
        if now < self._last:
            raise ValueError(f"time went backwards: {now} < {self._last}")
        have = min(self.depth, self._tokens + self._rate * (now - self._last))
        if have + _EPS >= n:
            return now
        if self._rate == 0.0:
            return math.inf
        return now + (n - have) / self._rate

    # -- mutation --------------------------------------------------------------
    def _sync(self, now: float) -> None:
        self._tokens = self.tokens_at(now)
        self._last = now

    def try_consume(self, now: float, n: int = 1) -> bool:
        """Consume ``n`` tokens if available at ``now``; report success."""
        if n <= 0:
            raise ValueError(f"n must be positive, got {n}")
        if now < self._last:
            raise ValueError(f"time went backwards: {now} < {self._last}")
        tokens = min(self.depth, self._tokens + self._rate * (now - self._last))
        self._last = now
        if tokens + _EPS >= n:
            self._tokens = max(0.0, tokens - n)
            return True
        self._tokens = tokens
        return False

    def set_rate(self, now: float, rate: float) -> None:
        """Change the accrual rate, settling accrued tokens first.

        Tokens already in the bucket are kept (the paper's rule *changes* do
        not reset buckets); only the future accrual slope changes.
        """
        if rate < 0:
            raise ValueError(f"rate must be >= 0, got {rate}")
        if now < self._last:
            raise ValueError(f"time went backwards: {now} < {self._last}")
        self._tokens = min(self.depth, self._tokens + self._rate * (now - self._last))
        self._last = now
        self._rate = float(rate)

    def drain(self, now: float) -> float:
        """Empty the bucket and return how many tokens were discarded."""
        self._sync(now)
        dropped, self._tokens = self._tokens, 0.0
        return dropped

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TokenBucket(rate={self._rate}, depth={self.depth}, "
            f"tokens={self._tokens:.3f}@{self._last:.6f})"
        )
