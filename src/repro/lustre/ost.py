"""Object Storage Target: a processor-sharing bandwidth server.

Models the OST disk as a fluid-flow resource: ``capacity_bps`` bytes/second
split evenly across all in-flight transfers.  This is the standard fluid
approximation for a saturated storage device and preserves the property the
experiments depend on — aggregate service rate equals ``capacity_bps``
whenever any work is queued, regardless of concurrency.

The implementation is event-driven: transfer completions are pre-computed and
re-computed whenever the set of active transfers changes.  The completion
check is a calendar call; each re-computation lazily cancels the previous
one (:meth:`~repro.sim.engine.Environment.cancel_call`), so superseded checks
are skipped by the engine instead of dispatching as no-ops.  A finished or
aborted transfer hands off through a call of its ``on_done`` or
``on_abort`` callback, pushed where the completion check or the crash finds
it.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment

__all__ = ["Ost"]

_EPS_BYTES = 1e-6

#: A transfer's hand-off: ``(on_done, on_abort, value)``.
_HandOff = Tuple[Callable[[Any], None], Callable[[Any], None], Any]


class Ost:
    """One Object Storage Target with finite disk bandwidth.

    Parameters
    ----------
    env:
        Simulation environment.
    name:
        Identifier (e.g. ``"OST0000"``), used in stats and diagnostics.
    capacity_bps:
        Disk bandwidth in bytes/second, shared by concurrent transfers.
        Kept as :attr:`rated_capacity_bps` when a fault later rescales
        :attr:`capacity_bps`.

    Notes
    -----
    The maximum token rate ``T_i`` the paper assigns an OST (Table I) maps to
    ``capacity_bps / rpc_size``: with 1 MiB RPCs, a 1 GiB/s OST supports
    1024 tokens/s of sustained service.
    """

    __slots__ = (
        "env",
        "name",
        "capacity_bps",
        "rated_capacity_bps",
        "_remaining",
        "_sizes",
        "_hand_offs",
        "_ids",
        "_last",
        "_check_call",
        "_on_check_cb",
        "_bytes_served",
    )

    def __init__(self, env: "Environment", name: str, capacity_bps: float) -> None:
        if capacity_bps <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bps}")
        self.env = env
        self.name = name
        self.capacity_bps = self.rated_capacity_bps = float(capacity_bps)
        self._remaining: Dict[int, float] = {}  # transfer id -> bytes left
        self._sizes: Dict[int, float] = {}  # transfer id -> original bytes
        self._hand_offs: Dict[int, _HandOff] = {}
        self._ids = itertools.count()
        self._last = env.now
        #: Handle of the pending completion-check call, if any.
        self._check_call: Optional[int] = None
        self._on_check_cb = self._on_check  # cache the bound method
        self._bytes_served = 0.0

    # -- public API ---------------------------------------------------------
    def transfer(
        self,
        nbytes: float,
        value: Any,
        on_done: Callable[[Any], None],
        on_abort: Callable[[Any], None],
    ) -> None:
        """Begin a transfer of ``nbytes``.

        When it finishes, ``on_done(value)`` is pushed as a call at that
        instant; when a crash aborts it first (:meth:`fail_inflight`),
        ``on_abort(value)`` is pushed instead.
        """
        if nbytes <= 0:
            raise ValueError(f"transfer size must be positive, got {nbytes}")
        self._advance(self.env.now)
        tid = next(self._ids)
        self._remaining[tid] = float(nbytes)
        self._sizes[tid] = float(nbytes)
        self._hand_offs[tid] = (on_done, on_abort, value)
        self._reschedule()

    def set_capacity(self, capacity_bps: float) -> None:
        """Change the disk bandwidth at runtime.

        Models degraded media / RAID rebuild / contention from scrubbing:
        in-flight transfers finish at the new rate from this instant.  The
        AdapTBF controller does not observe capacity directly — it keeps
        allocating ``T_i`` tokens — so this is the failure-injection hook
        for testing behaviour when tokens outrun the disk.
        """
        if capacity_bps <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_bps}")
        self._advance(self.env.now)
        self.capacity_bps = float(capacity_bps)
        self._reschedule()

    def fail_inflight(self) -> int:
        """Abort every in-flight transfer: push its ``on_abort`` call.

        The crash path of the fault axis.  Partially-served bytes are
        discarded (they never reach ``bytes_served`` — the work is lost,
        as on a real device that drops its write-back cache), the pending
        completion check is lazily cancelled, and the aborts are pushed in
        transfer-id order, so their callbacks observe the crash at
        deterministic heap positions.  Returns the number of transfers
        aborted.
        """
        env = self.env
        self._advance(env.now)
        aborted = list(self._hand_offs.values())
        self._remaining.clear()
        self._sizes.clear()
        self._hand_offs.clear()
        for _on_done, on_abort, value in aborted:
            env.call_later(0.0, on_abort, value)
        self._reschedule()
        return len(aborted)

    @property
    def active_transfers(self) -> int:
        """Number of in-flight transfers."""
        return len(self._remaining)

    @property
    def bytes_served(self) -> float:
        """Total bytes completed so far (for utilization accounting)."""
        return self._bytes_served

    def utilization(self, since: float, until: Optional[float] = None) -> float:
        """Fraction of the rated capacity used over ``[since, until]``.

        A convenience for experiment summaries; relies on
        :attr:`bytes_served` having been sampled at ``since`` by the caller.
        It divides by the capacity the OST was built with, not the current
        one, so a degrade window still open at ``until`` does not inflate it.
        """
        until = self.env.now if until is None else until
        span = until - since
        if span <= 0:
            return 0.0
        return self._bytes_served / (self.rated_capacity_bps * span)

    # -- fluid-flow mechanics ---------------------------------------------------
    def _advance(self, now: float) -> None:
        """Drain work proportionally over the elapsed interval."""
        elapsed = now - self._last
        self._last = now
        if elapsed <= 0 or not self._remaining:
            return
        share = self.capacity_bps * elapsed / len(self._remaining)
        for tid in self._remaining:
            self._remaining[tid] -= share

    def _reschedule(self) -> None:
        """Schedule a completion check for the next transfer to finish.

        The previous pending check (if any) is lazily cancelled: the engine
        skips it when its heap entry surfaces, so superseded checks cost
        nothing to dispatch.
        """
        env = self.env
        if self._check_call is not None:
            env.cancel_call(self._check_call)
            self._check_call = None
        if not self._remaining:
            return
        min_left = min(self._remaining.values())
        per_flow = self.capacity_bps / len(self._remaining)
        delay = max(0.0, min_left) / per_flow
        self._check_call = env.call_later(delay, self._on_check_cb)

    def _on_check(self, _value: None) -> None:
        self._check_call = None
        env = self.env
        now = env.now
        self._advance(now)
        finished = [
            tid for tid, left in self._remaining.items() if left <= _EPS_BYTES
        ]
        # Floating-point guard: the scheduled check targets the minimum, so
        # at least one transfer must be complete.
        if not finished:
            nearest = min(self._remaining.values())
            assert nearest <= 1e-3, f"completion check fired early ({nearest} B left)"
            finished = [
                tid
                for tid, left in self._remaining.items()
                if math.isclose(left, nearest, abs_tol=1e-3)
            ]
        for tid in finished:
            self._remaining.pop(tid)
            self._bytes_served += self._sizes.pop(tid)
            on_done, _on_abort, value = self._hand_offs.pop(tid)
            env.call_later(0.0, on_done, value)
        self._reschedule()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Ost {self.name} cap={self.capacity_bps:.0f}B/s "
            f"active={len(self._remaining)}>"
        )
