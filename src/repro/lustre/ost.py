"""Object Storage Target: a processor-sharing bandwidth server.

Models the OST disk as a fluid-flow resource: ``capacity_bps`` bytes/second
split evenly across all in-flight transfers.  This is the standard fluid
approximation for a saturated storage device and preserves the property the
experiments depend on — aggregate service rate equals ``capacity_bps``
whenever any work is queued, regardless of concurrency.

The implementation is event-driven: transfer completions are pre-computed and
re-computed whenever the set of active transfers changes.  The in-flight
transfers are two index-aligned lists in start order — bytes left, and each
transfer's ``(size, on_done, on_abort, value)`` — so advancing the flows is
one list comprehension and a completion scan works by index.  The
completion check is a calendar call; each re-computation lazily cancels the
previous one (:meth:`~repro.sim.engine.Environment.cancel_call`), so
superseded checks are skipped by the engine instead of dispatching as
no-ops.  A finished or aborted transfer hands off through a same-instant
call (:meth:`~repro.sim.engine.Environment.call_soon`) of its ``on_done``
or ``on_abort`` callback, pushed where the completion check or the crash
finds it.

Two expressions must give bit-identical floats in every place that runs
them.  The *advance* moves ``_last`` to ``now`` and, when time passed and
a flow is in flight, takes ``capacity_bps * elapsed / len(left)`` off every
flow's bytes left; the *re-arm* files the next check
``max(0.0, min(left)) / (capacity_bps / len(left))`` from now, with the
``max`` written as the comparison that picks the same float.  They run in:

* :meth:`Ost._advance` and :meth:`Ost._reschedule`, the reference forms,
  called by :meth:`Ost.set_capacity` (and, the re-arm only, by
  :meth:`Ost.fail_inflight`);
* :meth:`Ost.transfer`, inline, once per started transfer;
* :meth:`Ost._on_check`, inline, once per completion check.

A change to either expression must be made in each of them.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment

__all__ = ["Ost"]

_EPS_BYTES = 1e-6

#: One in-flight transfer: ``(size, on_done, on_abort, value)``.
_Flow = Tuple[float, Callable[[Any], None], Callable[[Any], None], Any]


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
        "_left",
        "_flows",
        "_last",
        "_check_call",
        "_on_check_cb",
        "_bytes_served",
    )

    def __init__(self, env: "Environment", name: str, capacity_bps: float) -> None:
        # Negated so that NaN, which fails every comparison, is rejected too;
        # an infinite capacity would finish every flow at once, with NaN
        # bytes left.
        if not 0 < capacity_bps < math.inf:
            raise ValueError(f"capacity must be finite and > 0, got {capacity_bps}")
        self.env = env
        self.name = name
        self.capacity_bps = self.rated_capacity_bps = float(capacity_bps)
        #: Bytes left per in-flight transfer, and the transfers themselves,
        #: index-aligned in start order.
        self._left: List[float] = []
        self._flows: List[_Flow] = []
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
        if not nbytes > 0:
            raise ValueError(f"transfer size must be positive, got {nbytes}")
        # _advance and _reschedule, inline: one transfer starts per RPC.
        env = self.env
        now = env.now
        left = self._left
        elapsed = now - self._last
        self._last = now
        if elapsed > 0 and left:
            share = self.capacity_bps * elapsed / len(left)
            self._left = left = [rest - share for rest in left]
        size = float(nbytes)
        left.append(size)
        self._flows.append((size, on_done, on_abort, value))
        if self._check_call is not None:
            env.cancel_call(self._check_call)
        per_flow = self.capacity_bps / len(left)
        nearest = min(left)
        if not nearest > 0.0:  # max(0.0, nearest)
            nearest = 0.0
        self._check_call = env.call_later(nearest / per_flow, self._on_check_cb)

    def set_capacity(self, capacity_bps: float) -> None:
        """Change the disk bandwidth at runtime.

        Models degraded media / RAID rebuild / contention from scrubbing:
        in-flight transfers finish at the new rate from this instant.  The
        AdapTBF controller does not observe capacity directly — it keeps
        allocating ``T_i`` tokens — so this is the failure-injection hook
        for testing behaviour when tokens outrun the disk.
        """
        if not 0 < capacity_bps < math.inf:
            raise ValueError(f"capacity must be finite and > 0, got {capacity_bps}")
        self._advance(self.env.now)
        self.capacity_bps = float(capacity_bps)
        self._reschedule()

    def fail_inflight(self) -> int:
        """Abort every in-flight transfer: push its ``on_abort`` call.

        The crash path of the fault axis.  Partially-served bytes are
        discarded (they never reach ``bytes_served`` — the work is lost,
        as on a real device that drops its write-back cache), the pending
        completion check is lazily cancelled, and the aborts are pushed in
        start order, so their callbacks observe the crash at deterministic
        calendar positions.  Returns the number of transfers aborted.
        """
        call_soon = self.env.call_soon
        flows = self._flows
        self._left = []
        self._flows = []
        for _size, _on_done, on_abort, value in flows:
            call_soon(on_abort, value)
        self._reschedule()
        return len(flows)

    @property
    def active_transfers(self) -> int:
        """Number of in-flight transfers."""
        return len(self._left)

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
        left = self._left
        if elapsed > 0 and left:
            share = self.capacity_bps * elapsed / len(left)
            self._left = [rest - share for rest in left]

    def _reschedule(self) -> None:
        """Schedule a completion check for the next transfer to finish.

        The previous pending check (if any) is lazily cancelled: the engine
        skips it when its entry surfaces, so superseded checks cost nothing
        to dispatch.
        """
        env = self.env
        if self._check_call is not None:
            env.cancel_call(self._check_call)
            self._check_call = None
        left = self._left
        if left:
            per_flow = self.capacity_bps / len(left)
            nearest = min(left)
            if not nearest > 0.0:  # max(0.0, nearest)
                nearest = 0.0
            self._check_call = env.call_later(nearest / per_flow, self._on_check_cb)

    def _on_check(self, _value: None) -> None:
        self._check_call = None
        # _advance, inline.
        env = self.env
        now = env.now
        left = self._left
        elapsed = now - self._last
        self._last = now
        if elapsed > 0 and left:
            share = self.capacity_bps * elapsed / len(left)
            self._left = left = [rest - share for rest in left]
        done = [i for i, rest in enumerate(left) if rest <= _EPS_BYTES]
        # Floating-point guard: the scheduled check targets the minimum, so
        # at least one transfer must be complete.
        if not done:
            nearest = min(left)
            if not nearest <= 1e-3:
                raise RuntimeError(
                    f"{self.name}: completion check fired early ({nearest} B left)"
                )
            done = [
                i
                for i, rest in enumerate(left)
                if math.isclose(rest, nearest, abs_tol=1e-3)
            ]
        flows = self._flows
        call_soon = env.call_soon
        served = self._bytes_served
        for i in done:
            size, on_done, _on_abort, value = flows[i]
            served += size
            call_soon(on_done, value)
        self._bytes_served = served
        for i in reversed(done):
            del left[i]
            del flows[i]
        # _reschedule, inline: this check was the pending one.
        if left:
            per_flow = self.capacity_bps / len(left)
            nearest = min(left)
            if not nearest > 0.0:  # max(0.0, nearest)
                nearest = 0.0
            self._check_call = env.call_later(nearest / per_flow, self._on_check_cb)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Ost {self.name} cap={self.capacity_bps:.0f}B/s "
            f"active={len(self._left)}>"
        )
