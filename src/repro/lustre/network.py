"""Client ↔ OSS network model.

A deliberately thin model: RPCs experience a fixed one-way latency to the
OSS, and completions are visible to the client after the same latency.  The
paper's experiments are OST-bandwidth-bound (25 Gb NICs vs SATA SSDs), so
network queueing is not the bottleneck; a fixed latency preserves pipelining
behaviour (clients keep a window of RPCs in flight) without simulating the
fabric.  Set ``latency_s=0`` for a zero-latency fabric.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.lustre.oss import Oss
from repro.lustre.rpc import Rpc
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment

__all__ = ["Network"]


class Network:
    """Fixed-latency request/response fabric.

    Parameters
    ----------
    env:
        Simulation environment.
    latency_s:
        One-way delivery latency in seconds (default 100 µs, a typical
        datacenter RTT/2).
    """

    __slots__ = (
        "env",
        "latency_s",
        "_rpcs_carried",
        "_partitioned",
        "_held",
        "_rpcs_held",
        "_deliver_cb",
        "_reply_cb",
        "_finish_cb",
    )

    def __init__(self, env: "Environment", latency_s: float = 100e-6) -> None:
        if latency_s < 0:
            raise ValueError(f"latency must be >= 0, got {latency_s}")
        self.env = env
        self.latency_s = float(latency_s)
        self._rpcs_carried = 0
        self._partitioned = False
        self._held: List[Rpc] = []
        self._rpcs_held = 0
        # Hop callbacks are shared bound methods; the RPC rides along as the
        # hop event's value, so the per-RPC closure allocations of the naive
        # formulation disappear from this hot path.
        self._deliver_cb = self._deliver
        self._reply_cb = self._reply
        self._finish_cb = self._finish

    def submit(self, rpc: Rpc, oss: Oss) -> Event:
        """Send ``rpc`` to ``oss``; returns the event the client awaits.

        The returned event fires one network latency *after* the server-side
        completion, modelling the reply message.  During a partition window
        the request is held inside the network instead, to be released (in
        submission order) when the partition heals.
        """
        env = self.env
        rpc.submitted = env.now
        rpc.completion = Event(env)
        rpc.client_done = client_done = Event(env)
        rpc.target_oss = oss
        self._rpcs_carried += 1

        if self._partitioned:
            self._held.append(rpc)
            self._rpcs_held += 1
        elif self.latency_s:
            env.timeout(self.latency_s, rpc).callbacks.append(self._deliver_cb)
        else:
            oss.receive(rpc)
        rpc.completion.callbacks.append(self._reply_cb)
        return client_done

    # -- fault-axis surface ---------------------------------------------------
    def set_latency(self, latency_s: float) -> None:
        """Change the one-way hop latency at runtime (fault axis).

        Requests already in flight keep the latency they departed with —
        only subsequent hops see the new value, like a routing change.
        """
        if latency_s < 0:
            raise ValueError(f"latency must be >= 0, got {latency_s}")
        self.latency_s = float(latency_s)

    def set_partitioned(self, partitioned: bool) -> int:
        """Open or heal a partition on the request path.

        While partitioned, submissions queue inside the network (replies
        of already-delivered requests still return — the server committed
        that work before the cut).  Healing releases the held requests in
        submission order through the normal latency hop, so the flood
        arrives at deterministic heap positions.  Returns the number of
        requests released.
        """
        partitioned = bool(partitioned)
        if partitioned == self._partitioned:
            return 0
        self._partitioned = partitioned
        if partitioned:
            return 0
        held, self._held = self._held, []
        env = self.env
        for rpc in held:
            if self.latency_s:
                env.timeout(self.latency_s, rpc).callbacks.append(
                    self._deliver_cb
                )
            else:
                rpc.target_oss.receive(rpc)
        return len(held)

    @property
    def partitioned(self) -> bool:
        return self._partitioned

    @property
    def rpcs_held(self) -> int:
        """Requests that were ever held by a partition window."""
        return self._rpcs_held

    # -- hop callbacks (event value = the RPC in flight) ---------------------
    # Each hop event carries the RPC as its value while the RPC points back
    # at its own events; the reply hops drop those back-references before
    # succeeding the client's event, so a finished RPC is freed by its
    # refcount instead of waiting for the cyclic garbage collector.
    def _deliver(self, event: Event) -> None:
        rpc = event._value
        rpc.target_oss.receive(rpc)

    def _reply(self, event: Event) -> None:
        rpc = event._value
        rpc.completion = None
        if self.latency_s:
            self.env.timeout(self.latency_s, rpc).callbacks.append(
                self._finish_cb
            )
        else:
            self._finish(event)

    def _finish(self, event: Event) -> None:
        rpc = event._value
        client_done, rpc.client_done = rpc.client_done, None
        client_done.succeed(rpc)

    @property
    def rpcs_carried(self) -> int:
        return self._rpcs_carried
