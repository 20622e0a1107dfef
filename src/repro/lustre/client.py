"""Lustre client process model.

A :class:`ClientProcess` executes one *I/O program* — a generator produced by
a workload pattern (:mod:`repro.workloads.patterns`) — against an OSS through
the network.  The :class:`IoHandle` given to the program hides RPC mechanics:
``write(nbytes)`` / ``read(nbytes)`` chop a region into RPC-sized chunks and
keep a bounded window of them in flight, which is how a real Lustre client's
RPC engine pipelines bulk I/O (``max_rpcs_in_flight``).  A per-stream
completion counter (:class:`_Window`) wakes the stream as RPCs complete, so
a resume costs O(1) whatever the window size, and an RPC's completion
reaches it as a calendar call, with no event object.  Reads and writes
traverse the same NRS/TBF path and cost one token per RPC (the paper's
convention); the handle attributes moved bytes to ``bytes_read`` /
``bytes_written`` per :class:`~repro.lustre.rpc.RpcKind` so mixed-op
workloads stay observable.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Generator, Optional

from repro.lustre.network import Network
from repro.lustre.oss import Oss
from repro.lustre.rpc import Rpc, RpcKind
from repro.lustre.striping import StripeLayout
from repro.numeric import is_count
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment
    from repro.sim.process import Process

__all__ = ["IoHandle", "ClientProcess", "DEFAULT_RPC_SIZE", "DEFAULT_WINDOW"]

#: Default bulk RPC payload: 1 MiB, Lustre's typical max_pages_per_rpc worth.
DEFAULT_RPC_SIZE = 1 << 20
#: Default RPCs in flight per client process (Lustre max_rpcs_in_flight=8).
DEFAULT_WINDOW = 8


class _Window:
    """Completion counter of one :meth:`IoHandle.write` stream.

    Every RPC the stream sends gets :meth:`on_reply` as its reply callback;
    run inside the network's last hop, it pushes a call of :meth:`on_done`,
    the RPC's completion.  The stream yields :meth:`wait`, an event whose
    value is the number of window slots it frees.  That event is pushed
    where one ``AnyOf`` over the in-flight RPCs would push its own, so the
    dispatch order is the same:

    * at :meth:`wait`, when RPCs completed since the previous push — it
      frees all of them;
    * otherwise inside the first completion after :meth:`wait` — it frees
      that one.  Completions between a push and the stream's resume are
      carried to the next :meth:`wait`.

    A failed completion (a call of :meth:`on_failed`) fails a pending wait
    (the program sees the exception at its ``yield``); with no wait pending
    it raises out of ``env.run``.  A killed or interrupted stream keeps its
    callbacks, and a later completion still pushes the pending wait, with
    nobody attached.
    """

    __slots__ = ("env", "_freed", "_wait")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: Completions not yet handed to a wait.
        self._freed = 0
        #: The wait the stream is blocked on, until it is pushed.
        self._wait: Optional[Event] = None

    def wait(self) -> Event:
        event = Event(self.env)
        if self._freed:
            event.succeed(self._freed)
            self._freed = 0
        else:
            self._wait = event
        return event

    def on_reply(self, _rpc: Rpc) -> None:
        self.env.call_soon(self.on_done)

    def on_done(self, _value: None) -> None:
        wait = self._wait
        if wait is None:
            self._freed += 1
        else:
            self._wait = None
            wait.succeed(1)

    def on_failed(self, exc: BaseException) -> None:
        wait = self._wait
        if wait is None:
            raise exc
        self._wait = None
        wait.fail(exc)


class IoHandle:
    """The I/O surface a workload program uses.

    Parameters
    ----------
    env, network, oss:
        Plumbing to reach storage.
    job_id:
        JobID stamped on every RPC (the TBF classification key).
    client_id:
        Identifier of this client process.
    rpc_size:
        Bulk RPC payload in bytes.
    window:
        Maximum RPCs in flight for :meth:`write`.
    """

    __slots__ = (
        "env",
        "network",
        "oss",
        "job_id",
        "client_id",
        "rpc_size",
        "window",
        "layout",
        "_offset",
        "rpcs_issued",
        "bytes_written",
        "bytes_read",
        "_stream_seq",
    )

    def __init__(
        self,
        env: "Environment",
        network: Network,
        oss: Oss,
        job_id: str,
        client_id: str,
        rpc_size: int = DEFAULT_RPC_SIZE,
        window: int = DEFAULT_WINDOW,
        layout: Optional[StripeLayout] = None,
    ) -> None:
        # Counts are ints (not bools): a NaN window used to send no RPC
        # and end the run silently, and a NaN size failed mid-run.
        if not is_count(rpc_size):
            raise ValueError(f"rpc_size must be an int >= 1, got {rpc_size!r}")
        if not is_count(window):
            raise ValueError(f"window must be an int >= 1, got {window!r}")
        self.env = env
        self.network = network
        self.oss = oss
        self.job_id = job_id
        self.client_id = client_id
        self.rpc_size = rpc_size
        self.window = window
        #: File layout; defaults to a single-OST layout on `oss` (Lustre's
        #: default stripe_count=1).  The handle models one file, so a
        #: monotone offset drives the chunk→OST mapping.
        self.layout = layout or StripeLayout([oss], stripe_size=rpc_size)
        self._offset = 0
        self.rpcs_issued = 0
        self.bytes_written = 0
        self.bytes_read = 0
        self._stream_seq = 0

    def next_stream_seq(self) -> int:
        """Monotone counter for RNG-substream derivation.

        Workload patterns fold this into their substream names
        (:meth:`repro.workloads.patterns.Pattern.stream`) so each
        ``program()`` invocation on this handle — e.g. every phase of a
        repeated composite — draws a fresh stream instead of replaying the
        first one.  Programs run in deterministic order within a client,
        so the sequence is reproducible across processes.
        """
        seq = self._stream_seq
        self._stream_seq += 1
        return seq

    @property
    def now(self) -> float:
        return self.env.now

    def sleep(self, seconds: float):
        """Event that fires after ``seconds`` (for program pacing)."""
        return self.env.timeout(seconds)

    def submit(
        self, nbytes: Optional[int] = None, kind: RpcKind = RpcKind.WRITE
    ) -> Event:
        """Issue a single RPC at the current file offset.

        Returns the client-side completion event.  The target OSS follows
        the file's stripe layout; with the default single-OST layout every
        RPC goes to ``self.oss``.
        """
        done = Event(self.env)
        self._send(self.rpc_size if nbytes is None else nbytes, kind, done.succeed)
        return done

    def _send(self, size: int, kind: RpcKind, on_reply: Callable[[Rpc], None]) -> None:
        """Send one ``size``-byte RPC at the current file offset; the network
        runs ``on_reply(rpc)`` when its reply lands."""
        target = self.layout.target_for_offset(self._offset)
        rpc = Rpc(self.job_id, self.client_id, size, kind)
        self.rpcs_issued += 1
        if kind is RpcKind.READ:
            self.bytes_read += size
        else:
            self.bytes_written += size
        self._offset += size
        self.network.send(rpc, target, on_reply)

    def write(self, total_bytes: int, kind: RpcKind = RpcKind.WRITE) -> Generator:
        """Write ``total_bytes`` as a pipelined stream of RPCs.

        Keeps up to ``window`` RPCs outstanding; yields until every chunk has
        completed.  Usage inside a program: ``yield from io.write(1 << 30)``.
        """
        # Negated so that NaN, which fails every comparison, is rejected
        # too; an infinite volume has no chunk count.
        if not 0 < total_bytes < math.inf:
            raise ValueError(
                f"total_bytes must be finite and > 0, got {total_bytes}"
            )
        rpc_size = self.rpc_size
        n_chunks = math.ceil(total_bytes / rpc_size)
        remaining = total_bytes
        window = _Window(self.env)
        on_reply = window.on_reply
        in_flight = 0
        issued = 0
        while issued < n_chunks or in_flight:
            while issued < n_chunks and in_flight < self.window:
                # min(rpc_size, remaining), as the comparison it makes.
                size = remaining if remaining < rpc_size else rpc_size
                remaining -= size
                self._send(size, kind, on_reply)
                in_flight += 1
                issued += 1
            # Wait for the window to open; the value is the slots freed.
            in_flight -= yield window.wait()

    def read(self, total_bytes: int) -> Generator:
        """Read ``total_bytes`` as a pipelined stream of READ RPCs.

        Identical geometry to :meth:`write` — same chunking, same window,
        same NRS/TBF token accounting (the scheduler treats both kinds
        alike) — but the RPCs are classed :attr:`~repro.lustre.rpc.RpcKind.READ`
        and the volume lands in :attr:`bytes_read`.  It returns
        :meth:`write`'s own generator, so a resume passes through one
        generator frame, not two.
        """
        return self.write(total_bytes, kind=RpcKind.READ)


class ClientProcess:
    """One workload process on one client node.

    Parameters
    ----------
    program:
        A callable ``program(io) -> generator`` — typically the bound
        ``program`` method of a workload pattern.
    """

    __slots__ = ("io", "process")

    def __init__(
        self,
        env: "Environment",
        network: Network,
        oss: Oss,
        job_id: str,
        client_id: str,
        program: Callable[[IoHandle], Generator],
        rpc_size: int = DEFAULT_RPC_SIZE,
        window: int = DEFAULT_WINDOW,
        layout: Optional[StripeLayout] = None,
    ) -> None:
        self.io = IoHandle(
            env,
            network,
            oss,
            job_id=job_id,
            client_id=client_id,
            rpc_size=rpc_size,
            window=window,
            layout=layout,
        )
        self.process: "Process" = env.process(
            program(self.io), name=f"{job_id}/{client_id}"
        )

    @property
    def finished(self) -> bool:
        return not self.process.is_alive
