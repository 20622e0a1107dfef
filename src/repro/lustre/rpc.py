"""RPC request model.

An :class:`Rpc` is one bulk I/O request from a client process to a storage
target.  Following the paper's convention, one RPC costs one TBF token and
carries a fixed-size payload (1 MiB by default elsewhere in the stack), so a
token rate of ``R`` tokens/s is a bandwidth cap of ``R`` payload units/s.

Lifecycle timestamps are recorded at each hop so metrics can attribute
latency: ``submitted`` (client), ``arrived`` (OSS/NRS enqueue), ``dequeued``
(NRS grant), ``completed`` (OST service finished).
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Optional

__all__ = ["Rpc", "RpcKind"]

_rpc_ids = itertools.count()
_INF = float("inf")


class RpcKind(enum.Enum):
    """Operation class of an RPC (both consume tokens identically)."""

    READ = "read"
    WRITE = "write"


class Rpc:
    """A single bulk I/O RPC.

    Identity semantics: two RPCs are never "equal".  RPCs are the hot-path
    allocation (one per MiB moved), so the class declares ``__slots__``,
    which cuts both per-instance memory and attribute-access time on the
    NRS/OST fast path, and builds itself in one plain ``__init__``.

    Parameters
    ----------
    job_id:
        Lustre JobID string identifying the owning application (the TBF
        classification key, as AdapTBF configures ``jobid_var``).
    client_id:
        Identifier of the issuing client node/process, for diagnostics.
    size_bytes:
        Payload size serviced by the OST.
    kind:
        Read or write; the scheduler treats both alike.
    """

    __slots__ = (
        "job_id",
        "client_id",
        "size_bytes",
        "kind",
        "rpc_id",
        "submitted",
        "arrived",
        "dequeued",
        "completed",
        "completion",
        "client_done",
        "target_oss",
        "via_fallback",
    )

    def __init__(
        self,
        job_id: str,
        client_id: str,
        size_bytes: int,
        kind: RpcKind = RpcKind.WRITE,
    ) -> None:
        # Negated so that NaN, which fails every comparison, is rejected too;
        # an infinite size would never finish transferring.
        if not 0 < size_bytes < _INF:
            raise ValueError(
                f"RPC size must be finite and positive, got {size_bytes}"
            )
        self.job_id = job_id
        self.client_id = client_id
        self.size_bytes = size_bytes
        self.kind = kind
        self.rpc_id: int = next(_rpc_ids)
        # Lifecycle timestamps (simulated seconds); None until reached.
        self.submitted: Optional[float] = None
        self.arrived: Optional[float] = None
        self.dequeued: Optional[float] = None
        self.completed: Optional[float] = None
        #: Server-side completion: the network's reply hop, which the OSS
        #: pushes as a call with the RPC once serviced.  The network clears
        #: it when the reply departs.
        self.completion: Optional[Callable[["Rpc"], None]] = None
        #: The client's reply callback, run one reply latency after
        #: ``completion`` (set by the network; lets hops be shared bound
        #: methods instead of per-RPC closures).  Cleared as it runs, so a
        #: finished RPC holds no reference back to its client.
        self.client_done: Optional[Callable[["Rpc"], None]] = None
        #: Serving OSS, set at submit time (the stripe layout's choice).
        self.target_oss: Optional[object] = None
        #: True when the RPC was served from the fallback queue (no token).
        self.via_fallback = False

    @property
    def queue_wait(self) -> Optional[float]:
        """Time spent queued in the NRS, if both timestamps are known."""
        if self.arrived is None or self.dequeued is None:
            return None
        return self.dequeued - self.arrived

    @property
    def service_time(self) -> Optional[float]:
        """Time spent in OST service, if both timestamps are known."""
        if self.dequeued is None or self.completed is None:
            return None
        return self.completed - self.dequeued

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Rpc #{self.rpc_id} job={self.job_id} {self.kind.value} "
            f"{self.size_bytes}B>"
        )
