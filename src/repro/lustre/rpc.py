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
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.events import Event

__all__ = ["Rpc", "RpcKind"]

_rpc_ids = itertools.count()


class RpcKind(enum.Enum):
    """Operation class of an RPC (both consume tokens identically)."""

    READ = "read"
    WRITE = "write"


# eq=False: identity semantics, two RPCs are never "equal".  slots=True:
# RPCs are the hot-path allocation (one per MiB moved), and slots cut both
# per-instance memory and attribute-access time on the NRS/OST fast path.
@dataclass(eq=False, slots=True)
class Rpc:
    """A single bulk I/O RPC.

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

    job_id: str
    client_id: str
    size_bytes: int
    kind: RpcKind = RpcKind.WRITE
    rpc_id: int = field(default_factory=lambda: next(_rpc_ids))

    # Lifecycle timestamps (simulated seconds); None until reached.
    submitted: Optional[float] = None
    arrived: Optional[float] = None
    dequeued: Optional[float] = None
    completed: Optional[float] = None

    #: Server-side completion event; succeeds with the RPC once serviced.
    #: The network clears it when the reply departs.
    completion: Optional["Event"] = None

    #: Client-side event that fires one reply latency after ``completion``
    #: (set by the network; lets hop callbacks be shared bound methods
    #: instead of per-RPC closures).  Cleared as it fires, so a finished
    #: RPC holds no reference back to its events.
    client_done: Optional["Event"] = None

    #: Serving OSS, set at submit time (the stripe layout's choice).
    target_oss: Optional[object] = None

    #: True when the RPC was served from the fallback queue (no token).
    via_fallback: bool = False

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError(f"RPC size must be positive, got {self.size_bytes}")

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
