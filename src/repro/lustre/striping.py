"""File striping across multiple OSTs (Lustre layout semantics).

In Lustre, every file has a *layout*: ``stripe_count`` OSTs over which its
data is distributed in ``stripe_size`` chunks, round-robin.  The paper's
decentralization argument (§II-B) rests on this: a job's I/O spreads over
many storage targets, each of which runs its own independent AdapTBF
instance, and local fairness on every target composes into global fairness.

:class:`StripeLayout` reproduces exactly the part that matters for
bandwidth control — the deterministic chunk→OST mapping.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.lustre.oss import Oss

__all__ = ["StripeLayout"]


class StripeLayout:
    """Chunk→OSS mapping for one file.

    Parameters
    ----------
    targets:
        The OSS endpoints serving the file's stripes, in stripe order
        (``stripe_count`` = ``len(targets)``).
    stripe_size:
        Bytes per stripe chunk.  Lustre's default is 1 MiB — conveniently
        also the bulk RPC size, so with the default layout each RPC lands
        wholly on one OST.
    """

    __slots__ = ("targets", "stripe_size")

    def __init__(self, targets: Sequence["Oss"], stripe_size: int = 1 << 20):
        if not targets:
            raise ValueError("a layout needs at least one target")
        # Negated so that NaN, which fails every comparison, is rejected too.
        # The size is kept as an int, so it must be finite and at least one
        # byte: a fraction would truncate to a zero divisor.
        if not 1 <= stripe_size < math.inf:
            raise ValueError(
                f"stripe_size must be finite and >= 1, got {stripe_size}"
            )
        self.targets: List["Oss"] = list(targets)
        self.stripe_size = int(stripe_size)

    @property
    def stripe_count(self) -> int:
        return len(self.targets)

    def target_for_offset(self, offset: int) -> "Oss":
        """The OSS holding the byte at ``offset``."""
        if offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        targets = self.targets
        return targets[(offset // self.stripe_size) % len(targets)]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        names = [t.ost.name for t in self.targets]
        return f"StripeLayout({names}, stripe_size={self.stripe_size})"
