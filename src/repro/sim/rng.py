"""Deterministic random-number streams.

Every stochastic component (burst jitter, client think time, …) draws from its
own named substream derived from one root seed, so adding a new random
component never perturbs the draws of existing ones — a standard discipline
for reproducible simulation studies.
"""

from __future__ import annotations

import hashlib
import random
from typing import TYPE_CHECKING, Any, Dict

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["RngStreams", "import_numpy"]


def import_numpy(purpose: str) -> Any:
    """Import numpy for ``purpose``, or raise a one-line ``ImportError``.

    numpy serves exactly two computations, stochastic streams
    (:meth:`RngStreams.get`) and the overhead experiment's linear fit.
    Both import it through here on first use, so no module loads it at
    import time and every deterministic run starts without it.
    """
    try:
        import numpy
    except ImportError:
        raise ImportError(
            f"{purpose} require numpy (install repro[fast]); "
            "the simulation kernel itself runs without it"
        ) from None
    return numpy


class RngStreams:
    """A factory of independent, named :class:`numpy.random.Generator` streams.

    Parameters
    ----------
    seed:
        Root seed.  Two :class:`RngStreams` with the same seed produce
        identical streams for identical names.

    Example
    -------
    >>> streams = RngStreams(seed=42)
    >>> a = streams.get("client.0")
    >>> b = streams.get("client.1")
    >>> a is streams.get("client.0")
    True
    """

    __slots__ = ("seed", "_streams", "_stdlib_streams")

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, int):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self.seed = seed
        self._streams: Dict[str, "np.random.Generator"] = {}
        self._stdlib_streams: Dict[str, random.Random] = {}

    def get(self, name: str) -> "np.random.Generator":
        """Return the (cached) generator for ``name``.

        numpy is imported when the first stream is created, so only runs
        that draw from a stochastic stream load it.
        """
        stream = self._streams.get(name)
        if stream is None:
            numpy = import_numpy("stochastic streams")
            stream = numpy.random.default_rng(self._derive(name))
            self._streams[name] = stream
        return stream

    def get_stdlib(self, name: str) -> random.Random:
        """Return the (cached) stdlib :class:`random.Random` for ``name``.

        Spec-construction layers (scenario generators, campaign grids) must
        stay importable without numpy, so they draw from this stdlib twin of
        :meth:`get`.  The substream seed comes from the same BLAKE2b
        derivation, so the named-substream discipline — one root seed, one
        independent stream per component name — is identical; only the
        generator API differs.
        """
        if name not in self._stdlib_streams:
            self._stdlib_streams[name] = random.Random(self._derive(name))
        return self._stdlib_streams[name]

    def _derive(self, name: str) -> int:
        """Derive a 64-bit child seed from the root seed and ``name``.

        Uses BLAKE2b rather than ``hash()`` because the latter is salted per
        interpreter run and would destroy reproducibility.
        """
        digest = hashlib.blake2b(
            f"{self.seed}:{name}".encode("utf-8"), digest_size=8
        ).digest()
        return int.from_bytes(digest, "little")

    def spawn(self, namespace: str) -> "RngStreams":
        """Return a child factory whose streams live under ``namespace``."""
        child = RngStreams(self._derive(namespace))
        return child

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RngStreams(seed={self.seed}, streams={sorted(self._streams)})"
