"""Binned per-job throughput timelines.

Mirrors the paper's measurement method: "observation collected at every
100 ms" (Fig. 3).  Bytes are credited to the bin containing the RPC's
*completion* time — that is when the OST actually moved the data.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.lustre.rpc import Rpc
from repro.numeric import fold_sum

__all__ = ["Timeline"]

MIB = 1 << 20


class Timeline:
    """Accumulates per-job served bytes into fixed-width time bins.

    Parameters
    ----------
    bin_s:
        Bin width in seconds (paper: 0.1).
    """

    def __init__(self, bin_s: float = 0.1) -> None:
        if bin_s <= 0:
            raise ValueError(f"bin_s must be positive, got {bin_s}")
        self.bin_s = float(bin_s)
        self._bins: Dict[str, Dict[int, float]] = {}
        self._total_bytes: Dict[str, float] = {}
        self._last_time = 0.0

    # -- recording ---------------------------------------------------------
    def record(self, job_id: str, time: float, nbytes: float) -> None:
        """Credit ``nbytes`` served for ``job_id`` at ``time``."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        index = int(time / self.bin_s)
        bins = self._bins.get(job_id)
        if bins is None:
            bins = self._bins[job_id] = {}
        bins[index] = bins.get(index, 0.0) + nbytes
        totals = self._total_bytes
        totals[job_id] = totals.get(job_id, 0.0) + nbytes
        if time > self._last_time:
            self._last_time = time

    def record_rpc(self, rpc: Rpc) -> None:
        """Hook for ``Oss.on_complete``: credit a served RPC's payload at its
        completion time."""
        self.record(rpc.job_id, rpc.completed, rpc.size_bytes)

    # -- observation --------------------------------------------------------
    @property
    def jobs(self) -> List[str]:
        return sorted(self._bins)

    @property
    def horizon_s(self) -> float:
        """Latest recorded completion time."""
        return self._last_time

    def total_bytes(self, job_id: Optional[str] = None) -> float:
        if job_id is None:
            return fold_sum(self._total_bytes.values())
        return self._total_bytes.get(job_id, 0.0)

    def _times(self, until: Optional[float]) -> List[float]:
        """Bin start times ``i * bin_s`` from t=0 to ``until``."""
        horizon = self._last_time if until is None else until
        bin_s = self.bin_s
        return [i * bin_s for i in range(max(1, math.ceil(horizon / bin_s)))]

    def _rates(self, job_id: str, n: int) -> List[float]:
        """MiB/s of ``job_id`` in each of the first ``n`` bins."""
        values = [0.0] * n
        for index, nbytes in self._bins.get(job_id, {}).items():
            if index < n:
                values[index] = nbytes
        scale = self.bin_s * MIB
        return [v / scale for v in values]

    def series(
        self, job_id: str, until: Optional[float] = None
    ) -> Tuple[List[float], List[float]]:
        """``(bin_start_times, throughput_MiB_per_s)`` for one job.

        The series is dense (zero-filled) from t=0 to ``until`` (default:
        the last recorded completion), matching how the paper plots idle
        phases as zero throughput.
        """
        times = self._times(until)
        return times, self._rates(job_id, len(times))

    def aggregate_series(
        self, until: Optional[float] = None
    ) -> Tuple[List[float], List[float]]:
        """``(times, MiB/s)`` summed over all jobs, added in job order."""
        times = self._times(until)
        values = [0.0] * len(times)
        for job in self._bins:
            rates = self._rates(job, len(times))
            values = [total + v for total, v in zip(values, rates)]
        return times, values

    def mean_throughput(
        self, job_id: Optional[str] = None, duration: Optional[float] = None
    ) -> float:
        """Average MiB/s over ``duration`` (default: full horizon)."""
        span = self._last_time if duration is None else duration
        if span <= 0:
            return 0.0
        return self.total_bytes(job_id) / span / MIB
