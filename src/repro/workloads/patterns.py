"""I/O pattern primitives.

A pattern is a small immutable object describing *what one client process
does*; its :meth:`~Pattern.program` method returns the generator the client
executes.  Patterns compose into :class:`~repro.workloads.spec.ProcessSpec`
entries, one per Filebench-style process, and are resolvable by name with
parameter overrides through :data:`repro.workloads.registry.WORKLOADS` —
the workload counterpart of the scenario/campaign/mechanism registries.

Every pattern here is a frozen dataclass: hashable, picklable (so specs
embedding them survive ``--jobs N`` campaign fan-out) and stateless — any
per-run state lives in the generator frame, and any randomness is drawn
from a :class:`~repro.sim.rng.RngStreams` substream derived from the
pattern's own ``seed`` plus the executing client's identity, so one shared
pattern instance yields distinct-but-reproducible streams per process.

The vocabulary spans the paper's Filebench shapes (sequential writers,
periodic bursts, delayed continuous streams) and the irregular-demand
shapes trace-driven evaluations call for: sequential *reads*, mixed
read/write streams, Poisson arrivals, on/off (bursty-idle) phases, phased
composites (diurnal load), and replay of recorded traces
(:class:`TraceReplayPattern`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Sequence, Tuple

from repro.lustre.client import IoHandle
from repro.numeric import is_count, require_finite_positive
from repro.sim.rng import RngStreams
from repro.workloads.trace import TraceRecord, validate_trace

__all__ = [
    "Pattern",
    "SequentialWritePattern",
    "SequentialReadPattern",
    "MixedReadWritePattern",
    "BurstPattern",
    "DelayedContinuousPattern",
    "PoissonArrivalPattern",
    "OnOffPattern",
    "PhasedPattern",
    "TraceReplayPattern",
]


_INF = float("inf")


# Sizes, rates and intervals pass require_finite_positive.  The checks
# below are negated too, so that NaN, which fails every comparison, is
# rejected.
def _finite_delay(name: str, value: float) -> None:
    if not 0 <= value < _INF:
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


def _count(name: str, value: int) -> None:
    if not is_count(value):
        raise ValueError(f"{name} must be an int >= 1, got {value!r}")


class Pattern:
    """Base class for I/O patterns (duck-typed: only ``program`` matters)."""

    def program(self, io: IoHandle) -> Generator:  # pragma: no cover - abstract
        raise NotImplementedError

    def total_bytes_hint(self) -> Optional[int]:
        """Upper bound on bytes this pattern moves, if statically known."""
        return None

    def stream(self, io: IoHandle, kind: str = "pattern"):
        """The pattern's RNG substream for the executing client.

        Derived from the pattern's ``seed`` attribute (0 when the pattern
        has none), the client's job/process identity, and the handle's
        invocation sequence number.  Every process sharing one pattern
        instance draws an independent stream; every *invocation* on one
        process (each phase of a repeated :class:`PhasedPattern`) draws a
        fresh stream rather than replaying the first; and the whole
        construction is name-derived, so the same spec replays
        bit-identically in any worker process.
        """
        seed = int(getattr(self, "seed", 0))
        name = f"{kind}/{io.job_id}/{io.client_id}/{io.next_stream_seq()}"
        return RngStreams(seed).get(name)


@dataclass(frozen=True)
class SequentialWritePattern(Pattern):
    """File-per-process sequential write of ``total_bytes``.

    The paper's 16-process jobs each write a private 1 GiB file this way.
    An optional ``start_delay_s`` staggers process start.
    """

    total_bytes: int
    start_delay_s: float = 0.0

    def __post_init__(self) -> None:
        require_finite_positive("total_bytes", self.total_bytes)
        _finite_delay("start_delay_s", self.start_delay_s)

    def total_bytes_hint(self) -> int:
        return self.total_bytes

    def program(self, io: IoHandle) -> Generator:
        if self.start_delay_s:
            yield io.sleep(self.start_delay_s)
        yield from io.write(self.total_bytes)


@dataclass(frozen=True)
class BurstPattern(Pattern):
    """Periodic short I/O bursts (§IV-E/F job shape).

    The process writes a ``burst_bytes`` chunk sequentially, idles, writes
    the next chunk, … for ``count`` bursts.  ``start_delay_s`` offsets the
    first burst so several jobs' bursts interleave on the server, as the
    paper arranges.

    Two pacing modes:

    ``"gap"`` (default)
        sleep ``interval_s`` *after each burst completes* — the
        write-then-sleep loop a Filebench personality executes.  Faster
        burst service directly shortens the job, which is how the paper's
        Fig. 6/8 bandwidth gains for bursty jobs arise.
    ``"cadence"``
        start bursts at a fixed period of ``interval_s`` regardless of
        service time (a hard-real-time producer); a burst that overruns
        delays subsequent ones (back-pressure).
    """

    burst_bytes: int
    interval_s: float
    count: int
    start_delay_s: float = 0.0
    pace: str = "gap"

    def __post_init__(self) -> None:
        require_finite_positive("burst_bytes", self.burst_bytes)
        require_finite_positive("interval_s", self.interval_s)
        _count("count", self.count)
        _finite_delay("start_delay_s", self.start_delay_s)
        if self.pace not in ("gap", "cadence"):
            raise ValueError(f"pace must be 'gap' or 'cadence', got {self.pace!r}")

    def total_bytes_hint(self) -> int:
        return self.burst_bytes * self.count

    def program(self, io: IoHandle) -> Generator:
        if self.start_delay_s:
            yield io.sleep(self.start_delay_s)
        for i in range(self.count):
            burst_started = io.now
            yield from io.write(self.burst_bytes)
            if i == self.count - 1:
                break
            if self.pace == "gap":
                yield io.sleep(self.interval_s)
            else:  # cadence
                next_start = burst_started + self.interval_s
                if next_start > io.now:
                    yield io.sleep(next_start - io.now)


@dataclass(frozen=True)
class DelayedContinuousPattern(Pattern):
    """Continuous sequential stream that switches on after ``delay_s``.

    This is the §IV-F trigger: jobs 1–3 each have one process that starts
    issuing continuous I/O 20/50/80 s into the run, flipping them from
    lenders into claimants.
    """

    delay_s: float
    total_bytes: int

    def __post_init__(self) -> None:
        _finite_delay("delay_s", self.delay_s)
        require_finite_positive("total_bytes", self.total_bytes)

    def total_bytes_hint(self) -> int:
        return self.total_bytes

    def program(self, io: IoHandle) -> Generator:
        if self.delay_s:
            yield io.sleep(self.delay_s)
        yield from io.write(self.total_bytes)


@dataclass(frozen=True)
class SequentialReadPattern(Pattern):
    """File-per-process sequential *read* of ``total_bytes``.

    The paper evaluates writers only; reads traverse the identical
    NRS/TBF/token path (one token per RPC regardless of direction), so this
    is the minimal pattern that opens the read side of the simulator —
    checkpoint-restore, analysis and staging phases of real HPC jobs.
    """

    total_bytes: int
    start_delay_s: float = 0.0

    def __post_init__(self) -> None:
        require_finite_positive("total_bytes", self.total_bytes)
        _finite_delay("start_delay_s", self.start_delay_s)

    def total_bytes_hint(self) -> int:
        return self.total_bytes

    def program(self, io: IoHandle) -> Generator:
        if self.start_delay_s:
            yield io.sleep(self.start_delay_s)
        yield from io.read(self.total_bytes)


@dataclass(frozen=True)
class MixedReadWritePattern(Pattern):
    """Interleaved read/write stream at a target read fraction.

    The stream is chopped into ``chunk_bytes`` chunks; chunk ``i`` is a
    read exactly when the running read count would otherwise fall below
    ``read_fraction`` (a deterministic largest-remainder interleave — no
    randomness, so the mix is identical everywhere).  Models
    analysis-style jobs that alternate ingest and result writing.
    """

    total_bytes: int
    read_fraction: float = 0.5
    chunk_bytes: int = 8 << 20
    start_delay_s: float = 0.0

    def __post_init__(self) -> None:
        require_finite_positive("total_bytes", self.total_bytes)
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError(
                f"read_fraction must be in [0, 1], got {self.read_fraction}"
            )
        require_finite_positive("chunk_bytes", self.chunk_bytes)
        _finite_delay("start_delay_s", self.start_delay_s)

    def total_bytes_hint(self) -> int:
        return self.total_bytes

    def program(self, io: IoHandle) -> Generator:
        if self.start_delay_s:
            yield io.sleep(self.start_delay_s)
        remaining = self.total_bytes
        index = 0
        while remaining > 0:
            size = min(self.chunk_bytes, remaining)
            remaining -= size
            # Chunk i is a read iff the cumulative read quota crosses an
            # integer boundary: reads land every 1/read_fraction chunks.
            is_read = int((index + 1) * self.read_fraction) > int(
                index * self.read_fraction
            )
            if is_read:
                yield from io.read(size)
            else:
                yield from io.write(size)
            index += 1


@dataclass(frozen=True)
class PoissonArrivalPattern(Pattern):
    """Memoryless request arrivals: ``count`` ops with exponential gaps.

    Inter-arrival times are drawn from an exponential distribution with
    mean ``1 / rate_per_s``; each arrival moves ``op_bytes`` (read with
    probability ``read_fraction``, else written).  Draws come from the
    pattern's seeded :class:`~repro.sim.rng.RngStreams` substream keyed by
    the client identity, so runs are reproducible across processes and
    every process sharing the pattern gets an independent arrival stream.

    Arrivals are closed-loop: each drawn gap starts after the previous op
    completes, so a slow server back-pressures subsequent arrivals — the
    blocking-client behaviour everything else in the simulator follows.
    """

    rate_per_s: float
    op_bytes: int
    count: int
    read_fraction: float = 0.0
    seed: int = 0
    start_delay_s: float = 0.0

    def __post_init__(self) -> None:
        require_finite_positive("rate_per_s", self.rate_per_s)
        require_finite_positive("op_bytes", self.op_bytes)
        _count("count", self.count)
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError(
                f"read_fraction must be in [0, 1], got {self.read_fraction}"
            )
        _finite_delay("start_delay_s", self.start_delay_s)

    def total_bytes_hint(self) -> int:
        return self.op_bytes * self.count

    def program(self, io: IoHandle) -> Generator:
        rng = self.stream(io, kind="poisson")
        if self.start_delay_s:
            yield io.sleep(self.start_delay_s)
        for _ in range(self.count):
            gap = float(rng.exponential(1.0 / self.rate_per_s))
            if gap > 0:
                yield io.sleep(gap)
            if self.read_fraction and float(rng.random()) < self.read_fraction:
                yield from io.read(self.op_bytes)
            else:
                yield from io.write(self.op_bytes)


@dataclass(frozen=True)
class OnOffPattern(Pattern):
    """Alternating active/idle phases (a Markov-style on/off source).

    Each of ``cycles`` cycles writes ``on_bytes`` as fast as the server
    admits, sleeps out the remainder of the nominal ``on_s`` window if it
    finished early, then idles ``off_s``.  With ``jitter_s > 0`` the idle
    length is perturbed uniformly in ``±jitter_s`` (seeded per client), so
    several on/off jobs drift in and out of phase instead of thundering in
    lockstep.
    """

    on_bytes: int
    on_s: float
    off_s: float
    cycles: int
    jitter_s: float = 0.0
    seed: int = 0
    start_delay_s: float = 0.0

    def __post_init__(self) -> None:
        require_finite_positive("on_bytes", self.on_bytes)
        require_finite_positive("on_s", self.on_s)
        _finite_delay("off_s", self.off_s)
        _count("cycles", self.cycles)
        _finite_delay("jitter_s", self.jitter_s)
        if self.jitter_s >= self.off_s and self.jitter_s > 0:
            raise ValueError(
                f"jitter_s must be smaller than off_s "
                f"(got {self.jitter_s} vs {self.off_s})"
            )
        _finite_delay("start_delay_s", self.start_delay_s)

    def total_bytes_hint(self) -> int:
        return self.on_bytes * self.cycles

    def program(self, io: IoHandle) -> Generator:
        rng = self.stream(io, kind="onoff") if self.jitter_s else None
        if self.start_delay_s:
            yield io.sleep(self.start_delay_s)
        for cycle in range(self.cycles):
            phase_start = io.now
            yield from io.write(self.on_bytes)
            on_end = phase_start + self.on_s
            if on_end > io.now:
                yield io.sleep(on_end - io.now)
            if cycle == self.cycles - 1:
                break
            idle = self.off_s
            if rng is not None:
                idle += float(rng.uniform(-self.jitter_s, self.jitter_s))
            if idle > 0:
                yield io.sleep(idle)


@dataclass(frozen=True)
class PhasedPattern(Pattern):
    """Sub-patterns executed back to back, ``repeat`` times over.

    The composition primitive behind diurnal/phased load: a day/night
    cycle is ``PhasedPattern((day, night), repeat=days)``.  The hint sums
    the phases' hints (and is unknown if any phase's is).
    """

    phases: Tuple[Pattern, ...]
    repeat: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "phases", tuple(self.phases))
        if not self.phases:
            raise ValueError("phases must be non-empty")
        for phase in self.phases:
            if not isinstance(phase, Pattern):
                raise ValueError(
                    f"phases must be Pattern instances, got {type(phase).__name__}"
                )
        _count("repeat", self.repeat)

    def total_bytes_hint(self) -> Optional[int]:
        total = 0
        for phase in self.phases:
            hint = phase.total_bytes_hint()
            if hint is None:
                return None
            total += hint
        return total * self.repeat

    def program(self, io: IoHandle) -> Generator:
        for _ in range(self.repeat):
            for phase in self.phases:
                yield from phase.program(io)


@dataclass(frozen=True)
class TraceReplayPattern(Pattern):
    """Replay recorded ``(t_offset_s, job, op, nbytes)`` requests.

    Each record is issued at its (scaled) trace offset relative to the
    pattern's start; a request still in flight when the next offset
    arrives back-pressures the replay (offsets are *not* re-clocked), the
    standard closed-loop replay semantic.  Records usually come from
    :func:`repro.workloads.trace.load_trace`, pre-filtered to one job via
    :func:`~repro.workloads.trace.records_by_job`.

    ``time_scale`` stretches/compresses the arrival times and
    ``data_scale`` the volumes — the same two knobs every scenario uses —
    so a production-length trace can be replayed at bench scale.
    """

    records: Tuple[TraceRecord, ...]
    time_scale: float = 1.0
    data_scale: float = 1.0
    start_delay_s: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))
        validate_trace(self.records, source="TraceReplayPattern")
        require_finite_positive("time_scale", self.time_scale)
        require_finite_positive("data_scale", self.data_scale)
        _finite_delay("start_delay_s", self.start_delay_s)

    def _scaled_bytes(self, nbytes: int) -> int:
        return max(1, int(nbytes * self.data_scale))

    def total_bytes_hint(self) -> int:
        return sum(self._scaled_bytes(record.nbytes) for record in self.records)  # repro: allow[no-float-sum] reason=integer byte counts

    def program(self, io: IoHandle) -> Generator:
        start = io.now + self.start_delay_s
        if self.start_delay_s:
            yield io.sleep(self.start_delay_s)
        for record in self.records:
            due = start + record.t_offset_s * self.time_scale
            if due > io.now:
                yield io.sleep(due - io.now)
            nbytes = self._scaled_bytes(record.nbytes)
            if record.op == "read":
                yield from io.read(nbytes)
            else:
                yield from io.write(nbytes)
