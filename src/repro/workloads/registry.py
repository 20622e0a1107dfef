"""The pluggable workload axis: named pattern factories.

Workloads join scenarios, campaigns and mechanisms as the fourth
registry-driven plugin axis.  A *workload factory* is a callable returning
a :class:`~repro.workloads.patterns.Pattern`; registering it in
:data:`WORKLOADS` makes it reachable everywhere by name::

    @WORKLOADS.register("my-load", description="...")
    def _my_load(total_mib: float = 64.0) -> Pattern: ...

    # CLI:       run quickstart --workload my-load --workload-param total_mib=16
    # campaigns: ParameterAxis("workload", ("my-load", "poisson", ...))
    # Python:    spec.with_workload("my-load", {"total_mib": 16})

Factory keyword defaults double as the parameter schema (shared
:class:`~repro.registry.FactoryRegistry` machinery), and the numpy-style
``Parameters`` sections of the factory docstrings feed
``workload describe`` — parameter docs live next to the defaults, never in
hand-maintained help strings.

Volume parameters are in **MiB** (``*_mib``) so CLI overrides stay humane;
factories convert to bytes.  Seeded factories take a ``seed`` that
:meth:`~repro.scenarios.spec.ScenarioSpec.with_workload` defaults to the
run's seed, keeping campaign cells' derived seeds flowing into pattern
randomness automatically.
"""

from __future__ import annotations

import math
from typing import List

from repro.numeric import require_finite_positive
from repro.registry import FactoryRegistry, RegisteredFactory
from repro.workloads.patterns import (
    BurstPattern,
    DelayedContinuousPattern,
    MixedReadWritePattern,
    OnOffPattern,
    Pattern,
    PhasedPattern,
    PoissonArrivalPattern,
    SequentialReadPattern,
    SequentialWritePattern,
    TraceReplayPattern,
)
from repro.workloads.trace import EXAMPLE_TRACE, load_trace

__all__ = [
    "WorkloadRegistry",
    "WORKLOADS",
    "require_finite_positive",
    "finite_int",
    "reachable_secs",
]

MIB = 1 << 20


def finite_int(name: str, value: float) -> int:
    """``int(value)`` of a count or volume scaled from parameter ``name``, or
    a ``ValueError`` naming ``name`` when the scaling overflowed (``inf``) or
    left ``nan`` — where ``int()`` would raise ``OverflowError`` or a message
    that names no parameter."""
    if not -math.inf < value < math.inf:
        raise ValueError(
            f"{name} is too large: it scales a count or volume to {value!r}"
        )
    return int(value)


def reachable_secs(name: str, seconds: float, interval_s: float) -> float:
    """``seconds``, a run cap or an arrival or start time set by parameter
    ``name``, or a ``ValueError`` naming ``name`` when the clock cannot get
    there: the control loop ticks every ``interval_s`` from time 0, and once
    ``t + interval_s == t`` (or ``t`` is ``inf``) every period lands on the
    same instant, so the run never ends.  A long run that can finish passes.
    """
    if not seconds + interval_s > seconds:
        raise ValueError(
            f"{name} is too large: at {seconds!r} s a {interval_s!r} s "
            "control period no longer advances the clock"
        )
    return seconds


def _mib_bytes(name: str, mib: float) -> int:
    """``mib`` MiB in bytes, or a ``ValueError`` naming parameter ``name``."""
    require_finite_positive(name, mib)
    return finite_int(name, mib * MIB)


class WorkloadRegistry(FactoryRegistry):
    """Name → pattern-factory mapping behind ``--workload`` everywhere."""

    kind = "workload"
    override_flag = "--workload-param"

    def build(self, name: str, **overrides) -> Pattern:
        """Materialize the named workload pattern with overrides."""
        pattern = self.get(name).build(**overrides)
        if not isinstance(pattern, Pattern):
            raise TypeError(
                f"workload {name!r} factory returned "
                f"{type(pattern).__name__}, expected a Pattern"
            )
        return pattern

    def _describe_built(self, entry: RegisteredFactory) -> List[str]:
        pattern = self.build(entry.name)
        lines = ["", f"pattern: {type(pattern).__name__}"]
        doc = (type(pattern).__doc__ or "").strip().split("\n")[0]
        if doc:
            lines.append(f"  {doc}")
        hint = pattern.total_bytes_hint()
        volume = f"{hint / MIB:g} MiB" if hint is not None else "open-ended"
        lines.append(f"default volume: {volume}")
        return lines


#: The process-wide default registry; built-in workloads self-register on
#: ``import repro.workloads``.
WORKLOADS = WorkloadRegistry()


# ---------------------------------------------------------------------------
# Built-in workloads: the paper's Filebench shapes + the irregular-demand
# vocabulary (reads, mixed streams, stochastic arrivals, traces).
# ---------------------------------------------------------------------------


@WORKLOADS.register(
    "seq-write",
    description="file-per-process sequential write (the paper's writers)",
)
def _seq_write(
    total_mib: float = 128.0, start_delay_s: float = 0.0
) -> SequentialWritePattern:
    """One private file written sequentially, the paper's base shape.

    Parameters
    ----------
    total_mib:
        Volume written by each process, in MiB.
    start_delay_s:
        Idle time before the first RPC, staggering process start.
    """
    return SequentialWritePattern(
        total_bytes=_mib_bytes("total_mib", total_mib), start_delay_s=start_delay_s
    )


@WORKLOADS.register(
    "seq-read",
    description="file-per-process sequential read (checkpoint restore/staging)",
)
def _seq_read(
    total_mib: float = 128.0, start_delay_s: float = 0.0
) -> SequentialReadPattern:
    """One private file read sequentially over the same NRS/TBF path.

    Parameters
    ----------
    total_mib:
        Volume read by each process, in MiB.
    start_delay_s:
        Idle time before the first RPC.
    """
    return SequentialReadPattern(
        total_bytes=_mib_bytes("total_mib", total_mib), start_delay_s=start_delay_s
    )


@WORKLOADS.register(
    "mixed-rw",
    description="deterministic read/write interleave at a target read fraction",
)
def _mixed_rw(
    total_mib: float = 128.0,
    read_fraction: float = 0.5,
    chunk_mib: float = 8.0,
    start_delay_s: float = 0.0,
) -> MixedReadWritePattern:
    """Analysis-style stream alternating ingest reads and result writes.

    Parameters
    ----------
    total_mib:
        Total volume moved (reads + writes), in MiB.
    read_fraction:
        Fraction of chunks issued as reads, in [0, 1]; the interleave is
        deterministic (largest-remainder), not sampled.
    chunk_mib:
        Chunk granularity of the interleave, in MiB.
    start_delay_s:
        Idle time before the first chunk.
    """
    return MixedReadWritePattern(
        total_bytes=_mib_bytes("total_mib", total_mib),
        read_fraction=read_fraction,
        chunk_bytes=_mib_bytes("chunk_mib", chunk_mib),
        start_delay_s=start_delay_s,
    )


@WORKLOADS.register(
    "burst",
    description="periodic short bursts (the paper's §IV-E/F bursty jobs)",
)
def _burst(
    burst_mib: float = 64.0,
    interval_s: float = 2.0,
    count: int = 8,
    start_delay_s: float = 0.0,
    pace: str = "gap",
) -> BurstPattern:
    """Write-then-idle loop, the paper's bursty Filebench personality.

    Parameters
    ----------
    burst_mib:
        Volume of each burst, in MiB.
    interval_s:
        Idle gap after each burst ("gap" pace) or fixed burst cadence
        ("cadence" pace).
    count:
        Number of bursts.
    start_delay_s:
        Offset of the first burst, interleaving several jobs' bursts.
    pace:
        "gap" (sleep after completion) or "cadence" (fixed period with
        back-pressure on overrun).
    """
    return BurstPattern(
        burst_bytes=_mib_bytes("burst_mib", burst_mib),
        interval_s=interval_s,
        count=count,
        start_delay_s=start_delay_s,
        pace=pace,
    )


@WORKLOADS.register(
    "delayed-continuous",
    description="continuous stream switching on mid-run (the §IV-F trigger)",
)
def _delayed_continuous(
    delay_s: float = 5.0, total_mib: float = 256.0
) -> DelayedContinuousPattern:
    """Continuous sequential stream that starts ``delay_s`` into the run.

    Parameters
    ----------
    delay_s:
        Simulated seconds before the stream switches on.
    total_mib:
        Volume written once active, in MiB.
    """
    return DelayedContinuousPattern(
        delay_s=delay_s, total_bytes=_mib_bytes("total_mib", total_mib)
    )


@WORKLOADS.register(
    "poisson",
    description="memoryless arrivals: exponential gaps between fixed-size ops",
)
def _poisson(
    rate_per_s: float = 8.0,
    op_mib: float = 4.0,
    count: int = 64,
    read_fraction: float = 0.0,
    seed: int = 0,
    start_delay_s: float = 0.0,
) -> PoissonArrivalPattern:
    """Stochastic request stream with exponential inter-arrival gaps.

    Parameters
    ----------
    rate_per_s:
        Mean arrival rate (ops per simulated second).
    op_mib:
        Volume of each op, in MiB.
    count:
        Total ops issued.
    read_fraction:
        Probability each op is a read instead of a write.
    seed:
        Root seed of the pattern's RNG substreams; each client process
        derives an independent stream from it (reproducible across
        worker processes).
    start_delay_s:
        Idle time before the first draw.
    """
    return PoissonArrivalPattern(
        rate_per_s=rate_per_s,
        op_bytes=_mib_bytes("op_mib", op_mib),
        count=count,
        read_fraction=read_fraction,
        seed=seed,
        start_delay_s=start_delay_s,
    )


@WORKLOADS.register(
    "on-off",
    description="alternating active/idle phases with optional seeded jitter",
)
def _on_off(
    on_mib: float = 64.0,
    on_s: float = 2.0,
    off_s: float = 2.0,
    cycles: int = 6,
    jitter_s: float = 0.0,
    seed: int = 0,
    start_delay_s: float = 0.0,
) -> OnOffPattern:
    """Markov-style on/off source: write hard, go idle, repeat.

    Parameters
    ----------
    on_mib:
        Volume written during each active phase, in MiB.
    on_s:
        Nominal active-phase length; early finishers idle out the rest.
    off_s:
        Idle-phase length between active phases.
    cycles:
        Number of on/off cycles.
    jitter_s:
        Uniform ±jitter applied to each idle phase (seeded per client),
        de-phasing multiple on/off jobs.
    seed:
        Root seed for the jitter draws.
    start_delay_s:
        Idle time before the first cycle.
    """
    return OnOffPattern(
        on_bytes=_mib_bytes("on_mib", on_mib),
        on_s=on_s,
        off_s=off_s,
        cycles=cycles,
        jitter_s=jitter_s,
        seed=seed,
        start_delay_s=start_delay_s,
    )


@WORKLOADS.register(
    "diurnal",
    description="day/night load cycles: Poisson day traffic, sparse nights",
)
def _diurnal(
    day_rate_per_s: float = 12.0,
    night_rate_per_s: float = 2.0,
    phase_s: float = 4.0,
    days: int = 2,
    op_mib: float = 2.0,
    read_fraction: float = 0.25,
    seed: int = 0,
) -> PhasedPattern:
    """Phased composite alternating a busy "day" and a quiet "night".

    Each phase is a Poisson stream sized so its expected span is
    ``phase_s`` (``count = rate × phase_s``); ``days`` cycles run back to
    back.  The service-facing effect is a demand level that swings by
    ``day_rate / night_rate`` every phase — the slow-timescale pattern
    adaptive borrowing should exploit.

    Parameters
    ----------
    day_rate_per_s:
        Mean op arrival rate during day phases.
    night_rate_per_s:
        Mean op arrival rate during night phases.
    phase_s:
        Nominal length of each day and each night phase.
    days:
        Number of day+night cycles.
    op_mib:
        Volume of each op, in MiB.
    read_fraction:
        Probability each op is a read.
    seed:
        Root seed for the arrival draws.
    """
    if day_rate_per_s <= 0 or night_rate_per_s <= 0:
        raise ValueError("rates must be positive")
    if phase_s <= 0:
        raise ValueError("phase_s must be positive")
    if days <= 0:
        raise ValueError("days must be positive")

    def _phase(name: str, rate: float, offset: int) -> PoissonArrivalPattern:
        return PoissonArrivalPattern(
            rate_per_s=rate,
            op_bytes=_mib_bytes("op_mib", op_mib),
            count=max(1, finite_int(f"{name} * phase_s", rate * phase_s)),
            read_fraction=read_fraction,
            seed=seed + offset,
        )

    return PhasedPattern(
        phases=(
            _phase("day_rate_per_s", day_rate_per_s, 0),
            _phase("night_rate_per_s", night_rate_per_s, 1),
        ),
        repeat=days,
    )


@WORKLOADS.register(
    "trace-replay",
    description="replay a recorded (t_offset_s, job, op, nbytes) trace",
)
def _trace_replay(
    trace: str = "",
    job: str = "",
    time_scale: float = 1.0,
    data_scale: float = 1.0,
    sort: bool = False,
) -> TraceReplayPattern:
    """Replay recorded requests at their trace offsets.

    Parameters
    ----------
    trace:
        Path to a ``.csv`` or ``.jsonl`` trace file (see
        :mod:`repro.workloads.trace` for the format); empty uses the
        bundled example trace.
    job:
        Replay only this job's records; empty replays the whole trace
        through one process.
    time_scale:
        Multiplier on arrival offsets (compress/stretch the trace).
    data_scale:
        Multiplier on request volumes.
    sort:
        Stably sort records by offset instead of rejecting out-of-order
        traces (for traces merged from per-client logs).
    """
    records = load_trace(trace or EXAMPLE_TRACE, sort=sort)
    if job:
        filtered = tuple(r for r in records if r.job == job)
        if not filtered:
            jobs = sorted({r.job for r in records})
            raise ValueError(
                f"trace has no records for job {job!r}; jobs present: {jobs}"
            )
        records = filtered
    return TraceReplayPattern(
        records=records, time_scale=time_scale, data_scale=data_scale
    )
