"""Plain-text rendering of experiment outputs.

The benchmark harness prints every figure's underlying rows/series with
these helpers, so a bench run reproduces the paper's reported data as text.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

__all__ = ["format_table", "format_series", "format_gains"]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Fixed-width ASCII table; floats rendered with one decimal."""

    def cell(value: object) -> str:
        if isinstance(value, float):
            if value == float("inf"):
                return "inf"
            return f"{value:.1f}"
        return str(value)

    text_rows = [[cell(v) for v in row] for row in rows]
    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in text_rows))
        if text_rows
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in text_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def pairwise_sum(values: Sequence[float]) -> float:
    """numpy's float64 pairwise summation, operation for operation.

    Below 8 values: left to right from 0.0.  Up to 128: eight strided
    accumulators combined as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then
    the tail in order.  Longer: split at n/2 rounded down to a multiple of
    8 and recurse.  ``pairwise_sum(v) / len(v)`` is bit-equal to
    ``np.mean(v)``, so the rendered series do not move with the
    implementation.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n <= 128:
        r = list(values[:8])
        end = n - n % 8
        for i in range(8, end, 8):
            for j in range(8):
                r[j] += values[i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + (
            (r[4] + r[5]) + (r[6] + r[7])
        )
        for i in range(end, n):
            total += values[i]
        return total
    half = n // 2
    half -= half % 8
    return pairwise_sum(values[:half]) + pairwise_sum(values[half:])


def format_series(
    label: str,
    times: Sequence[float],
    values: Sequence[float],
    resample_s: float = 1.0,
    width_unit: float = 10.0,
) -> str:
    """One-line-per-sample rendering of a throughput series.

    The series is resampled (mean) to ``resample_s`` so the output stays
    readable, with a crude bar of '#' characters (one per ``width_unit``)
    so timeline *shapes* — bursts, plateaus, step-downs — are visible in
    bench logs without plotting.
    """
    if len(times) == 0:
        return f"{label}: (empty)"
    step = max(1, int(round(resample_s / (times[1] - times[0])))) if len(times) > 1 else 1
    lines = [f"{label} (MiB/s, {resample_s:.1f}s buckets)"]
    for start in range(0, len(values), step):
        chunk = values[start : start + step]
        mean = pairwise_sum(chunk) / len(chunk)
        bar = "#" * int(mean / width_unit)
        lines.append(f"  t={times[start]:7.1f}s  {mean:8.1f}  {bar}")
    return "\n".join(lines)


def format_gains(gains: Dict[str, float], title: str) -> str:
    """Render a per-job gain/loss map as a table."""
    rows: List[List[object]] = [
        [job, gains[job]] for job in sorted(gains) if job != "aggregate"
    ]
    if "aggregate" in gains:
        rows.append(["aggregate", gains["aggregate"]])
    return format_table(["job", "gain_%"], rows, title=title)
