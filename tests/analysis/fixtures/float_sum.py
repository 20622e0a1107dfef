"""Fixture: one no-float-sum violation (the built-in sum below)."""

from typing import List


def total_rate(rates: List[float]) -> float:
    return sum(rates)
