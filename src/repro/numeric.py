"""Float arithmetic whose result does not depend on the interpreter.

Since Python 3.12 the built-in ``sum()`` adds floats with Neumaier
compensation, so the same floats sum to different last bits on 3.11 and
3.12+.  Every float sum whose result reaches an output (a CSV, a campaign
row, a report line, an allocation) goes through :func:`fold_sum` instead:
a plain left-to-right fold, which is what ``sum()`` computed up to 3.11.
Integer sums are exact on every version and keep the built-in; the counts
they add (node counts, slots, OSTs) are checked with :func:`is_count`.
"""

from __future__ import annotations

from functools import reduce
from operator import add
from typing import Any, Iterable, Union

__all__ = ["fold_sum", "is_count"]

Number = Union[int, float]


def fold_sum(values: Iterable[Number]) -> Number:
    """``0 + v0 + v1 + ...`` left to right: Python 3.11's ``sum(values)``."""
    return reduce(add, values, 0)


def is_count(value: Any) -> bool:
    """An ``int`` of at least 1; a ``bool`` is not a count."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1
