"""Float arithmetic whose result does not depend on the interpreter.

Since Python 3.12 the built-in ``sum()`` adds floats with Neumaier
compensation, so the same floats sum to different last bits on 3.11 and
3.12+.  Every float sum whose result reaches an output (a CSV, a campaign
row, a report line, an allocation) goes through :func:`fold_sum` instead:
a plain left-to-right fold, which is what ``sum()`` computed up to 3.11.
Integer sums are exact on every version and keep the built-in; the counts
they add (node counts, slots, OSTs) are checked with :func:`is_count`, and
sizes, rates and scales with :func:`require_finite_positive`.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add
from typing import Any, Iterable, Union

__all__ = ["fold_sum", "is_count", "require_finite_positive"]

Number = Union[int, float]


def fold_sum(values: Iterable[Number]) -> Number:
    """``0 + v0 + v1 + ...`` left to right: Python 3.11's ``sum(values)``."""
    return reduce(add, values, 0)


def is_count(value: Any) -> bool:
    """An ``int`` of at least 1; a ``bool`` is not a count."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def require_finite_positive(name: str, value: float) -> None:
    """Raise a ``ValueError`` naming parameter ``name`` unless ``value`` is
    finite and positive.

    The comparison is negated, so NaN, which fails every comparison, is
    rejected too.  Scales and volumes are checked this way before any
    ``int()`` of them, which raises ``OverflowError`` for ``inf`` and, for
    ``nan``, a message that names no parameter.
    """
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be a finite positive number, got {value!r}")
