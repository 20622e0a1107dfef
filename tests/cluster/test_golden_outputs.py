"""Golden digests under pytest, and under Python 3.12+'s float ``sum()``.

The digests and their producers live in ``golden_outputs.py`` (see its
docstring), which needs neither pytest nor numpy so it can run as a parity
check on interpreters that have neither.
"""

from __future__ import annotations

import builtins
import itertools
import math

import pytest
from golden_outputs import DIGESTS, PRODUCERS

from repro.numeric import fold_sum


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_output_matches_pinned_digest(name):
    assert PRODUCERS[name]() == DIGESTS[name], (
        f"{name} moved: the simulator's output changed"
    )


def compensated_sum(iterable, start=0):
    """``sum()`` as CPython 3.12+ computes it.

    Exact ints add exactly; once the running total is a float, each float
    item is added with Neumaier compensation and the compensation is
    folded in at the end (``builtin_sum_impl``).  Ints that fit a C long
    are added to a float total uncompensated; anything else ends the fast
    path.
    """
    items = iter(iterable)
    total = start
    if type(total) is int:
        for item in items:
            total = total + item
            if type(total) is not int:
                break
    if type(total) is not float:
        for item in items:
            total = total + item
        return total
    comp = 0.0
    for item in items:
        if type(item) is float:
            t = total + item
            if abs(total) >= abs(item):
                comp += (total - t) + item
            else:
                comp += (item - t) + total
            total = t
        elif isinstance(item, int) and -(2**63) <= item < 2**63:
            total += float(item)
        else:
            if comp and math.isfinite(comp):
                total += comp
            for rest in itertools.chain([item], items):
                total = total + rest
            return total
    if comp and math.isfinite(comp):
        total += comp
    return total


def test_compensated_sum_is_not_a_left_fold():
    """The swap below is a check only because the two sums differ."""
    assert compensated_sum([0.1] * 10) == 1.0
    assert fold_sum([0.1] * 10) == 0.9999999999999999
    assert compensated_sum([1.0, 1e100, 1.0, -1e100]) == 2.0
    assert fold_sum([1.0, 1e100, 1.0, -1e100]) == 0.0


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_digest_survives_python312_float_sum(name, monkeypatch):
    """Outputs must not depend on how the interpreter's ``sum()`` rounds.

    Swapping the built-in for 3.12+'s compensated float sum emulates a
    3.12/3.13 run on any interpreter.  ``client-swarm.many-tenants`` and
    ``mechanism-shootout.rows.json`` moved under it while the Eq. 6
    normalizer and the weighted Jain index used the built-in; every float
    sum that reaches an output folds left to right instead
    (``repro.numeric.fold_sum``).
    """
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert PRODUCERS[name]() == DIGESTS[name], (
        f"{name} moved under Python 3.12's float sum()"
    )
