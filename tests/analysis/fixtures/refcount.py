"""Fixture: one no-refcount violation (the reference-count read below)."""

import sys


def unreferenced(obj: object) -> bool:
    return sys.getrefcount(obj) == 2
