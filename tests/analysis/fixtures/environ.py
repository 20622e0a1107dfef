"""Fixture: one no-environ violation (the environment read below)."""

import os


def paper_size() -> bool:
    return bool(os.environ.get("FULL"))
