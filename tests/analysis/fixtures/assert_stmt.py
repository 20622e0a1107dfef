"""Fixture: one no-assert violation (the assert statement below)."""

from collections import deque


def take(queue: deque) -> object:
    assert queue, "nothing queued"
    return queue.popleft()
