"""Shared fixtures for the benchmark harness.

Every ``bench_fig*.py`` regenerates one table/figure of the paper: it runs
the corresponding experiment (timed by pytest-benchmark), prints the rows /
series the paper reports, and asserts the qualitative shape checks.

Scale: benches run the registered scenarios at their defaults, the reduced
configuration (1/10 data, 1/10 time), so the whole harness runs in about a
minute; ``python -m repro.experiments run figN --full`` regenerates a
figure at the paper's full size.
"""

import pytest


@pytest.fixture
def print_report(capsys):
    """Print an experiment report so it lands in the bench output."""

    def _print(text: str) -> None:
        with capsys.disabled():
            print()
            print(text)

    return _print
