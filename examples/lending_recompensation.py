#!/usr/bin/env python3
"""Paper experiment §IV-F: token lending and re-compensation (Fig. 7-8).

Four equal-priority jobs; jobs 1-3 are quiet early (lending their tokens to
the busy job 4) and switch on continuous streams at scaled 20/50/80 s.  The
report prints each job's lending/borrowing *record* trajectory — the Fig. 7
arcs: records climb while lending, then fall as AdapTBF reclaims tokens
from the borrower once the lenders' own demand arrives.

Run:  python examples/lending_recompensation.py [--full]
"""

import sys

from repro.experiments import fig7_fig8


def main() -> None:
    # The paper's size; by default the scenario's 1/10 bench scale.
    full = {"data_scale": 1.0, "time_scale": 1.0} if "--full" in sys.argv else {}
    comparison = fig7_fig8.run(**full)
    print(fig7_fig8.report(comparison))


if __name__ == "__main__":
    main()
