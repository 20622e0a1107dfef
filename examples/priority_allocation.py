#!/usr/bin/env python3
"""Paper experiment §IV-D: priority-proportional token allocation (Fig. 3-4).

Runs four identical 16-process jobs with priorities 10/10/30/50 % under
No BW, Static BW and AdapTBF, then prints the achieved-bandwidth table, the
gain/loss table versus No BW, the per-mechanism throughput timelines and
the programmatic shape checks.

Run:  python examples/priority_allocation.py [--full]
      (--full uses the paper's 1 GiB files; default is a 1/10-scale run)
"""

import sys

from repro.experiments import fig3_fig4


def main() -> None:
    # The paper's size; by default the scenario's 1/10 bench scale.
    full = {"data_scale": 1.0, "time_scale": 1.0} if "--full" in sys.argv else {}
    comparison = fig3_fig4.run(**full)
    print(fig3_fig4.report(comparison))


if __name__ == "__main__":
    main()
