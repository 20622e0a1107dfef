#!/usr/bin/env python3
"""Paper experiment §IV-E: surplus-token redistribution (Fig. 5-6).

Three high-priority jobs issue short interleaved I/O bursts while a
low-priority 16-process job hammers the OST continuously.  The report
shows AdapTBF protecting the bursts (big gains versus No BW) while lending
the idle tokens to the hog (far higher utilization than Static BW).

Run:  python examples/bursty_redistribution.py [--full]
"""

import sys

from repro.experiments import fig5_fig6


def main() -> None:
    # The paper's size; by default the scenario's 1/10 bench scale.
    full = {"data_scale": 1.0, "time_scale": 1.0} if "--full" in sys.argv else {}
    comparison = fig5_fig6.run(**full)
    print(fig5_fig6.report(comparison))


if __name__ == "__main__":
    main()
