#!/usr/bin/env python3
"""Paper experiment §IV-H: choosing the observation period (Fig. 9).

Sweeps AdapTBF's token-allocation period over the §IV-F workload and prints
aggregate throughput per period.  Shorter periods adapt to bursts faster;
the paper picks 100 ms because the framework's own overhead (~25 ms per
round in their prototype) bounds how low the period can go.

Run:  python examples/frequency_tuning.py [--full]
"""

import sys

from repro.experiments import fig9


def main() -> None:
    # The paper's size; by default the scenario's 1/10 bench scale.
    full = {"data_scale": 1.0, "time_scale": 1.0} if "--full" in sys.argv else {}
    sweep = fig9.run(**full)
    print(fig9.report(sweep))


if __name__ == "__main__":
    main()
