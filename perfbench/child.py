"""One workload process: set up from a fresh interpreter, execute the
fixed operation list once, print the raw measurements as JSON.

    PYTHONPATH=src python3 perfbench/child.py --workload sweep --seed 1 \
        --units 2 --trace 0 --t0 "$(python3 -c 'import time; print(time.monotonic())')"
"""

import argparse
import importlib
import json

from harness import WORKLOADS, Clock, peak_rss_mb


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--units", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, default=None,
                        help="time.monotonic() when the parent launched this process")
    args = parser.parse_args()
    clock = Clock(args.t0)
    workload = importlib.import_module(args.workload)
    result = workload.run(args.seed, args.units, bool(args.trace), clock)
    result |= {"setup_s": clock.setup_s, "import_s": clock.import_s,
               "peak_rss_mb": peak_rss_mb()}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
