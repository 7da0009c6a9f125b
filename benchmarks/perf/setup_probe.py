"""Set-up as a user pays it, once.

``run.py`` starts this file in a fresh interpreter and times it from
outside: interpreter start, importing the program, and booting the
workload's first cluster until every daemon shares one full view.

usage: setup_probe.py WORKLOAD SEED SMOKE(0|1)
"""

from __future__ import annotations

import sys

from bootstrap import use_checkout_sources


def main(argv) -> None:
    use_checkout_sources()
    from repro.core import StarfishCluster
    from workloads import WORKLOADS
    name, seed, smoke = argv[1], int(argv[2]), argv[3] == "1"
    StarfishCluster.build(spec=WORKLOADS[name].first_spec(seed, smoke))


if __name__ == "__main__":
    main(sys.argv)
