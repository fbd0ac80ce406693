"""Set-up probe: import commprob, build one workload's input groups, exit.

    python3 perfbench/probe.py catalog        # named() for every catalog key
    python3 perfbench/probe.py <group file>   # parse_group_file + generate_group

Prints the orders of the groups built, one line, so the caller can check
that the set-up did its work.  Its wall time from process start to exit is
the benchmark's ``setup_s``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from commprob.cli import parse_group_file  # noqa: E402
from commprob.constructors import catalog_keys, named  # noqa: E402
from commprob.perm import generate_group  # noqa: E402


def main() -> None:
    source = sys.argv[1]
    if source == "catalog":
        groups = [named(key) for key in catalog_keys()]
    else:
        degree, gens = parse_group_file(Path(source).read_text(encoding="utf-8"))
        groups = [generate_group(degree, gens)]
    print(" ".join(str(G.order) for G in groups))


if __name__ == "__main__":
    main()
