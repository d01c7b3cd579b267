"""Record the optimum of every exact input of every workload for a range of seeds.

    python3 perfbench/record.py 0 32        # seeds 0..31

Merges into perfbench/optima.tsv, one ``workload seed optimum...`` line per
seed with one optimum per round.  The optima come from ``check.optimum``
(an acyclicity test, or the rank LP solved with HiGHS), which shares no code
with ``agony``; run.py compares every exact result with them and falls back
to the same oracle for a seed that is not recorded.
"""
from __future__ import annotations

import sys

from run import HERE, WORKLOADS, optimum, read_optima


def main(argv: list[str]) -> int:
    first, stop = int(argv[0]), int(argv[1])
    table = read_optima()
    for name, wl in WORKLOADS.items():
        for seed in range(first, stop):
            optima = [str(optimum(wl, pair[0])) for pair in wl.graphs(f"{name}/{seed}")]
            table[name, str(seed)] = optima
            print(name, seed, *optima, flush=True)
    order = list(WORKLOADS)
    keys = sorted(table, key=lambda key: (order.index(key[0]), int(key[1])))
    (HERE / "optima.tsv").write_text("".join("\t".join([*key, *table[key]]) + "\n" for key in keys))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
