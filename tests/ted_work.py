"""Zhang–Shasha work of ``bucket`` + ``mine`` on the SQL benchmark bank: the
forest-distance DP cells, rows and blocks that ``stare.ted.ted`` runs,
printed as markdown lines for a CI job summary. It records; it checks
nothing.

    PYTHONPATH=src python3 tests/ted_work.py [--seed 0]

The bank is ``perfbench/sqlbank.py``'s ``write_bank`` at 300 train and 10
dev records, the mine-sql workload's input, written to a temp dir; both
stages run through ``cli.main``. A block is one keyroot pair that ``ted``
leaves to the DP (``stare.ted._blocks``, counted by wrapping it): it runs
one row per node of the first keyroot's subtree and one cell per pair of
the two subtrees' nodes. Every other keyroot pair has a side of one or two
nodes and is written in closed form.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import tempfile
from pathlib import Path

import stare.ted as ted_module
from stare import cli

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import sqlbank  # noqa: E402


def count_work(seed: int) -> dict[str, int]:
    counts = dict.fromkeys(["calls", "pairs", "small", "single", "cells", "rows", "blocks"], 0)
    blocks = ted_module._blocks

    def counted(plan_a, plan_b):
        sizes_a, sizes_b = [k for _, k, _ in plan_a], [k for _, k, _ in plan_b]
        counts["calls"] += 1
        counts["pairs"] += len(sizes_a) * len(sizes_b)
        for cut, key in ((2, "small"), (1, "single")):
            big_a, big_b = sum(k > cut for k in sizes_a), sum(k > cut for k in sizes_b)
            counts[key] += len(sizes_a) * len(sizes_b) - big_a * big_b
        for block in blocks(plan_a, plan_b):
            counts["blocks"] += 1
            counts["rows"] += block[1]
            counts["cells"] += block[1] * block[4]
            yield block

    ted_module._blocks = counted
    try:
        with tempfile.TemporaryDirectory() as tmp:
            sqlbank.write_bank(Path(tmp), 300, 10, seed)
            for stage in ("bucket", "mine"):
                with contextlib.redirect_stdout(sys.stderr):  # keep stdout to the record
                    code = cli.main([stage, "--config", str(Path(tmp) / "config.json"),
                                     "--out", str(Path(tmp) / "run")])
                if code != cli.EXIT_OK:
                    sys.exit(f"{stage} failed")
    finally:
        ted_module._blocks = blocks
    return counts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    c = count_work(args.seed)
    print(f"TED work, SQL bank (300 train, 10 dev, seed {args.seed}), bucket + mine:")
    print(f"- {c['calls']:,} TED calls, {c['pairs']:,} keyroot pairs: "
          f"{c['small'] / c['pairs']:.1%} with a side of one or two nodes (closed form), "
          f"{c['single'] / c['pairs']:.1%} with a one-node side")
    print(f"- forest-distance DP: {c['cells']:,} cells, {c['rows']:,} rows, "
          f"{c['blocks']:,} blocks")


if __name__ == "__main__":
    main()
