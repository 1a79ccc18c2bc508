#!/usr/bin/env python3
"""Tabulate class counts per fiber: closed form against build_poset.

The counts come from ``build_poset``'s multiset walk.  For k = 2 both
columns must agree everywhere (the closed form counts swap orbits, one
per unordered pair profile).  For k >= 3 no closed form is shipped, so
the table reports the built count alone; the k = 3 column is a
convenient place to look for patterns.  ``--rank``, ``--max-coord`` and
``--max-k`` follow the rules of ``weyl-order verify``: the first two
must be positive and ``--max-k`` at least 2, or the call exits with 2.

Example:
    python scripts/poset_size_table.py --rank 2 --max-coord 4 --max-k 3
"""

import argparse
import csv
import itertools
import sys
from dataclasses import dataclass
from pathlib import Path

from weyl_order import Weight, build_poset, count_tuples, poset_size_k2
from weyl_order.cli import at_least_two, positive_int


@dataclass(frozen=True)
class TableConfig:
    rank: int
    max_coord: int
    max_k: int
    out: Path | None


def rows_for(cfg: TableConfig):
    for coords in itertools.product(range(cfg.max_coord + 1), repeat=cfg.rank):
        lam = Weight(coords)
        row = {"lambda": ",".join(str(c) for c in coords)}
        for k in range(2, cfg.max_k + 1):
            row[f"tuples_k{k}"] = count_tuples(lam, k)
            row[f"classes_k{k}"] = len(build_poset(lam, k))
        row["closed_form_k2"] = poset_size_k2(lam)
        yield row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rank", type=positive_int, default=2)
    ap.add_argument("--max-coord", type=positive_int, default=4)
    ap.add_argument("--max-k", type=at_least_two, default=3)
    ap.add_argument("--out", type=Path, default=None, help="optional CSV path")
    args = ap.parse_args(argv)
    cfg = TableConfig(args.rank, args.max_coord, args.max_k, args.out)

    rows = list(rows_for(cfg))
    mismatches = [r for r in rows if r["classes_k2"] != r["closed_form_k2"]]

    header = list(rows[0].keys())
    widths = {h: max(len(h), *(len(str(r[h])) for r in rows)) for h in header}
    print("  ".join(h.ljust(widths[h]) for h in header))
    for r in rows:
        print("  ".join(str(r[h]).ljust(widths[h]) for h in header))
    print(f"\n{len(rows)} fibers; closed form mismatches at k=2: "
          f"{len(mismatches)}")

    if cfg.out is not None:
        cfg.out.parent.mkdir(parents=True, exist_ok=True)
        with open(cfg.out, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=header)
            w.writeheader()
            w.writerows(rows)
        print(f"wrote {cfg.out}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
