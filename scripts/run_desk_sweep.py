#!/usr/bin/env python3
"""Desk sweep: run the full verify sweep and histogram the cover kinds.

Runs the same checks as ``weyl-order verify`` (closed-form class counts,
closed-form extremes, dimension monotonicity, coroot ledgers, unique
dimension maxima, coroot table reports), then walks every k = 2 quotient
in the sweep range and tallies how its cover edges classify.

Example:
    python scripts/run_desk_sweep.py --max-coord 4 --jobs 4
"""

import argparse
import itertools
import json
import sys
import time
from collections import Counter
from pathlib import Path

from weyl_order import Weight, build_poset
from weyl_order.cli import (SweepConfig, at_least_two, check_sweep_size,
                            family_list, positive_int, run_sweep)


def cover_histogram(max_coord: int) -> dict:
    """Classify every cover edge over rank 2, k = 2, coords <= max_coord."""
    counts = Counter()
    witnesses = Counter()
    edges = 0
    for coords in itertools.product(range(max_coord + 1), repeat=2):
        for e in build_poset(Weight(coords), 2).cover_edges:
            edges += 1
            counts[e.kind.value] += 1
            if e.witness is not None:
                witnesses[e.witness.describe()] += 1
    return {"edges": edges, "kinds": dict(counts),
            "witnesses": dict(witnesses.most_common())}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--families", type=family_list, default="A,C,B,D")
    ap.add_argument("--max-coord", type=positive_int, default=3)
    ap.add_argument("--max-k", type=at_least_two, default=3)
    ap.add_argument("--jobs", type=positive_int, default=1)
    ap.add_argument("--out-dir", type=Path, default=Path("sweep_out"))
    args = ap.parse_args(argv)
    cfg = SweepConfig(families=args.families,
                      max_coord=args.max_coord, max_k=args.max_k)
    try:  # before --out-dir is made
        check_sweep_size(cfg)
    except ValueError as e:
        ap.error(str(e))
    try:  # before the sweep, not after
        args.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        ap.error(f"--out-dir {str(args.out_dir)!r}: cannot create it: "
                 f"{e.strerror or e}")
    out = args.out_dir / "desk_sweep.json"
    if out.is_dir():
        ap.error(f"--out-dir {str(args.out_dir)!r}: {out.name} is a directory")

    t0 = time.perf_counter()
    results = run_sweep(cfg, args.jobs)
    sweep_dt = time.perf_counter() - t0

    violations = [v for r in results for v in r["violations"]]
    skipped = sum(1 for r in results if r["skipped"])
    print(f"verify: {len(results)} checks in {sweep_dt:.2f}s, "
          f"{len(violations)} violations, {skipped} skipped")
    for v in violations[:10]:
        print(f"  VIOLATION: {v}")

    t0 = time.perf_counter()
    hist = cover_histogram(cfg.max_coord)
    hist_dt = time.perf_counter() - t0
    print(f"covers: {hist['edges']} edges in {hist_dt:.2f}s")
    for kind, count in sorted(hist["kinds"].items()):
        print(f"  {kind}: {count}")

    payload = {"config": {"families": cfg.families, "max_coord": cfg.max_coord,
                          "max_k": cfg.max_k, "jobs": args.jobs,
                          "out_dir": str(args.out_dir)},
               "verify_seconds": round(sweep_dt, 3),
               "num_checks": len(results),
               "num_violations": len(violations),
               "num_skipped": skipped,
               "cover_histogram": hist,
               "cover_seconds": round(hist_dt, 3)}
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
