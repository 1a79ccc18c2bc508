"""Command line front end.

Subcommands: poset (build and export a quotient), max (closed-form bottom
and top), covers (classified cover edges), dim (dimension product of one
tuple), size (fiber and class counts), verify (the default desk sweep).

Exit codes: 0 success, 1 verify found violations, 2 argument or parse
problems (an --out-dir that cannot be written included), 3 enumeration
guard exceeded.  The tuple budget of poset, covers and verify can also
be set through the WEYL_ORDER_GUARD environment variable; an explicit
--guard wins over it.  max and dim, which no guard covers, take fixed
limits instead (MAX_K, MAX_DIM_RANK), checked before any part or coroot
is built, and verify bounds its count of checks (MAX_SWEEP_CHECKS)
before it lists its fibers; past one, the command exits 2.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import os
import sys
from pathlib import Path

from .dimensions import (verify_coroot_inequalities_k2, verify_max_dim,
                         verify_monotone_k2, weyl_dim)
from .posets import (_COUNT_CAP, _COUNT_DIGITS, _SLOT, DEFAULT_GUARD,
                     GuardExceeded, _check_fiber, _file_chunks,
                     _json_array_chunks, _layout, _quote, build_poset,
                     count_tuples, maximal_element, minimal_element,
                     poset_size_k2)
from .roots import (FAMILIES, base_rank, check_admissible,
                    coroot_table_report, expected_table_report, iota,
                    parse_system_name, root_system, spin_nodes)
from .tuples import WeightTuple
from .weights import Weight, _Value


# Work bounds of the commands no tuple guard covers.  max builds k parts
# and holds them all; dim builds the positive coroots of its system, about
# n^2 of them at rank n, in time growing about as n^3; verify holds its
# fiber list, and every check's row until the report is written.
MAX_K = 10_000
MAX_DIM_RANK = 32
MAX_SWEEP_CHECKS = 10**5


def check_bound(name: str, value: int, limit: int) -> None:
    """Raise ValueError, naming the input, when value is past limit."""
    if value > limit:
        raise ValueError(f"{name} is over the limit of {limit}")


def parse_weight(text: str) -> Weight:
    try:
        return Weight(tuple(int(c) for c in text.split(",")))
    except ValueError as e:
        raise ValueError(f"cannot parse weight {text!r}: {e}") from None


def parse_tuple(text: str) -> WeightTuple:
    return WeightTuple(tuple(parse_weight(p) for p in text.split("/")))


def _slug(lam: Weight) -> str:
    return "-".join(str(c) for c in lam.omega)


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"{value} is not positive")
    return value


def at_least_two(text: str) -> int:
    value = int(text)
    if value < 2:
        raise ValueError(f"{value} is below 2")
    return value


def family_list(text: str) -> tuple[str, ...]:
    families = tuple(text.split(","))
    for i, fam in enumerate(families):
        if fam not in FAMILIES:
            raise argparse.ArgumentTypeError(f"unknown family {fam!r}")
        if fam in families[:i]:
            raise argparse.ArgumentTypeError(f"repeated family {fam!r}")
    return families


def _guard_from(args) -> int:
    if args.guard is not None:
        return args.guard
    raw = os.environ.get("WEYL_ORDER_GUARD", str(DEFAULT_GUARD))
    try:
        return positive_int(raw)
    except ValueError:
        raise ValueError("WEYL_ORDER_GUARD must be a positive integer, "
                         f"got {raw!r}") from None


def _unwritable(path: Path, e: OSError) -> ValueError:
    """A path that cannot be written is an argument problem, reported
    against --out-dir."""
    return ValueError(f"cannot write {path.name} under --out-dir "
                      f"{str(path.parent)!r}: {e.strerror or e}")


def _make_out_dir(path: Path):
    """Create the directory that will hold path."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise _unwritable(path, e) from None


def _write_text(path: Path, text, newline: str | None = None):
    """Write one output file, creating its directory.  text is one string
    or an iterable of string pieces, written in turn, so a file streamed
    as pieces is never held whole."""
    _make_out_dir(path)
    pieces = iter((text,) if isinstance(text, str) else text)
    try:
        with path.open("w", newline=newline) as fh:
            # a text write costs far more than a join item, so the pieces
            # go out 64 at a time (a poset piece holds at most one class
            # entry or cover row)
            while block := list(itertools.islice(pieces, 64)):
                fh.write("".join(block))
    except OSError as e:
        raise _unwritable(path, e) from None


# -- verify sweep ------------------------------------------------------------

class SweepConfig(_Value):
    _fields = ("families", "max_coord", "max_k", "guard", "corrupt")

    def __init__(self, families: tuple[str, ...] = ("A", "C", "B", "D"),
                 max_coord: int = 3, max_k: int = 3,
                 guard: int = DEFAULT_GUARD, corrupt: bool = False):
        vars(self).update(families=families, max_coord=max_coord,
                          max_k=max_k, guard=guard, corrupt=corrupt)

    def ambient_rank(self, family: str) -> int:
        # base rank 2 throughout the sweep
        return 2 + spin_nodes(family)


def sweep_fibers(cfg: SweepConfig) -> list[tuple]:
    """The sweep's fibers (lambda, k), in report order: every nonzero
    lambda (a, b) with coordinates up to max_coord, at each k from 2 to
    max_k.  Each entry is picklable."""
    coords = range(cfg.max_coord + 1)
    return [((a, b), k) for a in coords for b in coords if (a, b) != (0, 0)
            for k in range(2, cfg.max_k + 1)]


def fiber_checks(k: int) -> tuple[str, ...]:
    """The kinds of check run on a fiber at k, per family, in report order."""
    k2 = ("size_k2", "monotone_k2", "ledger_k2") if k == 2 else ()
    return k2 + ("extremes", "max_dim")


def sweep_check_count(cfg: SweepConfig) -> int:
    """len(run_sweep(cfg)), counted without listing a fiber: per family a
    table check, and per lambda three k = 2 checks plus two for each k
    from 2 to max_k."""
    lams = (cfg.max_coord + 1) ** 2 - 1
    return len(cfg.families) * (1 + lams * (2 * cfg.max_k + 1))


def check_sweep_size(cfg: SweepConfig) -> None:
    """Raise ValueError, naming --max-coord and --max-k, when the sweep
    of cfg has more than MAX_SWEEP_CHECKS checks."""
    count = sweep_check_count(cfg)
    check_bound(f"the sweep of --max-coord {cfg.max_coord} and --max-k "
                f"{cfg.max_k} ({count} checks)", count, MAX_SWEEP_CHECKS)


def run_sweep_item(item: tuple, poset, corrupt: bool = False) -> dict:
    """Execute one verify check; never raises, reports instead.

    item is (kind, family, rank, lambda, k); a table check has no lambda
    or k, reads no poset, and with corrupt finds a planted coroot missing
    from the table (the --selftest-corrupt self-test).  poset() returns
    the fiber's shared poset or raises GuardExceeded.
    """
    kind, fam, rank, lam_omega, k = item
    name = f"{kind}:{fam}{rank}"
    if lam_omega is not None:
        name += f":lam={','.join(str(c) for c in lam_omega)}:k={k}"
    out = {"item": name, "ok": True, "skipped": False, "violations": []}

    def fail(msg: str):
        out["ok"] = False
        out["violations"].append(msg)

    try:
        if kind == "table":
            # each call builds a fresh report, its lists sorted
            got = coroot_table_report(fam, rank)
            if corrupt:
                got["missing_from_table"].append(tuple([1] * rank))
            if got != expected_table_report(fam, rank):
                fail(f"coroot table report for {fam}{rank} deviates from the "
                     f"documented discrepancy: {got}")
            return out

        if kind == "size_k2":
            fiber = poset()
            formula = poset_size_k2(fiber.lam)
            if len(fiber) != formula:
                fail(f"class count {len(fiber)} != closed form {formula}")
        elif kind == "extremes":
            fiber = poset()
            if fiber.closed_form_bottom_index != fiber.bottom_index:
                fail("closed-form bottom misses the unique minimal class")
            if fiber.closed_form_top_index != fiber.top_index:
                fail("closed-form top misses the unique maximal class")
            if not fiber.transitive_ok():
                fail("strict order is not transitive")
        else:
            # looked up per call, so a rebound verifier takes effect
            verifier = {"monotone_k2": verify_monotone_k2,
                        "ledger_k2": verify_coroot_inequalities_k2,
                        "max_dim": verify_max_dim}[kind]
            for v in verifier(poset(), root_system(fam, rank)):
                fail(str(v))
    except GuardExceeded as e:
        out["skipped"] = True
        out["note"] = str(e)
    except Exception as e:  # a crashed check is a failed check, not a crash
        fail(f"unexpected error: {type(e).__name__}: {e}")
    return out


def run_fiber(cfg: SweepConfig, fiber: tuple) -> list[list[dict]]:
    """Run the checks of one fiber (lambda, k) on one poset: per family of
    cfg, the rows of fiber_checks(k).

    The poset is built on first use.  Over the guard, each check's call
    raises GuardExceeded again, before any tuple is enumerated.
    """
    lam, k = fiber
    poset = functools.cache(lambda: build_poset(Weight(lam), k, cfg.guard))
    return [[run_sweep_item((kind, fam, cfg.ambient_rank(fam), lam, k), poset)
             for kind in fiber_checks(k)]
            for fam in cfg.families]


def pool_size(jobs: int, cpus: int | None, tasks: int) -> int:
    """Worker count: never more than asked for, CPUs present, or tasks."""
    return max(1, min(jobs, cpus or 1, tasks))


def run_sweep(cfg: SweepConfig, jobs: int = 1) -> list[dict]:
    """Run the sweep: the table checks in this process, then the fibers,
    each on its own poset.  The rows come back as the report lists them,
    the table rows first, then per family every fiber's rows."""
    rows = [run_sweep_item(("table", fam, cfg.ambient_rank(fam), None, None),
                           None, cfg.corrupt) for fam in cfg.families]
    fibers = sweep_fibers(cfg)
    run = functools.partial(run_fiber, cfg)
    workers = pool_size(jobs, os.cpu_count(), len(fibers))
    if workers > 1:
        # imported here: a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(run, fibers))
    else:
        done = list(map(run, fibers))
    for per_fiber in zip(*done):  # one family's rows, fiber by fiber
        rows += itertools.chain(*per_fiber)
    return rows


def report_payload(cfg: SweepConfig, results: list[dict]) -> dict:
    """The content of verify_report.json: the sweep's config, its counts,
    the skipped items' names and the rows."""
    return {
        "config": {"families": list(cfg.families), "max_coord": cfg.max_coord,
                   "max_k": cfg.max_k, "guard": cfg.guard,
                   "corrupt": cfg.corrupt},
        "num_checks": len(results),
        "num_violations": sum(len(r["violations"]) for r in results),
        "skipped": [r["item"] for r in results if r["skipped"]],
        "items": results,
    }


_JSON_BOOL = {b: json.dumps(b) for b in (False, True)}


@functools.cache
def _item_layout(keys: tuple[str, ...]) -> str:
    """The ``_layout`` template at indent 4 of a report row with these
    keys: one slot per key, in sorted key order."""
    return _layout(dict.fromkeys(sorted(keys), _SLOT), 4)


def _item_text(row: dict) -> str:
    """One element of the report's items array: its key set's template
    filled with the fields' JSON texts in sorted key order (item, a
    skipped row's note, ok, skipped, violations).  A row with any other
    key set leaves the template's slot count unmatched and raises."""
    violations = row["violations"]
    texts = [_quote(row["item"]), _JSON_BOOL[row["ok"]],
             _JSON_BOOL[row["skipped"]],
             # most rows have none; _json_array_chunks writes [] for them too
             "".join(_json_array_chunks(map(_quote, violations), 6))
             if violations else "[]"]
    if "note" in row:
        texts.insert(1, _quote(row["note"]))
    return _item_layout(tuple(row)) % tuple(texts)


def _report_chunks(payload: dict):
    """verify_report.json in pieces, for a writer to stream: joined, the
    bytes json.dumps(payload, sort_keys=True, indent=2) gives, plus a
    newline (``_file_chunks``, its items and skipped arrays streamed)."""
    return _file_chunks(payload, items=map(_item_text, payload["items"]),
                        skipped=map(_quote, payload["skipped"]))


def cmd_verify(args) -> int:
    cfg = SweepConfig(families=args.families,
                      max_coord=args.max_coord, max_k=args.max_k,
                      guard=_guard_from(args), corrupt=args.selftest_corrupt)
    check_sweep_size(cfg)
    out_dir = Path(args.out_dir)
    _make_out_dir(out_dir / "verify_report.json")  # before the sweep, not after
    results = run_sweep(cfg, args.jobs)

    violations = [v for r in results for v in r["violations"]]
    payload = report_payload(cfg, results)
    _write_text(out_dir / "verify_report.json", _report_chunks(payload))
    table = io.StringIO()
    w = csv.writer(table)
    w.writerow(["item", "ok", "skipped"])
    for r in results:
        w.writerow([r["item"], r["ok"], r["skipped"]])
    _write_text(out_dir / "verify_report.csv", table.getvalue(), newline="")
    print(f"{len(results)} checks, {len(violations)} violations, "
          f"{len(payload['skipped'])} skipped")
    for v in violations[:20]:
        print(f"  VIOLATION: {v}")
    return 1 if violations else 0


# -- single-shot subcommands ---------------------------------------------------

def cmd_poset(args) -> int:
    lam = parse_weight(args.lam)
    guard = _guard_from(args)
    out_dir = Path(args.out_dir)
    stem = f"poset_lam{_slug(lam)}_k{args.k}"
    # the guard before the directory, the directory before the poset: a
    # rejected call creates nothing, an unwritable one builds nothing
    _check_fiber(lam, args.k, guard)
    _make_out_dir(out_dir / f"{stem}.json")
    poset = build_poset(lam, args.k, guard)
    # the chunk calls compute the edges, kinds and labels, so whatever can
    # raise does so before a file is opened
    files = {f"{stem}.json": poset.json_chunks()}
    if args.dot:
        files[f"{stem}.dot"] = poset.dot_chunks()
    for name, pieces in files.items():
        _write_text(out_dir / name, pieces)
    print(f"{lam} k={args.k}: {len(poset.classes)} classes, "
          f"{sum(map(len, poset.cover_rows))} cover edges")
    return 0


def cmd_max(args) -> int:
    check_bound(f"--k {args.k}", args.k, MAX_K)
    lam = parse_weight(args.lam)
    bottom = minimal_element(lam, args.k)
    top = maximal_element(lam, args.k)
    print(f"bottom {bottom}")
    print(f"top    {top}")
    if args.json:
        _write_text(Path(args.out_dir) / f"max_lam{_slug(lam)}_k{args.k}.json",
                    _file_chunks({"lambda": list(lam.omega), "k": args.k,
                                  "bottom": bottom.to_json(),
                                  "top": top.to_json()}))
    return 0


def cmd_covers(args) -> int:
    lam = parse_weight(args.lam)
    guard = _guard_from(args)
    path = Path(args.out_dir) / f"covers_lam{_slug(lam)}_k{args.k}.json"
    if args.json:  # as in cmd_poset, and before any cover line prints
        _check_fiber(lam, args.k, guard)
        _make_out_dir(path)
    out, chunks = build_poset(lam, args.k, guard).covers_text(args.json)
    sys.stdout.write(out)
    if chunks is not None:
        _write_text(path, chunks)
    return 0


def cmd_dim(args) -> int:
    family, rank = parse_system_name(args.type)
    tup = parse_tuple(args.tuple)
    check_admissible(tup.parts[0], family, rank)  # before any coroot is built
    check_bound(f"--type {args.type} (rank {rank})", rank, MAX_DIM_RANK)
    rs = root_system(family, rank)
    dims = [weyl_dim(iota(p, rs)) for p in tup.parts]
    total = math.prod(dims)
    print(f"{' * '.join(str(d) for d in dims)} = {total}")
    if args.json:
        _write_text(Path(args.out_dir) / f"dim_{rs.name}.json",
                    _file_chunks({"system": rs.name, "tuple": tup.to_json(),
                                  "part_dims": dims, "dim": total}))
    return 0


def cmd_size(args) -> int:
    lam = parse_weight(args.lam)
    try:  # the fiber rule and a count stopped past what prints
        _check_fiber(lam, args.k, _COUNT_CAP)
    except GuardExceeded:
        raise ValueError(f"--lambda {args.lam} --k {args.k} give at least "
                         f"10**{_COUNT_DIGITS} ordered tuples, past the "
                         "limit of what size prints") from None
    ordered = count_tuples(lam, args.k)
    print(f"ordered tuples: {ordered}")
    if args.k == 2:
        print(f"classes (closed form): {poset_size_k2(lam)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="weyl-order", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, guard=False, json_out=False, out_dir=True):
        p.add_argument("--lambda", dest="lam", required=True,
                       help="dominant weight, comma separated, e.g. 2,1")
        p.add_argument("--k", type=positive_int, default=2)
        if out_dir:
            p.add_argument("--out-dir", default=".")
        if guard:
            p.add_argument("--guard", type=positive_int, default=None,
                           help=f"tuple enumeration budget (default {DEFAULT_GUARD})")
        if json_out:
            p.add_argument("--json", action="store_true",
                           help="also write a JSON artifact")

    p = sub.add_parser("poset", help="build a quotient poset and export it")
    common(p, guard=True)
    p.add_argument("--dot", action="store_true", help="also write Graphviz")
    p.set_defaults(func=cmd_poset)

    p = sub.add_parser("max", help="closed-form bottom and top tuples")
    common(p, json_out=True)
    p.set_defaults(func=cmd_max)

    p = sub.add_parser("covers", help="classified cover edges")
    common(p, guard=True, json_out=True)
    p.set_defaults(func=cmd_covers)

    p = sub.add_parser("dim", help="dimension product of one tuple")
    p.add_argument("--type", required=True, help="root system, e.g. C2")
    p.add_argument("--tuple", required=True,
                   help="parts separated by '/', e.g. 2,1/0,0")
    p.add_argument("--out-dir", default=".")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_dim)

    p = sub.add_parser("size", help="fiber size and class count")
    common(p, out_dir=False)
    p.set_defaults(func=cmd_size)

    p = sub.add_parser("verify", help="run the default desk sweep")
    p.add_argument("--families", type=family_list, default="A,C,B,D")
    p.add_argument("--max-coord", type=positive_int, default=3)
    p.add_argument("--max-k", type=at_least_two, default=3)
    p.add_argument("--jobs", type=positive_int, default=1)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--guard", type=positive_int, default=None)
    p.add_argument("--selftest-corrupt", action="store_true",
                   help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code else 0
    try:
        return args.func(args)
    except GuardExceeded as e:
        print(f"guard exceeded: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
