#!/usr/bin/env python3
"""Time the poset layers on the benchmark fibers and write BENCH_<label>.json.

For the fiber of each ``perfbench`` workload (for ``sweep``, the largest
fiber of its grid), and for (1,)*7 at k = 2, which no workload runs (its
entry reads ``"perfbench": false``), it records the best of ``--repeat`` wall times of
``build_poset``, its stat step on its own (``stat_step``: every multiset
of the fiber scored, the multisets walked first and untimed), the order
as down-sets (``TuplePoset._down``), the cover walk
(``cover_rows``), at k = 2 the class frames (``frames``: every entry of
``TuplePoset._uppers`` filled) and then the covers classified by kind
alone (``decisions``: every row of the decision list,
``_cover_decisions``, which all the poset writers read), the ``covers``
command's output read off it
(``TuplePoset.covers_text``: the stdout lines and the covers JSON
file, labels included) and the witness objects built from it
(``cover_edges``), and the two file writers (``json_chunks`` and
``dot_chunks``, every piece read).  Each layer is timed on a poset whose
earlier layers are already built, so no time holds another layer's: at
k = 2 ``frames``, ``decisions`` and ``cover_edges`` add up to what
``cover_edges`` costs on its own.  Under ``verify`` it records the best in-process times of the ``sweep``
workload's whole sweep (``run_sweep`` at ``--max-coord 5 --max-k 4``)
and of its report writer.  Under ``import`` it records the best and
the median ``import_s`` of ``--repeat`` fresh ``python3 -I`` children,
each timing ``import weyl_order, weyl_order.cli`` and the four root
systems of the sweep after the modules ``perfbench``'s child loads
first, as ``perfbench``'s set-up does.  It also records
the tracemalloc peak of ``build_poset``, and of the cover walk next to
the bytes of the masks it
walks and, at k = 2, the bytes the decision list keeps, the sizes
(classes, covers, characters written) and where the numbers come from:
the git commit of the checkout the timed ``weyl_order`` package was
imported from, whether the package's files differ from that commit,
Python version, nproc and the package's line count (``src_lines``).  So
a parent tree timed through ``PYTHONPATH=<parent>/src`` records its own
commit and lines.  Standard library only.

The host's speed moves between runs, so a burst of a fixed probe loop
runs right before and right after each pass.  Per fiber the file holds
``probe_s``, the best probe time over its passes, and next to the raw
``seconds_min`` the ``seconds_scaled_min``: those best times scaled to
the speed at which one probe takes ``REF_PROBE_S``, as ``perfbench``
reports its times at a reference speed.  Scaled times of runs taken
minutes apart agree better than raw ones, but on a shared host a slow
phase can hit the layers harder than the probe, so a before/after claim
still wants the two trees' runs interleaved.

Example:
    PYTHONPATH=src python scripts/bench_layers.py --label after --repeat 7
"""

import argparse
import json
import operator
import os
import platform
import re
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import weyl_order
from weyl_order import Weight, build_poset, posets, root_system, tuples
from weyl_order.cli import (SweepConfig, _report_chunks, positive_int,
                            report_payload, run_sweep)

ROOT = Path(__file__).resolve().parents[1]
# the weyl_order package being timed, which need not be this script's
# checkout's (PYTHONPATH=<parent>/src times a parent tree)
PACKAGE = Path(weyl_order.__file__).resolve().parent

# the fibers of perfbench/run.py's workloads, by workload name
FIBERS = {
    "sweep": ((5, 5), 4),
    "poset_k3": ((6, 6, 6), 3),
    "poset_k6": ((5, 5), 6),
    "covers_k2": ((2, 2, 2, 2, 2, 2), 2),
}
# fibers timed next to them that no perfbench workload runs: every one of
# the 167 covers of (1,)*7 is of the second kind, the other end of the
# k = 2 decision pass from (2,)*6
OTHER_FIBERS = {
    "ones_k2": ((1,) * 7, 2),
}
# perfbench's sweep workload, run in process
SWEEP = {"max_coord": 5, "max_k": 4}
# One import child: it loads what perfbench/child.py imports before the
# package, then prints the seconds that importing the package and the
# CLI and building the sweep's root systems take.  argv[1] is the
# directory to import weyl_order from, argv[2] the systems as a JSON list
# of [family, rank] pairs.
IMPORT_CHILD = """
import inspect, json, statistics, signal, resource, functools, array, collections
import sys, time
sys.path.insert(0, sys.argv[1])
t0 = time.perf_counter()
import weyl_order, weyl_order.cli
for family, rank in json.loads(sys.argv[2]):
    weyl_order.root_system(family, rank)
print(time.perf_counter() - t0)
"""


# The probe: a fixed loop of the kinds of work the package does (tuple
# hashing, list stores, coordinatewise comparison of two vectors, OR into
# a mask of a few thousand bits) that keeps nothing it allocates, so its
# time tracks the host's speed.  REF_PROBE_S is about its usual time on a
# shared 2-vCPU Xeon under Python 3.11.
PROBE_LOOPS = 300
PROBE_BURST = 10
REF_PROBE_S = 100e-6
_LOW, _HIGH = tuple(range(12)), tuple(range(1, 13))


def probe_once() -> float:
    slots, mask, s = [0] * 256, 0, 0
    t0 = time.perf_counter()
    for i in range(PROBE_LOOPS):
        s = (s + hash((i, s)) + slots[i & 255]) & 0xFFFF
        slots[i & 255] = s
        if i & 3 == 0 and all(map(operator.le, _LOW, _HIGH)):
            mask |= 1 << (i * 23 % 3700)
    return time.perf_counter() - t0


def probe_burst() -> list[float]:
    return [probe_once() for _ in range(PROBE_BURST)]


def label_text(text: str) -> str:
    """A label is a file-name piece: letters, digits, '.', '_' or '-'."""
    if not re.fullmatch(r"[A-Za-z0-9._-]+", text):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a label (letters, digits, '.', '_', '-')")
    return text


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def covers_text(poset) -> int:
    """The covers command's stdout and JSON file, every piece read: the
    characters built."""
    out, chunks = poset.covers_text(True)
    return len(out) + sum(map(len, chunks))


def stat_step(lam: Weight, k: int):
    """build_poset's stat step on the fiber over lam at k, as a call that
    scores every multiset, the multisets walked when this returns.  A tree
    without ``posets._stat_keys`` scored the multisets one at a time
    through per-call memos of the part window values and of the column
    rule; its step is timed that way."""
    multisets = list(posets._part_multisets(lam.omega, k))
    if hasattr(posets, "_stat_keys"):
        width = posets._field_width(sum(lam.omega))
        return lambda: posets._stat_keys(multisets, k, width)

    def memo_route():
        values = posets._PerCall(tuples._part_window_values).__getitem__
        column = posets._PerCall(tuples._column_stats).__getitem__
        return [tuples._sorted_prefix_stats(map(values, ms), column)
                for ms in multisets]
    return memo_route


def layer_times(lam: Weight, k: int) -> tuple[dict, dict]:
    """One pass over the layers of a fresh poset: (seconds, sizes)."""
    seconds, sizes = {}, {}
    seconds["build_poset"], poset = timed(lambda: build_poset(lam, k))
    seconds["stat_step"], _ = timed(stat_step(lam, k))
    seconds["_down"], _ = timed(lambda: poset._down)
    seconds["cover_rows"], rows = timed(lambda: poset.cover_rows)
    if k == 2:
        seconds["frames"], _ = timed(
            lambda: list(map(poset._uppers.__getitem__, range(len(poset)))))
        seconds["decisions"], _ = timed(lambda: poset._cover_decisions)
        seconds["covers_text"], _ = timed(lambda: covers_text(poset))
        seconds["cover_edges"], _ = timed(lambda: poset.cover_edges)
    seconds["json_chunks"], sizes["json_chars"] = timed(
        lambda: sum(map(len, poset.json_chunks())))
    seconds["dot_chunks"], sizes["dot_chars"] = timed(
        lambda: sum(map(len, poset.dot_chunks())))
    sizes["classes"] = len(poset)
    sizes["covers"] = sum(map(len, rows))
    return seconds, sizes


def layer_memory(lam: Weight, k: int) -> dict:
    """The tracemalloc peak of build_poset; the tracemalloc peak of
    cover_rows, with the order built first, and the bytes of the masks it
    walks; at k = 2 also the bytes the decision list keeps (tracemalloc
    current once it is built, with the order and the rows built first)."""
    tracemalloc.start()
    try:
        poset = build_poset(lam, k)
        build_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    down_bytes = sum(map(sys.getsizeof, poset._down))
    tracemalloc.start()
    try:
        poset.cover_rows
        out = {"build_poset_peak_bytes": build_peak,
               "cover_rows_peak_bytes": tracemalloc.get_traced_memory()[1],
               "down_bytes": down_bytes}
        if k == 2:
            tracemalloc.clear_traces()  # count what is allocated from here
            poset._cover_decisions
            out["cover_decisions_bytes"] = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return out


def verify_times() -> tuple[dict, dict]:
    """One in-process pass of the sweep workload: (seconds, sizes).  Each
    pass starts from empty root-system tables, as a fresh verify call
    does.  The report writer's pieces are all read, and json.dumps of the
    same payload, the route it replaces, is timed next to it."""
    cfg = SweepConfig(**SWEEP)
    root_system.cache_clear()
    seconds = {}
    seconds["run_sweep"], rows = timed(lambda: run_sweep(cfg))
    payload = report_payload(cfg, rows)
    seconds["report_chunks"], chars = timed(
        lambda: sum(map(len, _report_chunks(payload))))
    seconds["report_json_dumps"], _ = timed(
        lambda: json.dumps(payload, sort_keys=True, indent=2))
    return seconds, {"checks": len(rows), "report_chars": chars}


def import_times(children: int) -> dict:
    """The seconds of the package import and the sweep's root systems in
    children fresh interpreters, one after another: best and median."""
    cfg = SweepConfig()
    systems = json.dumps([[family, cfg.ambient_rank(family)]
                          for family in cfg.families])
    seconds = []
    for _ in range(children):
        done = subprocess.run(
            [sys.executable, "-I", "-c", IMPORT_CHILD, str(PACKAGE.parent),
             systems],
            capture_output=True, text=True, timeout=60, check=True)
        seconds.append(float(done.stdout))
    return {"children": children,
            "import_s_min": round(min(seconds), 6),
            "import_s_median": round(statistics.median(seconds), 6)}


def best_times(repeat: int, one_pass) -> dict:
    """repeat calls of one_pass, which returns (seconds, sizes), each
    between two probe bursts: the sizes and, per layer, the best time,
    raw and scaled by REF_PROBE_S over the best probe time (a best time
    is the host's speed at its fastest, for the probe as for the
    layers)."""
    best: dict = {}
    probes = []
    for _ in range(repeat):
        probes += probe_burst()
        seconds, sizes = one_pass()
        probes += probe_burst()
        for name, s in seconds.items():
            best[name] = min(s, best.get(name, s))
    probe = min(probes)
    return {**sizes, "probe_s": round(probe, 9),
            "seconds_min": {name: round(s, 6) for name, s in best.items()},
            "seconds_scaled_min": {name: round(s * REF_PROBE_S / probe, 6)
                                   for name, s in best.items()}}


def measure_fiber(coords: tuple[int, ...], k: int, repeat: int) -> dict:
    lam = Weight(coords)
    return {"lambda": list(coords), "k": k,
            **best_times(repeat, lambda: layer_times(lam, k)),
            **layer_memory(lam, k)}


def git(*args: str) -> str | None:
    """A git command's output, run in the timed package's directory."""
    try:
        return subprocess.run(["git", *args], cwd=PACKAGE, capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def provenance() -> dict:
    status = git("status", "--porcelain", "--", ".")
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"git_commit": git("rev-parse", "HEAD"),
            "src_differs_from_commit": None if status is None else status != "",
            "python": platform.python_version(), "nproc": nproc,
            "src_lines": sum(len(p.read_text().splitlines())
                             for p in sorted(PACKAGE.rglob("*.py")))}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", type=label_text, required=True,
                    help="names the file BENCH_<label>.json")
    ap.add_argument("--repeat", type=positive_int, default=7,
                    help="passes per fiber, each time the best of them, "
                    "and import children")
    ap.add_argument("--out-dir", type=Path, default=ROOT)
    args = ap.parse_args(argv)
    try:  # before the timing, not after
        args.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        ap.error(f"--out-dir {str(args.out_dir)!r}: cannot create it: "
                 f"{e.strerror or e}")
    out = args.out_dir / f"BENCH_{args.label}.json"
    if out.is_dir():
        ap.error(f"--out-dir {str(args.out_dir)!r}: {out.name} is a directory")

    fibers = {}
    for name, (coords, k) in {**FIBERS, **OTHER_FIBERS}.items():
        fibers[name] = {**measure_fiber(coords, k, args.repeat),
                        "perfbench": name in FIBERS}
        print(name, json.dumps(fibers[name]["seconds_scaled_min"]))
    verify = {**SWEEP, **best_times(args.repeat, verify_times)}
    print("verify", json.dumps(verify["seconds_scaled_min"]))
    imports = import_times(args.repeat)
    print("import", json.dumps(imports))
    payload = {"label": args.label, "repeat": args.repeat,
               "ref_probe_s": REF_PROBE_S,
               "provenance": provenance(), "fibers": fibers,
               "verify": verify, "import": imports}
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
