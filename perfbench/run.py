#!/usr/bin/env python3
"""Benchmark of the weyl-order command line on four fixed workloads.

Usage:
    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20

Every workload is a fixed list of ``weyl_order.cli.main`` calls.  Each
repetition runs in a fresh child interpreter (``child.py``) that imports
``weyl_order`` from this checkout's ``src/``: one client making the calls
back to back (a closed loop), serial, ``--jobs 1``.  The CLI writes into a
scratch directory under ``.perfbench_out/`` that is removed at the end.

``--trace 0`` reports the end-to-end metrics:

- ``wall_norm_s``: median over the repetitions that fit in ``--seconds``
  of the time from the first ``main()`` call to the last return, scaled
  to a fixed reference CPU speed (see ``SpeedProbe`` in child.py);
- ``setup_s``: median over several fresh children of interpreter start
  plus ``import weyl_order`` and its root systems, scaled the same way;
- ``peak_rss_mb``: the largest ``ru_maxrss`` of the workload children.

``--trace 1`` runs the workload once untraced and once traced and reports
the per-layer metrics derived from the spans (see README.md).

Every output is checked: a fiber call fails on a nonzero exit or a file
whose sha256 differs from ``golden.json``; a sweep check fails on a
violation, a skip or a crash.  The inputs are exhaustive enumerations of
fixed fibers, so ``--seed`` is recorded but changes no input.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A result file with provenance
goes to ``.perfbench_out/results/``.
"""

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CHILD = HERE / "child.py"

SETUP_CHILDREN = 9
# A run must end within 180 s; no child is started or kept past this.
DEADLINE_S = 170

# name -> CLI calls, each with the files it writes into --out-dir.
WORKLOADS = {
    "sweep": [
        (["verify", "--families", "A,C,B,D", "--max-coord", "5",
          "--max-k", "4", "--jobs", "1"], ("verify_report.json",)),
    ],
    "poset_k3": [
        (["poset", "--lambda", "6,6,6", "--k", "3", "--dot"],
         ("poset_lam6-6-6_k3.json", "poset_lam6-6-6_k3.dot")),
    ],
    "poset_k6": [
        (["poset", "--lambda", "5,5", "--k", "6", "--dot"],
         ("poset_lam5-5_k6.json", "poset_lam5-5_k6.dot")),
    ],
    "covers_k2": [
        (["covers", "--lambda", "2,2,2,2,2,2", "--k", "2", "--json"],
         ("covers_lam2-2-2-2-2-2_k2.json",)),
        (["poset", "--lambda", "2,2,2,2,2,2", "--k", "2", "--dot"],
         ("poset_lam2-2-2-2-2-2_k2.json", "poset_lam2-2-2-2-2-2_k2.dot")),
    ],
}


# personality(2) flag: processes this one execs get no address-space
# randomisation.
ADDR_NO_RANDOMIZE = 0x0040000


def fix_child_layout() -> bool:
    """Give every child the same memory layout; True when that worked.

    With randomised layouts the big-int loops of one and the same workload
    ran about 13 s in some processes and 18 s in others; a fixed layout
    keeps repetitions comparable.  The flag is inherited by the children
    and changes nothing in this process.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        current = libc.personality(0xFFFFFFFF)
        return current != -1 and libc.personality(
            current | ADDR_NO_RANDOMIZE) != -1
    except (OSError, AttributeError):
        return False


class ChildFailed(Exception):
    pass


def run_child(mode: str, workload: str, work: Path, deadline: float):
    """Start one child job and wait for it; return (result, job directory)."""
    job_dir = Path(tempfile.mkdtemp(dir=work))
    out_dir = job_dir / "out"
    out_dir.mkdir()
    job = {"mode": mode, "src": str(SRC), "out_dir": str(out_dir),
           "calls": [argv for argv, _ in WORKLOADS[workload]],
           "result": str(job_dir / "result.json"),
           "spans": str(job_dir / "spans.json")}
    job_path = job_dir / "job.json"
    job_path.write_text(json.dumps(job))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed("no time left before the deadline")
    try:
        proc = subprocess.run([sys.executable, "-I", str(CHILD), str(job_path),
                               repr(time.monotonic())],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{mode} child of {workload} passed the deadline")
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child of {workload} exited "
                          f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads((job_dir / "result.json").read_text()), job_dir


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_outputs(workload: str, rcs: list, out_dir: Path, golden: dict):
    """(attempted, failed) ops: one per sweep check, one per fiber call.

    An exit code of None stands for a child that crashed; its outputs are
    not read.
    """
    attempted = failed = 0
    for (argv, files), rc in zip(WORKLOADS[workload], rcs):
        if argv[0] == "verify":
            expected = golden["verify_checks"]
            items = []
            if rc in (0, 1):
                try:
                    items = json.loads((out_dir / files[0]).read_text())["items"]
                except (OSError, ValueError, KeyError):
                    pass
            bad = sum(1 for it in items if not it["ok"] or it["skipped"])
            attempted += max(expected, len(items))
            failed += bad + max(0, expected - len(items))
        else:
            attempted += 1
            failed += not (rc == 0 and all(
                (out_dir / f).is_file()
                and sha256(out_dir / f) == golden["sha256"][f] for f in files))
    return attempted, failed


class Tally:
    def __init__(self, workload: str, golden: dict):
        self.workload = workload
        self.golden = golden
        self.attempted = 0
        self.failed = 0

    def add(self, result, job_dir):
        rcs = result["rcs"] if result else [None] * len(WORKLOADS[self.workload])
        a, f = check_outputs(self.workload, rcs, job_dir and job_dir / "out",
                             self.golden)
        self.attempted += a
        self.failed += f


def end_to_end(workload, seconds, work, golden, deadline):
    tally = Tally(workload, golden)
    run_child("setup", workload, work, deadline)  # writes the bytecode caches
    setups = [run_child("setup", workload, work, deadline)[0]
              for _ in range(SETUP_CHILDREN)]
    runs = []
    started = time.monotonic()
    while True:
        began = time.monotonic()
        try:
            result, job_dir = run_child("run", workload, work, deadline)
        except ChildFailed as e:
            print(f"error: {e}", file=sys.stderr)
            tally.add(None, None)
            break
        tally.add(result, job_dir)
        shutil.rmtree(job_dir)
        runs.append(result)
        setups.append(result)
        now = time.monotonic()
        if now + (now - began) > started + seconds:
            break
    if not runs:
        raise ChildFailed(f"no run of {workload} completed")
    metrics = {
        "wall_norm_s": (statistics.median(r["wall_norm_s"] for r in runs), "s"),
        "setup_s": (statistics.median(r["setup_norm_s"] for r in setups), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in runs), "MB")}
    samples = {key: [r[key] for r in runs]
               for key in ("wall_norm_s", "wall_s", "probes", "peak_rss_mb")}
    samples.update({key: [r[key] for r in setups]
                    for key in ("setup_norm_s", "setup_s")})
    return tally, metrics, samples


def self_times(spans: dict):
    """Per span name: summed self time and the list of durations."""
    names, start, end, parent = (spans["names"], spans["start"],
                                 spans["end"], spans["parent"])
    dur = [e - s for s, e in zip(start, end)]
    covered = [0.0] * len(dur)
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += dur[i]
    own = defaultdict(float)
    durations = defaultdict(list)
    for i, name in enumerate(names):
        own[name] += dur[i] - covered[i]
        durations[name].append(dur[i])
    return own, durations


def percentile(values, q):
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def per_layer(workload, work, golden, deadline):
    tally = Tally(workload, golden)
    untraced, job_dir = run_child("run", workload, work, deadline)
    tally.add(untraced, job_dir)
    traced, job_dir = run_child("trace", workload, work, deadline)
    tally.add(traced, job_dir)
    spans = json.loads((job_dir / "spans.json").read_text())
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(job_dir / "spans.json", results / f"{workload}_spans.json")
    own, durations = self_times(spans)
    counts = Counter(traced["counts"])
    builds = counts["posets.build_poset.calls"]
    classify = counts["posets.classify_cover.calls"]
    checks = [d * 1000 for d in durations["cli.check"]]
    metrics = {
        "posets.order.s": (own["posets.order"], "s"),
        "posets.hasse_edges.s": (own["posets.hasse_edges"], "s"),
        "posets.hasse_edges.edges": (counts["posets.hasse_edges.edges"], "count"),
        "posets.enumerate_tuples.s": (own["posets.enumerate_tuples"], "s"),
        "posets.enumerate_tuples.tuples": (
            counts["posets.enumerate_tuples.tuples"], "count"),
        "tuples.stat_vector.s": (own["tuples.stat_vector"], "s"),
        "tuples.stat_vector.calls": (counts["tuples.stat_vector.calls"], "count"),
        "posets.build_poset.s": (own["posets.build_poset"], "s"),
        "posets.build_poset.peak_mb": (traced["build_peak_mb"], "MB"),
        "posets.build_poset.calls": (builds, "count"),
        "posets.build_poset.distinct": (traced["distinct_fibers"], "count"),
        "posets.build_poset.reuse_ratio": (
            traced["distinct_fibers"] / builds if builds else 0.0, "ratio"),
        "posets.classify_cover.s": (own["posets.classify_cover"], "s"),
        "posets.classify_cover.calls": (classify, "count"),
        "posets.classify_cover.classified_ratio": (
            counts["posets.classify_cover.classified"] / classify
            if classify else 0.0, "ratio"),
        "posets.covers_of.s": (own["posets.covers_of"], "s"),
        "posets.export.s": (own["posets.export"], "s"),
        "dimensions.tensor_dim.s": (own["dimensions.tensor_dim"], "s"),
        "dimensions.tensor_dim.calls": (
            counts["dimensions.tensor_dim.calls"], "count"),
        "dimensions.pair_ledger.s": (own["dimensions.pair_ledger"], "s"),
        "dimensions.pair_ledger.calls": (
            counts["dimensions.pair_ledger.calls"], "count"),
        "dimensions.verify_max_dim.s": (own["dimensions.verify_max_dim"], "s"),
        "cli.checks": (len(checks), "count"),
        "cli.check.p50_ms": (percentile(checks, 0.50), "ms"),
        "cli.check.p99_ms": (percentile(checks, 0.99), "ms"),
        "roots.root_system.s": (own["roots.root_system"], "s"),
        "import.s": (own["import"], "s"),
        "run.wall_s": (untraced["wall_s"], "s"),
        "trace.overhead_ratio": (
            traced["wall_norm_s"] / untraced["wall_norm_s"], "ratio"),
    }
    samples = {"untraced": untraced, "traced": {
                   k: v for k, v in traced.items() if k != "counts"},
               "self_s": dict(sorted(own.items())),
               "counts": dict(counts)}
    return tally, metrics, samples


def provenance(fixed_layout: bool) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"python": platform.python_version(), "nproc": nproc,
            "git_commit": commit, "src_lines": src_lines,
            "fixed_layout": fixed_layout}


def measure(workload, args, golden, work, fixed_layout):
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        tally, metrics, samples = per_layer(workload, work, golden, deadline)
    else:
        tally, metrics, samples = end_to_end(workload, args.seconds, work,
                                             golden, deadline)
    error_rate = tally.failed / tally.attempted
    record = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace,
              "calls": [argv for argv, _ in WORKLOADS[workload]],
              "provenance": provenance(fixed_layout),
              "attempted": tally.attempted, "failed": tally.failed,
              "error_rate": error_rate,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()},
              "samples": samples}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}_trace{args.trace}_seed{args.seed}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(f"{workload}: {' | '.join(' '.join(a) for a in record['calls'])}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6f} {unit}")
    print(f"  {'error_rate':40s} {error_rate:14.6f} ratio "
          f"({tally.failed}/{tally.attempted})")
    print(f"  provenance {json.dumps(record['provenance'])}")
    return tally, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0,
                    help="recorded; the inputs are fixed fibers")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "weyl_order" / "__init__.py").is_file():
        print(f"error: no weyl_order package under {SRC}", file=sys.stderr)
        return 2
    golden = json.loads((HERE / "golden.json").read_text())
    fixed_layout = fix_child_layout()
    workloads = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    attempted = failed = 0
    metrics = {}
    try:
        for workload in workloads:
            tally, got = measure(workload, args, golden, work, fixed_layout)
            attempted += tally.attempted
            failed += tally.failed
            prefix = "" if len(workloads) == 1 else workload + "."
            metrics.update({prefix + k: {"value": v, "unit": u}
                            for k, (v, u) in got.items()})
    except ChildFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
