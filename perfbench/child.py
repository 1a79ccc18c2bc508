"""One benchmark job in a fresh interpreter; ``run.py`` starts it.

Usage: python3 -I perfbench/child.py JOB.json T_SPAWN

T_SPAWN is the parent's ``time.monotonic()`` just before it started this
process; set-up time runs from there.

The job file names the checkout's ``src/`` directory, the CLI calls to
make, the output directory for them and the file to write the result to.
``weyl_order`` is imported from that ``src/`` only, so every job measures
the code of its own checkout and no cache survives from one job to the
next.  Modes:

- ``setup``: import the package and build the root systems, then stop.
- ``run``: set up, then make the CLI calls back to back, tracing off.
- ``trace``: set up and make the same calls with a span recorded around
  each public function of every layer, then build each fiber the calls
  built once more under ``tracemalloc``, in a pass of its own.

Every mode also times a fixed probe loop (``SpeedProbe``): a burst right
after set-up, and in ``run`` and ``trace`` one probe every
``PROBE_EVERY_S`` of wall time while the calls run.  The probe times give
the CPU speed the job actually had, so ``run.py`` can report its times at
a fixed reference speed.
"""

import functools
import inspect
import json
import resource
import signal
import statistics
import sys
import time
from array import array
from collections import Counter

# The ambient root systems of the verify sweep (SweepConfig.ambient_rank);
# building them is part of set-up for every workload.
ROOT_SYSTEMS = (("A", 2), ("C", 2), ("B", 3), ("D", 4))


# The probe: a fixed loop of the kinds of work the package does (tuple
# hashing, dict stores, coordinatewise comparison of two vectors, OR into
# a bit mask of a few thousand bits) that keeps no object it allocates.
# Its time tracks the host's speed better than any one of those alone.
PROBE_LOOPS = 300
PROBE_EVERY_S = 0.01
PROBE_WARMUP = 5
PROBE_BURST = 30
# Reference probe time: the times a job reports are scaled to the speed at
# which one probe takes this long (roughly the usual speed of a shared
# 2-vCPU Xeon, where one probe takes 230-330 us).
REF_PROBE_S = 250e-6
_SLOTS = dict.fromkeys(range(256), 0)
_MASKS = [0] * 64
_LOW = tuple(range(12))
_HIGH = tuple(range(1, 13))


def _compare(a, b) -> int:
    saw_lt = saw_gt = False
    for x, y in zip(a, b):
        if x < y:
            saw_lt = True
        elif x > y:
            saw_gt = True
        if saw_lt and saw_gt:
            return 2
    return 1 if saw_lt else 0


class SpeedProbe:
    """Times of the probe loop, each taken at one moment of the job.

    Used as a context manager it runs one probe on SIGALRM every
    PROBE_EVERY_S of wall time, between the bytecodes of whatever the
    process is doing, so the samples follow the CPU speed the calls get
    from one moment to the next.
    """

    def __init__(self):
        self.samples = array("d")

    def probe(self, *_):
        t0 = time.perf_counter()
        s = 0
        slots, masks = _SLOTS, _MASKS
        for i in range(PROBE_LOOPS):
            pair = (i, s)
            s = (s + hash(pair) + slots[i & 255]) & 0xFFFF
            slots[i & 255] = s
            if i & 3 == 0 and _compare(_LOW, _HIGH) == 1:
                masks[i & 63] |= 1 << (i * 23 % 3700)
        self.samples.append(time.perf_counter() - t0)

    def burst(self):
        """Probe back to back, after a few uncounted warm-up probes."""
        for _ in range(PROBE_WARMUP):
            self.probe()
        del self.samples[:]
        for _ in range(PROBE_BURST):
            self.probe()
        return self

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def busy_s(self) -> float:
        return sum(self.samples)

    def scale(self) -> float:
        """Reference speed over the speed the job had.

        Work done in a wall interval is proportional to the speed, the
        inverse of the probe time, so the job's mean speed is the
        harmonic mean of the probe times.
        """
        return REF_PROBE_S / statistics.harmonic_mean(self.samples)


class Tracer:
    """Spans (name, start, end, parent span, run id) and counts, in memory."""

    def __init__(self):
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.run = array("q")
        self.stack = []
        self.run_id = -1
        self.counts = Counter()
        self.fibers = set()

    def begin(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def finish(self, sid: int):
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, after=None, before=None):
        """fn with a span around each call.

        before(*args) runs ahead of the span; after(result, args, kwargs)
        runs after it and adds counts.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(*args)
            sid = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.finish(sid)
            self.counts[name + ".calls"] += 1
            if after is not None:
                after(out, args, kwargs)
            return out
        return traced

    def to_json(self) -> dict:
        return {"names": self.names, "start": list(self.start),
                "end": list(self.end), "parent": list(self.parent),
                "run": list(self.run)}


class Patches:
    """Attribute replacements that can all be undone."""

    def __init__(self):
        self.saved = []

    def set(self, owner, attr, value):
        self.saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self):
        for owner, attr, value in reversed(self.saved):
            setattr(owner, attr, value)
        self.saved.clear()


def set_up(src: str, tracer=None):
    """Import weyl_order from src and build the root systems."""
    sys.path.insert(0, src)
    sid = tracer.begin("import") if tracer else None
    import weyl_order
    import weyl_order.cli
    if tracer:
        tracer.finish(sid)
    if not weyl_order.__file__.startswith(src):
        raise SystemExit(f"weyl_order imported from {weyl_order.__file__}, "
                         f"not from {src}")
    sid = tracer.begin("roots.root_system") if tracer else None
    for family, rank in ROOT_SYSTEMS:
        weyl_order.root_system(family, rank)
    if tracer:
        tracer.finish(sid)
    return weyl_order


def install_spans(tracer: Tracer, patches: Patches):
    """Wrap the public functions of each layer wherever weyl_order binds them.

    Callers inside the package look these names up in their own module,
    so each module that imported a function gets the wrapped one.
    """
    from weyl_order import posets, tuples
    modules = [m for n, m in sys.modules.items()
               if n == "weyl_order" or n.startswith("weyl_order.")]
    counts = tracer.counts

    def rebind(home, fname, wrapped):
        original = getattr(home, fname)
        for mod in modules:
            if mod.__dict__.get(fname) is original:
                patches.set(mod, fname, wrapped)

    def rewrap(cls, attr, wrap):
        current = cls.__dict__[attr]
        if isinstance(current, functools.cached_property):
            new = functools.cached_property(wrap(current.func))
            new.__set_name__(cls, attr)
        else:
            new = wrap(current)
        patches.set(cls, attr, new)

    # A generator's own span would close before the caller consumed it,
    # so the traced enumeration is drained inside its span.
    enumerate_tuples = posets.enumerate_tuples

    def enumerate_drained(*args, **kwargs):
        out = list(enumerate_tuples(*args, **kwargs))
        counts["posets.enumerate_tuples.tuples"] += len(out)
        return iter(out)
    rebind(posets, "enumerate_tuples",
           tracer.wrap("posets.enumerate_tuples",
                       functools.wraps(enumerate_tuples)(enumerate_drained)))

    build_signature = inspect.signature(posets.build_poset)

    def after_build(out, args, kwargs):
        bound = build_signature.bind(*args, **kwargs)
        tracer.fibers.add((tuple(bound.arguments["lam"].omega),
                           bound.arguments["k"]))
    rebind(posets, "build_poset",
           tracer.wrap("posets.build_poset", posets.build_poset, after_build))

    def after_classify(out, args, kwargs):
        if out[0].value != "unclassified":
            counts["posets.classify_cover.classified"] += 1
    rebind(posets, "classify_cover",
           tracer.wrap("posets.classify_cover", posets.classify_cover,
                       after_classify))
    rebind(posets, "covers_of", tracer.wrap("posets.covers_of", posets.covers_of))

    from weyl_order import cli, dimensions, roots
    for home, fname in ((dimensions, "tensor_dim"), (dimensions, "pair_ledger"),
                        (dimensions, "verify_max_dim"),
                        (roots, "root_system")):
        layer = home.__name__.rpartition(".")[2]
        rebind(home, fname, tracer.wrap(f"{layer}.{fname}",
                                        getattr(home, fname)))
    rebind(cli, "run_sweep_item", tracer.wrap("cli.check", cli.run_sweep_item))

    rewrap(tuples.WeightTuple, "stat_vector",
           lambda f: tracer.wrap("tuples.stat_vector", f))

    # The strict order of a poset is forced by whichever order query comes
    # first; that first query runs bottom_index under a span of its own.
    def force_order(poset):
        if "_bench_order" not in poset.__dict__:
            poset.__dict__["_bench_order"] = True
            sid = tracer.begin("posets.order")
            try:
                poset.bottom_index
            finally:
                tracer.finish(sid)

    def after_hasse(out, args, kwargs):
        counts["posets.hasse_edges.edges"] += len(out)
    rewrap(posets.TuplePoset, "hasse_edges",
           lambda f: tracer.wrap("posets.hasse_edges", f, after_hasse,
                                 before=force_order))

    def ordered(f):
        @functools.wraps(f)
        def query(poset, *args):
            force_order(poset)
            return f(poset, *args)
        return query
    for attr in ("bottom_index", "top_index", "transitive_ok"):
        rewrap(posets.TuplePoset, attr, ordered)
    for attr in ("to_json", "to_dot"):
        rewrap(posets.TuplePoset, attr,
               lambda f: tracer.wrap("posets.export", f))


def call_all(main, calls, out_dir, tracer=None) -> tuple[list[int], float]:
    rcs = []
    t0 = time.perf_counter()
    for i, argv in enumerate(calls):
        if tracer:
            tracer.run_id = i
            sid = tracer.begin("cli.main")
        rcs.append(main(list(argv) + ["--out-dir", out_dir]))
        if tracer:
            tracer.finish(sid)
    return rcs, time.perf_counter() - t0


def build_peaks(fibers) -> float:
    """Largest tracemalloc peak, in MiB, of build_poset over the fibers."""
    import tracemalloc
    from weyl_order import Weight, build_poset
    peak = 0
    for lam, k in sorted(fibers):
        tracemalloc.start()
        build_poset(Weight(lam), k)
        peak = max(peak, tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    return peak / 2**20


def main(job_path: str, t_spawn: float) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    mode = job["mode"]
    tracer = Tracer() if mode == "trace" else None
    package = set_up(job["src"], tracer)
    setup = time.monotonic() - t_spawn
    result = {"setup_s": setup,
              "setup_norm_s": setup * SpeedProbe().burst().scale()}
    if mode != "setup":
        main_fn = package.cli.main
        if tracer:
            patches = Patches()
            install_spans(tracer, patches)
        with SpeedProbe() as speed:
            rcs, wall = call_all(main_fn, job["calls"], job["out_dir"], tracer)
        result.update(rcs=rcs, wall_s=wall,
                      wall_norm_s=(wall - speed.busy_s()) * speed.scale(),
                      probes=len(speed.samples),
                      peak_rss_mb=resource.getrusage(
                          resource.RUSAGE_SELF).ru_maxrss / 1024)
        if tracer:
            patches.undo()
            result.update(counts=dict(tracer.counts),
                          distinct_fibers=len(tracer.fibers),
                          build_peak_mb=build_peaks(tracer.fibers))
            with open(job["spans"], "w") as fh:
                json.dump(tracer.to_json(), fh)
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
