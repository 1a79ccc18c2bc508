"""The benchmark's trace hook still fits the package.

``perfbench/child.py`` wraps public functions and ``TuplePoset``
attributes by name.  A rename in ``src/`` that it does not follow would
first crash the benchmark's trace run; these tests load the hook as the
benchmark does, install every span, run one small poset, then one small
verify sweep, through the wrapped names and undo the patches.  They only
read ``perfbench/``.
"""

import importlib.util
from pathlib import Path

import weyl_order
from weyl_order import cli, dimensions, posets
from weyl_order.cli import SweepConfig

CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"


def load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def test_install_spans_wraps_and_undoes():
    child = load_child()
    tracer, patches = child.Tracer(), child.Patches()
    originals = {attr: posets.TuplePoset.__dict__[attr]
                 for attr in ("hasse_edges", "bottom_index", "top_index",
                              "transitive_ok", "to_json", "to_dot")}
    build = weyl_order.build_poset
    try:
        child.install_spans(tracer, patches)
        poset = weyl_order.build_poset(weyl_order.Weight((2, 1)), 2)
        assert poset.bottom_index == 0
        assert poset.top_index == len(poset) - 1
        assert poset.transitive_ok()
        assert len(poset.hasse_edges) == 2
        poset.to_dot()
    finally:
        patches.undo()
    # the order is forced once, by the first order query, under its span
    assert tracer.names.count("posets.order") == 1
    assert {"posets.build_poset", "posets.hasse_edges",
            "posets.export"} <= set(tracer.names)
    assert tracer.counts["posets.build_poset.calls"] == 1
    assert tracer.counts["posets.hasse_edges.edges"] == 2
    assert weyl_order.build_poset is build
    for attr, value in originals.items():
        assert posets.TuplePoset.__dict__[attr] is value


def test_install_spans_covers_the_verify_path():
    child = load_child()
    tracer, patches = child.Tracer(), child.Patches()
    check, verify = cli.run_sweep_item, dimensions.verify_max_dim
    try:
        child.install_spans(tracer, patches)
        rows = cli.run_sweep(SweepConfig(families=("C",), max_coord=1, max_k=2))
    finally:
        patches.undo()
    assert rows and all(r["ok"] for r in rows)
    assert {"cli.check", "dimensions.verify_max_dim"} <= set(tracer.names)
    assert tracer.counts["cli.check.calls"] == len(rows)
    assert cli.run_sweep_item is check
    assert cli.verify_max_dim is dimensions.verify_max_dim is verify
