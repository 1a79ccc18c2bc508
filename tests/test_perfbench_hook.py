"""The benchmark's trace hook still fits the package.

``perfbench/child.py`` wraps public functions and ``TuplePoset``
attributes by name.  A rename in ``src/`` that it does not follow would
first crash the benchmark's trace run; this test loads the hook as the
benchmark does, installs every span, runs one small poset through the
wrapped names and undoes the patches.  It only reads ``perfbench/``.
"""

import importlib.util
from pathlib import Path

import weyl_order
from weyl_order import posets

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
