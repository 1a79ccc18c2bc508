"""Source-level checks on the library: real exceptions, and one public
route per decision; and on the tests and scripts: every name they import
from the package resolves."""

import ast
import importlib
from pathlib import Path

import pytest

import weyl_order
from weyl_order import OrderVerdict, Permutation, Weight, WeightTuple
from weyl_order import tuples as tuples_mod
from weyl_order import weights as weights_mod

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "weyl_order"

# the second routes kept in tests/weight_actions.py, under their old
# library names
MOVED = ("act", "sorting_permutation", "dominant_representative",
         "sk_permute", "canonical_form", "pi_project", "r_stat_by_subsets",
         "compose", "inverse", "is_identity", "identity", "transposition",
         "permute", "window", "window_values", "flip")


def test_library_has_no_assert_statement():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_public_names_are_unique_and_resolve():
    names = weyl_order.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(weyl_order, n)] == []


@pytest.mark.parametrize("owner", [
    weyl_order, weights_mod, tuples_mod,
    Permutation, Weight, WeightTuple, OrderVerdict,
], ids=lambda owner: owner.__name__)
def test_moved_names_are_gone_from_the_library(owner):
    assert [n for n in MOVED if hasattr(owner, n)] == []


def test_posets_tests_k_against_two_only_in_the_text_writers():
    # cover_edges and to_json read the decision list at every k, which the
    # classifier fills off k = 2 as well; only the text writers skip it off
    # k = 2, and they decide that in their one edge iterator
    tree = ast.parse((SRC / "posets.py").read_text())
    found = []
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        for fn in (n for n in cls.body if isinstance(n, ast.FunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, ast.Compare):
                    sides = [ast.unparse(x) for x in (node.left, *node.comparators)]
                    if "self.k" in sides and "2" in sides:
                        found.append(f"{cls.name}.{fn.name}")
    assert found
    assert set(found) <= {"TuplePoset._edge_pieces"}


def test_build_poset_builds_no_weight_tuple():
    # the classes hold omega tuples; a representative WeightTuple is built
    # only when a caller reads EquivClass.rep
    tree = ast.parse((SRC / "posets.py").read_text())
    build = next(n for n in tree.body if isinstance(n, ast.FunctionDef)
                 and n.name == "build_poset")
    called = {ast.unparse(node.func) for node in ast.walk(build)
              if isinstance(node, ast.Call)}
    assert "EquivClass" in called and "WeightTuple" not in called


def test_test_only_routes_are_gone_from_the_library():
    # the ordered members of a class and their sort key live in
    # tests/fiber_oracle.py; the library keeps the multisets alone.  No
    # command writes through json_object or covers_json_text, and class_of
    # searches the sorted classes instead of a dict (_index_of)
    paths = sorted(SRC.glob("*.py"))
    assert paths
    gone = {"members", "_tuple_sort_key", "json_object", "covers_json_text",
            "_index_of"}
    names = gone - {"members"}  # a local may still be "members"
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if (isinstance(node, ast.FunctionDef) and node.name in gone)
             or (isinstance(node, ast.Attribute) and node.attr in gone)
             or (isinstance(node, ast.Name) and node.id in names)]
    assert found == []
    from weyl_order import cli, posets
    assert not hasattr(posets.EquivClass, "members")
    assert not hasattr(posets, "_tuple_sort_key")
    assert not hasattr(posets, "json_object")
    assert not hasattr(posets.TuplePoset, "_index_of")
    assert not hasattr(cli, "covers_json_text")


def test_posets_keeps_no_module_level_cache():
    # per-class cover data lives in a local lower pair, dropped with its
    # cover row or call, not in a module-level cache or lru_cache keyed by
    # pairs; the caches built inside a function are dropped with its call
    def is_cache(node):
        if isinstance(node, ast.Call):
            node = node.func
        return ast.unparse(node) in {"cache", "lru_cache", "functools.cache",
                                     "functools.lru_cache"}
    tree = ast.parse((SRC / "posets.py").read_text())
    found = [f"posets.py:{node.lineno}" for node in tree.body
             if (isinstance(node, ast.FunctionDef)
                 and any(is_cache(d) for d in node.decorator_list))
             or (isinstance(node, (ast.Assign, ast.AnnAssign))
                 and node.value is not None and is_cache(node.value))]
    assert found == []
    # the check sees a decorated function and a wrapped one
    sample = ast.parse("@cache\ndef f(x): pass\ng = functools.lru_cache(h)\n")
    assert [is_cache(n.decorator_list[0] if isinstance(n, ast.FunctionDef)
                     else n.value) for n in sample.body] == [True, True]


def test_library_builds_objects_only_through_their_constructors():
    # no object.__new__ or other __new__ route: every Weight, WeightTuple
    # and the rest goes through its validating __init__
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if (isinstance(node, ast.Attribute) and node.attr == "__new__")
             or (isinstance(node, ast.Name) and node.id == "__new__")
             or (isinstance(node, ast.FunctionDef) and node.name == "__new__")]
    assert found == []


def test_value_classes_store_their_fields_once():
    # each value class's one __init__ coerces, checks and stores its
    # fields in one write of the instance dict: no validating hook runs
    # after it, and no field is stored through object.__setattr__
    from weyl_order import cli
    from weyl_order.weights import _Value

    def is_hook(node):
        return ((isinstance(node, ast.FunctionDef)
                 and node.name == "__post_init__")
                or (isinstance(node, ast.Attribute)
                    and node.attr == "__post_init__")
                or (isinstance(node, ast.Call)
                    and ast.unparse(node.func) == "object.__setattr__"))
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if is_hook(node)]
    assert found == []
    # the check sees a hook defined, a hook called and a field set past
    # the class's own __setattr__
    sample = ast.parse("def __post_init__(self): pass\n"
                       "self.__post_init__()\n"
                       "object.__setattr__(self, 'x', 1)\n")
    assert sum(map(is_hook, ast.walk(sample))) == 3
    classes = _Value.__subclasses__()
    assert cli.SweepConfig in classes and len(classes) == 12
    assert [cls.__name__ for cls in classes
            if "__init__" not in vars(cls)] == []


def test_dimension_report_is_gone():
    # the verifiers return their violation lists; no wrapper echoes the
    # caller's arguments
    from weyl_order import dimensions
    assert [owner.__name__ for owner in (weyl_order, dimensions)
            if hasattr(owner, "DimensionReport")] == []


def test_no_string_constant_spells_a_json_field_layout():
    # every JSON layout of the writers comes from posets._layout, which
    # runs json.dumps on a skeleton; a string constant holding a newline,
    # spaces and a quoted key with its ": " would be a hand-spelled copy
    import re
    from weyl_order import posets
    field = re.compile(r'\n *"[^"\n]*": ')
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and field.search(node.value)]
    assert found == []
    assert not hasattr(posets, "json_array")
    # the check sees the layouts it forbids
    assert field.search('{\n  "classes": ')
    assert field.search(',\n      "low": ')


def _resolves(module: str, name: str | None = None) -> bool:
    """Whether module imports and, given a name, has it or a submodule
    of that name."""
    try:
        owner = importlib.import_module(module)
        if name is not None and not hasattr(owner, name):
            importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def stale_imports(source: str, filename: str) -> list[str]:
    """The package modules and names a file imports that do not resolve."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Import):
            pairs = [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            pairs = [(node.module, alias.name) for alias in node.names
                     if alias.name != "*"]
        else:
            continue
        found += [f"{filename}:{node.lineno}: {module}"
                  + (f".{name}" if name else "")
                  for module, name in pairs
                  if module.partition(".")[0] == "weyl_order"
                  and not _resolves(module, name)]
    return found


def test_tests_and_scripts_import_only_names_that_exist():
    # a removed name turns a whole test module into a collection error,
    # which a run that continues past collection errors would not count
    paths = sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("scripts/*.py")])
    assert len(paths) > 20
    found = [line for path in paths
             for line in stale_imports(path.read_text(), path.name)]
    assert found == []
    # the check sees a removed name and a missing module, and passes a
    # submodule imported by name
    sample = ("from weyl_order.cli import SweepConfig, sweep_items\n"
              "from weyl_order import Weight, cli, roots\n"
              "import weyl_order.no_such_module\n"
              "import json\n")
    assert stale_imports(sample, "s.py") == [
        "s.py:1: weyl_order.cli.sweep_items",
        "s.py:3: weyl_order.no_such_module"]
