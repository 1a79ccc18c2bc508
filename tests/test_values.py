"""The package's value classes: plain immutable classes whose equality,
hashing, repr and pickling read their fields alone, as a frozen
dataclass's do, and never a cached value."""

import pickle
from functools import cached_property

import pytest

from weyl_order import (CoverEdge, CoverKind, CoverWitness, Coroot,
                        EmbeddedWeight, EquivClass, LedgerRow, Permutation,
                        RootSystem, TuplePoset, Weight, WeightTuple,
                        build_poset, iota, pair_ledger, root_system)
from weyl_order.cli import SweepConfig


def poset(coords=(2, 1)):
    return build_poset(Weight(coords), 2)


def system(family="B", rank=3):
    # a fresh object: root_system hands out one cached system per name
    rs = root_system(family, rank)
    return RootSystem(rs.family, rs.rank, rs.coroots)


def ledger_row():
    classes = poset().classes
    return pair_ledger(system(), classes[0].rep, classes[-1].rep)[0]


# per class, a factory giving a fresh value on each call, and a value of
# the same class with other fields
VALUES = {
    Weight: (lambda: Weight((2, 0, 1)), Weight((2, 0, 2))),
    Permutation: (lambda: Permutation((1, 2, 0)), Permutation((0, 2, 1))),
    WeightTuple: (lambda: WeightTuple((Weight((1, 0)), Weight((0, 1)))),
                  WeightTuple((Weight((0, 1)), Weight((1, 0))))),
    Coroot: (lambda: Coroot((0, 1, 1)), Coroot((0, 1, 2))),
    RootSystem: (system, system("C", 2)),
    EmbeddedWeight: (lambda: iota(Weight((1, 2)), system()),
                     iota(Weight((2, 1)), system())),
    EquivClass: (lambda: poset().classes[0], poset().classes[1]),
    TuplePoset: (poset, poset((1, 2))),
    CoverWitness: (lambda: poset().cover_edges[0].witness,
                   poset().cover_edges[1].witness),
    CoverEdge: (lambda: poset().cover_edges[0], poset().cover_edges[1]),
    LedgerRow: (ledger_row, LedgerRow("h1", 2, 3, False, True)),
    SweepConfig: (SweepConfig, SweepConfig(max_coord=5, max_k=4)),
}


def field_tuple(value) -> tuple:
    return tuple(getattr(value, name) for name in type(value)._fields)


def read_caches(value) -> list[str]:
    """Read every cached_property of value's class; their names."""
    names = [name for cls in type(value).__mro__
             for name, attr in vars(cls).items()
             if isinstance(attr, cached_property)]
    for name in names:
        getattr(value, name)
    return names


def test_every_value_class_is_covered():
    assert len(VALUES) == 12
    for cls, (fresh, other) in VALUES.items():
        assert type(fresh()) is type(other) is cls


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda cls: cls.__name__)
class TestValueClass:
    def test_equality_and_hash_are_the_field_tuples(self, cls):
        fresh, other = VALUES[cls]
        a, b = fresh(), fresh()
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b) == hash(field_tuple(a))
        assert field_tuple(a) != field_tuple(other)
        assert a != other and hash(other) == hash(field_tuple(other))
        # only a value of the same class compares, never its field tuple
        assert a.__eq__(field_tuple(a)) is NotImplemented
        assert a != field_tuple(a)

    def test_repr_names_each_field(self, cls):
        a = VALUES[cls][0]()
        fields = ", ".join(f"{name}={getattr(a, name)!r}"
                           for name in cls._fields)
        assert repr(a) == f"{cls.__name__}({fields})"

    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        a = VALUES[cls][0]()
        before = field_tuple(a)
        for name in (*cls._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(a, name, None)
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert field_tuple(a) == before and "extra" not in vars(a)

    def test_pickle_round_trip(self, cls):
        a = VALUES[cls][0]()
        back = pickle.loads(pickle.dumps(a))
        assert type(back) is cls and back == a
        assert field_tuple(back) == field_tuple(a)

    def test_cached_values_stay_outside_the_fields(self, cls):
        fresh = VALUES[cls][0]
        read, untouched = fresh(), fresh()
        names = read_caches(read)
        assert all(name in vars(read) for name in names)
        assert not any(name in vars(untouched) for name in names)
        assert read == untouched and hash(read) == hash(untouched)
        assert repr(read) == repr(untouched)
        assert pickle.dumps(read) == pickle.dumps(untouched)
        back = pickle.loads(pickle.dumps(read))
        assert back == read and set(vars(back)) == set(cls._fields)


def test_reprs_keep_the_dataclass_format():
    assert repr(Weight((2, 0, 1))) == "Weight(omega=(2, 0, 1))"
    assert repr(Permutation((1, 0))) == "Permutation(images=(1, 0))"
    assert repr(CoverEdge(0, 1, CoverKind.TYPE_I)) == \
        "CoverEdge(low=0, high=1, kind=<CoverKind.TYPE_I: 'type_one'>, " \
        "witness=None)"
    assert repr(SweepConfig()) == \
        "SweepConfig(families=('A', 'C', 'B', 'D'), max_coord=3, " \
        "max_k=3, guard=1000000, corrupt=False)"


def test_values_of_two_classes_never_compare_equal():
    # equal field tuples, as a Permutation's and a Coroot's can be, make
    # no two values of different classes equal
    perm, coroot = Permutation((1, 0)), Coroot((1, 0))
    assert field_tuple(perm) == field_tuple(coroot)
    assert perm.__eq__(coroot) is NotImplemented and perm != coroot
