import gc
import itertools
import json
import math
import re
import sys
from operator import sub
from types import SimpleNamespace
import weakref
from collections import Counter
from hashlib import sha256

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyl_order import (
    CoverKind,
    CoverWitness,
    EquivClass,
    GuardExceeded,
    OrderVerdict,
    Permutation,
    TuplePoset,
    Weight,
    WeightTuple,
    build_poset,
    classify_cover,
    compare,
    count_tuples,
    covers_of,
    enumerate_tuples,
    maximal_element,
    minimal_element,
    poset_size_k2,
)
from weyl_order.posets import (_COUNT_CAP, _SLOT, _between, _capped_count,
                               _field_layout, _field_width, _first_sorter,
                               _frames, _inverse, _layout, _merge_pairs,
                               _mixed, _mixing, _pack, _part_box,
                               _part_multisets, _raised, _separator,
                               _sort_fields, compositions)
from weyl_order.tuples import _part_window_values, stat_labels, windows

from cover_oracle import (classify_cover_by_search, first_kind_by_sorters,
                          mix_by_steps, sorting_coset_by_stabilizer)
from fiber_oracle import (classes_by_enumeration, compositions_by_recursion,
                          members, part_multisets_by_scan,
                          stat_vector_by_windows, tuple_sort_key)
from move_oracle import covers_by_moves
from weight_actions import (act, canonical_form, inverse, is_identity,
                            sorting_permutation)
from order_oracle import (hasse_edges_pairwise, strict_masks_pairwise,
                          strict_pairs)


def T(*rows):
    return WeightTuple(tuple(Weight(r) for r in rows))


class TestEnumeration:
    def test_count_formula(self):
        assert count_tuples(Weight((2,)), 2) == 3
        assert count_tuples(Weight((2, 1)), 2) == 6
        assert count_tuples(Weight((1,)), 3) == 3
        assert count_tuples(Weight((3, 3, 3)), 4) == 8000
        with pytest.raises(ValueError):
            count_tuples(Weight((1,)), 0)

    def test_compositions(self):
        assert sorted(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
        assert len(list(compositions(4, 3))) == 15

    def test_compositions_match_the_recursive_reference(self):
        # same sequence in the same order, not only the same set
        for total in range(7):
            for k in range(1, 7):
                assert list(compositions(total, k)) == \
                    list(compositions_by_recursion(total, k)), (total, k)

    def test_deep_k_needs_no_recursion(self):
        # one recursion level per part used to overflow the stack here
        assert list(compositions(0, 1200)) == [(0,) * 1200]
        (only,) = enumerate_tuples(Weight((0, 0)), 1200)
        assert only.k == 1200 and set(only.parts) == {Weight((0, 0))}

    def test_enumeration_agrees_with_count(self):
        for coords in [(2,), (2, 1), (1, 1, 1), (0, 3)]:
            for k in (1, 2, 3):
                lam = Weight(coords)
                tuples = list(enumerate_tuples(lam, k))
                assert len(tuples) == count_tuples(lam, k)
                assert len(set(tuple(p.omega for p in t.parts)
                               for t in tuples)) == len(tuples)
                for t in tuples:
                    assert t.lam == lam
                    assert all(p.is_dominant for p in t.parts)

    def test_rejects_non_dominant(self):
        with pytest.raises(ValueError):
            list(enumerate_tuples(Weight((-1, 2)), 2))

    def test_guard(self):
        lam = Weight((10, 10, 10))
        with pytest.raises(GuardExceeded) as e:
            list(enumerate_tuples(lam, 5))
        assert e.value.estimate == count_tuples(lam, 5)
        with pytest.raises(GuardExceeded):
            build_poset(Weight((4, 4)), 2, guard=10)

    def test_capped_count_is_exact_up_to_the_cap(self):
        # every cap up to the count on the small fibers, so some cap equals
        # each running value; a few caps around the count on the rest
        for rank in (1, 2, 3):
            for omega in itertools.product(range(5), repeat=rank):
                for k in range(1, 7):
                    count = count_tuples(Weight(omega), k)
                    caps = (range(count + 2) if count < 500 else
                            {0, 1, count - 1, count, count + 1, 10**9})
                    for cap in caps:
                        got = _capped_count(omega, k, cap)
                        if count <= cap:
                            assert got == count, (omega, k, cap)
                        else:  # stopped early, past cap, not past the count
                            assert cap < got <= count, (omega, k, cap)

    def test_capped_count_stops_at_a_partial_binomial(self):
        # C(39999, 19999) has over 12,000 digits; the count stops at the
        # first partial binomial C(39999, j) past the cap
        got = _capped_count((20000,), 20000, 10**6)
        assert got == math.comb(39999, 2) and math.comb(39999, 1) <= 10**6
        # each step multiplies by at most n = 1999999
        got = _capped_count((1000000,), 1000000, _COUNT_CAP)
        assert _COUNT_CAP < got <= _COUNT_CAP * 1999999
        assert _capped_count((1,) * 5000, 2, _COUNT_CAP) == 2**5000

    def test_guard_message_names_a_count_past_the_cap(self):
        assert str(GuardExceeded(_COUNT_CAP + 1, 7)) == \
            "would enumerate at least 10**4300 tuples (guard 7)"
        assert str(GuardExceeded(6, 5)) == "would enumerate 6 tuples (guard 5)"
        assert len(str(GuardExceeded(_COUNT_CAP, 5))) == \
            len("would enumerate  tuples (guard 5)") + 4300


class TestExtremes:
    def test_minimal_element(self):
        assert minimal_element(Weight((2, 1)), 3) == \
            T((2, 1), (0, 0), (0, 0))

    @pytest.mark.parametrize("closed_form", [minimal_element, maximal_element])
    def test_extremes_apply_the_count_rule(self, closed_form):
        # the same ValueError, with the same message, as count_tuples
        for lam, k in [(Weight((2, 1)), 0), (Weight((2, 1)), -1),
                       (Weight((1, -1)), 2)]:
            with pytest.raises(ValueError) as want:
                count_tuples(lam, k)
            with pytest.raises(ValueError) as got:
                closed_form(lam, k)
            assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("coords,k,expected", [
        ((2, 1), 2, ((1, 1), (1, 0))),
        ((5,), 3, ((2,), (2,), (1,))),
        ((1, 1), 3, ((0, 1), (1, 0), (0, 0))),
        ((3, 1), 2, ((1, 1), (2, 0))),
    ])
    def test_maximal_element_frozen(self, coords, k, expected):
        assert maximal_element(Weight(coords), k) == T(*expected)

    def test_maximal_element_even_split_condition(self):
        # every pairwise part difference has epsilon coordinates in {0, 1},
        # with earlier parts never behind later ones
        for coords in itertools.product(range(4), repeat=2):
            for k in (2, 3, 4):
                top = maximal_element(Weight(coords), k)
                for i in range(k):
                    for j in range(i + 1, k):
                        diff = top.parts[i] - top.parts[j]
                        assert set(diff.eps()) <= {0, 1}

    def test_extremes_land_on_poset_ends(self):
        for coords in [(2, 1), (2, 2), (1, 0, 1)]:
            for k in (2, 3):
                lam = Weight(coords)
                poset = build_poset(lam, k)
                assert poset.class_of(minimal_element(lam, k)) == \
                    poset.bottom_index
                assert poset.class_of(maximal_element(lam, k)) == \
                    poset.top_index

    def test_cached_closed_form_indices_match_lookups(self):
        # lambda = 0 included; k = 1 gives a one-class poset
        for rank in (1, 2, 3):
            for coords in itertools.product(range(4), repeat=rank):
                lam = Weight(coords)
                for k in range(1, 5):
                    poset = build_poset(lam, k)
                    bottom = poset.class_of(minimal_element(lam, k))
                    top = poset.class_of(maximal_element(lam, k))
                    assert poset.closed_form_bottom_index == bottom == \
                        poset.bottom_index, (coords, k)
                    assert poset.closed_form_top_index == top == \
                        poset.top_index, (coords, k)

    def test_every_class_sits_below_the_top(self):
        for coords in itertools.product(range(3), repeat=2):
            for k in (2, 3):
                poset = build_poset(Weight(coords), k)
                top = poset.top_index
                for c in range(len(poset.classes)):
                    assert poset.verdict(c, top) in \
                        (OrderVerdict.LESS, OrderVerdict.EQUIV)


class TestBuildPoset:
    def test_running_example(self):
        poset = build_poset(Weight((2, 1)), 2)
        assert len(poset) == 3
        assert [c.stat_vector for c in poset.classes] == [
            (0, 2, 0, 3, 0, 1), (0, 2, 1, 3, 0, 1), (1, 2, 1, 3, 0, 1)]
        assert [str(c.rep) for c in poset.classes] == \
            ["(2,1)/(0,0)", "(2,0)/(0,1)", "(1,1)/(1,0)"]
        assert [c.size for c in poset.classes] == [2, 2, 2]
        assert poset.hasse_edges == ((0, 1), (1, 2))
        assert poset.bottom_index == 0 and poset.top_index == 2
        assert poset.verdict(0, 2) is OrderVerdict.LESS
        assert poset.verdict(2, 0) is OrderVerdict.GREATER

    def test_zero_and_tiny(self):
        assert len(build_poset(Weight((0, 0)), 2)) == 1
        assert len(build_poset(Weight((2, 2)), 2)) == 5

    def test_class_of_unknown(self):
        poset = build_poset(Weight((2, 1)), 2)
        with pytest.raises(ValueError):
            poset.class_of(T((1, 1), (1, 1)))

    @pytest.mark.parametrize("coords,k,x", [
        # each tuple's stat vector is that of the fiber's only class
        ((0,), 3, T((0, 0))),
        ((0, 0), 2, T((0, 0, 0))),
    ])
    def test_class_of_rejects_a_tuple_of_another_k(self, coords, k, x):
        poset = build_poset(Weight(coords), k)
        assert x.stat_vector == poset.classes[0].stat_vector
        with pytest.raises(ValueError, match="does not belong to this poset"):
            poset.class_of(x)

    def test_class_of_equals_the_scan(self):
        # class_of searches the sorted classes: every member multiset finds
        # the class a scan finds, and a tuple of the same rank and k from
        # another fiber, whose stat vector falls below the first class,
        # above the last or between two, finds none; nor does a tuple of
        # another k
        grid = [c for n in (1, 2) for c in itertools.product(range(4), repeat=n)
                if any(c)]
        places = Counter()
        for k in (2, 3):
            posets = {coords: build_poset(Weight(coords), k) for coords in grid}
            for coords, poset in posets.items():
                vectors = [cls.stat_vector for cls in poset.classes]
                for c, cls in enumerate(poset.classes):
                    for ms in cls.multisets:
                        x = WeightTuple(tuple(map(Weight, ms)))
                        assert poset.class_of(x) == \
                            vectors.index(x.stat_vector) == c
                    longer = WeightTuple(cls.rep.parts
                                         + (Weight.zero(len(coords)),))
                    with pytest.raises(ValueError, match="does not belong"):
                        poset.class_of(longer)
                for other, foreign in posets.items():
                    if len(other) != len(coords) or other == coords:
                        continue
                    for cls in foreign.classes:
                        sv = cls.stat_vector
                        assert sv not in vectors
                        below = sum(v < sv for v in vectors)
                        places["below" if below == 0 else "above"
                               if below == len(vectors) else "between"] += 1
                        with pytest.raises(ValueError, match="does not belong"):
                            poset.class_of(cls.rep)
        assert set(places) == {"below", "above", "between"}

    def test_classes_are_compare_equivalent(self):
        poset = build_poset(Weight((2, 2)), 3)
        for c, cls in enumerate(poset.classes):
            for m in members(cls):
                assert compare(m, cls.rep) is OrderVerdict.EQUIV
                assert poset.class_of(m) == c
        for a, b in itertools.combinations(range(len(poset.classes)), 2):
            assert compare(poset.classes[a].rep, poset.classes[b].rep) \
                is not OrderVerdict.EQUIV
        # the representative is the largest canonical form of a member
        for coords in [(2, 2), (2, 1, 1)]:
            for k in (2, 3, 4):
                for cls in build_poset(Weight(coords), k).classes:
                    assert cls.rep == max(map(canonical_form, members(cls)),
                                          key=tuple_sort_key)

    def test_classes_partition_the_fiber(self):
        for coords in [(0,), (0, 0), (3,), (2, 1), (0, 2, 1), (1, 1, 1, 1)]:
            for k in (1, 2, 3, 4):
                lam = Weight(coords)
                poset = build_poset(lam, k)
                total = sum(c.size for c in poset.classes)
                assert total == count_tuples(lam, k), (coords, k)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_multiset_route_matches_ordered_tuples(self, data):
        rank = data.draw(st.integers(1, 3))
        lam = Weight(data.draw(st.tuples(*[st.integers(0, 3)] * rank)))
        k = data.draw(st.sampled_from((1, 2, 3, 4)))
        want = classes_by_enumeration(lam, k)
        classes = build_poset(lam, k).classes
        assert [c.stat_vector for c in classes] == [sv for sv, _, _ in want]
        for cls, (_, rep, want_members) in zip(classes, want):
            assert cls.rep == rep
            assert cls.size == len(want_members)
            assert members(cls) == want_members

    def test_stat_vectors_match_window_reference(self):
        # lambda = 0 and k = 1 included; build_poset and
        # WeightTuple.stat_vector share their stat helpers, the reference
        # goes window by window through Weight.window
        for rank in (1, 2, 3):
            for coords in itertools.product(range(4), repeat=rank):
                for k in (1, 2, 3, 4):
                    for cls in build_poset(Weight(coords), k).classes:
                        for m in members(cls):
                            want = stat_vector_by_windows(m)
                            assert cls.stat_vector == want, (coords, k)
                            assert m.stat_vector == want, (coords, k)

    def test_each_distinct_part_is_packed_once_per_call(self, monkeypatch):
        # (6,6,6) at k = 3: 3691 multisets of 3 parts, 343 distinct parts;
        # each part's key is packed once in each call, and a second call
        # packs them all again, so no memo outlives its call
        import weyl_order.posets as posets
        lam, k = (6, 6, 6), 3
        multisets = list(_part_multisets(lam, k))
        parts = {p for ms in multisets for p in ms}
        assert len(multisets) == 3691 and len(parts) == 343
        packed = []
        real = posets._part_key

        def counting(units, size, omega):
            packed.append(omega)
            return real(units, size, omega)
        monkeypatch.setattr(posets, "_part_key", counting)
        first = build_poset(Weight(lam), k)
        assert len(packed) == len(set(packed)) == 343
        assert set(packed) == parts
        packed.clear()
        assert build_poset(Weight(lam), k) == first
        assert len(packed) == 343

    def test_windows_are_read_once_per_coordinate(self, monkeypatch):
        # the unit vectors' window values are all the bulk pass reads of
        # the window rule: rank calls of _part_window_values per call
        import weyl_order.posets as posets
        read = []
        real = posets._part_window_values

        def counting(omega):
            read.append(omega)
            return real(omega)
        monkeypatch.setattr(posets, "_part_window_values", counting)
        build_poset(Weight((2, 2, 2)), 3)
        assert read == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    @pytest.mark.parametrize("rank,top,ks", [
        (1, 8, range(1, 13)), (2, 3, range(5, 13)), (3, 2, range(5, 13))])
    def test_stat_vectors_at_large_k(self, rank, top, ks):
        # every member multiset of every class scores its class's vector
        # by the per-tuple route and by the window-by-window reference,
        # up to k = 12, where the packed sort runs 41 compare-exchanges
        for coords in itertools.product(range(top + 1), repeat=rank):
            for k in ks:
                for cls in build_poset(Weight(coords), k).classes:
                    for ms in cls.multisets:
                        x = WeightTuple(tuple(map(Weight, ms)))
                        assert x.stat_vector == cls.stat_vector, (coords, k)
                        assert stat_vector_by_windows(x) == cls.stat_vector

    @pytest.mark.parametrize("lam,k,width", [
        ((127,), 3, 8), ((128,), 3, 16), ((100, 27), 2, 8), ((100, 28), 2, 16),
        ((126, 1, 1), 2, 16), ((300,), 3, 16)])
    def test_stat_vectors_across_the_field_width_step(self, lam, k, width):
        # |lam| = 127 packs a byte per field, |lam| = 128 two bytes, read
        # back field by field; the vectors match the per-tuple route, and
        # the classes come in strictly increasing lex order
        assert _field_width(sum(lam)) == width
        poset = build_poset(Weight(lam), k)
        for cls in poset.classes:
            for ms in cls.multisets:
                x = WeightTuple(tuple(map(Weight, ms)))
                assert x.stat_vector == cls.stat_vector, ms
        assert len(poset) == len({c.stat_vector for c in poset.classes})
        if lam == (300,):
            assert len(poset) == 7651
            assert max(v for c in poset.classes for v in c.stat_vector) == 300

    @pytest.mark.parametrize("k", range(17))
    def test_merge_exchange_sorts_every_zero_one_input(self, k):
        # the 0-1 principle: a comparator network that sorts every 0-1
        # input sorts every input
        pairs = _merge_pairs(k)
        assert all(0 <= i < j < k for i, j in pairs)
        for bits in itertools.product((0, 1), repeat=min(k, 12)):
            values = list(bits) + [1] * (k - len(bits))
            for i, j in pairs:
                if values[i] > values[j]:
                    values[i], values[j] = values[j], values[i]
            assert values == sorted(values), bits
        if k in (8, 12):
            assert len(pairs) == {8: 19, 12: 41}[k]

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_packed_compare_exchange_sorts_fields(self, data):
        # k slot integers of n fields each, the values drawn with many
        # ties and zeros: each field comes out sorted across the slots
        width = data.draw(st.sampled_from((8, 16)))
        k = data.draw(st.integers(1, 12))
        n = data.draw(st.integers(1, 6))
        small = st.integers(0, 2)
        value = st.one_of(small, st.integers(0, 2 ** (width - 1) - 1))
        rows = data.draw(st.lists(st.lists(value, min_size=n, max_size=n),
                                  min_size=k, max_size=k))
        step = width // 8

        def pack(row):
            return int.from_bytes(b"".join(v.to_bytes(step, "big")
                                           for v in row), "big")
        top = pack([2 ** (width - 1)] * n)
        out = _sort_fields(list(map(pack, rows)), width, top)
        got = [[x >> width * (n - 1 - f) & (1 << width) - 1 for f in range(n)]
               for x in out]
        want = [sorted(column) for column in zip(*rows)]
        assert [list(column) for column in zip(*got)] == want

    def test_build_orders_no_parts(self, monkeypatch):
        # the walk never calls the ordered-tuple route and builds no
        # WeightTuple: a representative is built when first read, from the
        # class's first multiset, and kept
        import weyl_order.posets as posets

        def refuse(*args, **kwargs):
            raise AssertionError("build_poset enumerated ordered tuples")
        monkeypatch.setattr(posets, "enumerate_tuples", refuse)
        monkeypatch.setattr(WeightTuple, "stat_vector",
                            property(lambda self: refuse()))
        built = []
        check = WeightTuple.__init__

        def counting(self, parts):
            built.append(self)
            check(self, parts)
        monkeypatch.setattr(WeightTuple, "__init__", counting)
        for coords, k in [((2, 1), 2), ((5, 5), 6), ((2, 2, 2), 3), ((0, 0), 1)]:
            built.clear()
            poset = build_poset(Weight(coords), k)
            assert built == []
            reps = [cls.rep for cls in poset.classes]
            again = [cls.rep for cls in poset.classes]  # cached, not rebuilt
            assert list(map(id, built)) == list(map(id, reps)) == \
                list(map(id, again))
            assert reps == [WeightTuple(tuple(map(Weight, cls.multisets[0])))
                            for cls in poset.classes]

    def test_a_poset_pickles_without_its_weight_cache(self):
        # a class pickles from its fields alone: a representative read
        # stays behind, and is rebuilt on read
        import pickle
        poset = build_poset(Weight((2, 2)), 3)
        poset.cover_rows, poset.labels
        reps = [cls.rep for cls in poset.classes]
        back = pickle.loads(pickle.dumps(poset))
        assert back == poset and back.cover_rows == poset.cover_rows
        assert all("rep" not in cls.__dict__ for cls in back.classes)
        assert [cls.rep for cls in back.classes] == reps
        assert back.json_text() == poset.json_text()


def assert_walk_matches_scan(lam, k):
    """The band-cut walk yields the scan's multisets in the scan's order,
    and build_poset's class sizes are the scan's multinomials."""
    want = list(part_multisets_by_scan(lam, k))
    assert list(_part_multisets(lam, k)) == want, (lam, k)
    by_stats = {}
    for ms in want:
        by_stats.setdefault(WeightTuple(tuple(map(Weight, ms))).stat_vector,
                            []).append(ms)
    sizes = [sum(math.factorial(k) // math.prod(map(math.factorial,
                                                   Counter(ms).values()))
                 for ms in by_stats[sv]) for sv in sorted(by_stats)]
    classes = build_poset(Weight(lam), k).classes
    assert [c.size for c in classes] == sizes, (lam, k)
    assert [c.multisets for c in classes] == \
        [tuple(by_stats[sv]) for sv in sorted(by_stats)]


class TestPartWalk:
    """The output-sensitive walk against the full scan it replaces."""

    def test_rank_at_most_three(self):
        # lambda = 0 and k = 1 included
        for rank in (1, 2, 3):
            for lam in itertools.product(range(4), repeat=rank):
                for k in range(1, 6):
                    assert_walk_matches_scan(lam, k)

    def test_rank_four_to_six(self):
        for rank in (4, 5, 6):
            for lam in itertools.product(range(3), repeat=rank):
                for k in (2, 3):
                    assert list(_part_multisets(lam, k)) == \
                        list(part_multisets_by_scan(lam, k)), (lam, k)

    @pytest.mark.parametrize("lam,k", [((6, 6, 6), 3), ((5, 5), 6),
                                       ((2, 2, 2, 2, 2, 2), 2)])
    def test_benchmark_fibers(self, lam, k):
        assert_walk_matches_scan(lam, k)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_fibers(self, data):
        rank = data.draw(st.integers(1, 4))
        lam = data.draw(st.tuples(*[st.integers(0, 7 - rank)] * rank))
        k = data.draw(st.integers(1, 7 - rank))
        assert_walk_matches_scan(lam, k)

    def test_large_k_pads_the_small_k_walk_with_zero_parts(self):
        # a multiset holds at most |lam| nonzero parts, so past k = |lam|
        # only zero parts are added; the walk appends them instead of
        # recursing once per part, which would pass the recursion limit
        for lam in [(0, 0), (1,), (1, 0), (1, 1), (2, 1), (1, 0, 1)]:
            zero = (0,) * len(lam)
            small = list(_part_multisets(lam, max(sum(lam), 1)))
            assert list(_part_multisets(lam, 3000)) == \
                [ms + (zero,) * (3000 - len(ms)) for ms in small], lam

    def test_k1_lists_no_part(self, monkeypatch):
        # one multiset, (lam,), whatever the box under lam would hold
        import weyl_order.posets as posets

        def refuse(lam):
            raise AssertionError(f"the part box under {lam} was built")
        monkeypatch.setattr(posets, "_part_box", refuse)
        assert list(_part_multisets((60, 60, 60), 1)) == [((60, 60, 60),)]
        assert list(_part_multisets((0, 0), 1)) == [((0, 0),)]
        poset = build_poset(Weight((60, 60, 60)), 1)
        assert [(cls.size, cls.multisets) for cls in poset.classes] == \
            [(1, (((60, 60, 60),),))]
        assert poset.cover_rows == ((),)

    def test_zero_lambda_at_large_k_is_one_class(self):
        poset = build_poset(Weight((0, 0)), 3000)
        assert len(poset) == 1
        assert poset.classes[0].size == 1
        assert poset.bottom_index == poset.top_index == 0


class TestPartCodes:
    """The walk's mixed-radix part codes where a radix could go wrong: a
    zero coordinate (radix 1) first, in the middle or last, and one
    coordinate much larger than the rest."""

    @staticmethod
    def assert_parts_by_descending_eps(lam):
        parts, code_of, pos = _part_box(lam)
        box = list(itertools.product(*(range(m + 1) for m in lam)))
        assert parts == sorted(box, key=lambda p: Weight(p).eps(),
                               reverse=True), lam
        assert [box[c] for c in code_of] == parts, lam
        assert [pos[c] for c in code_of] == list(range(len(box))), lam

    def test_integer_keys_sort_the_box_by_epsilon(self):
        # lambda = 0 included
        for rank in (1, 2, 3, 4):
            for lam in itertools.product(range(4), repeat=rank):
                self.assert_parts_by_descending_eps(lam)

    @pytest.mark.parametrize("lam", [(0, 40, 0), (12, 0, 0, 1), (9, 0, 2)])
    def test_integer_keys_with_one_large_coordinate(self, lam):
        self.assert_parts_by_descending_eps(lam)

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("lam", [(0, 7, 0), (9, 0, 2), (1, 0, 0, 5),
                                     (0, 0, 4)])
    def test_walk_matches_scan(self, lam, k):
        assert_walk_matches_scan(lam, k)

    @pytest.mark.parametrize("lam,k", [((9, 0, 2), 3), ((1, 0, 0, 5), 4)])
    def test_classes_match_enumeration(self, lam, k):
        want = classes_by_enumeration(Weight(lam), k)
        classes = build_poset(Weight(lam), k).classes
        assert [(c.stat_vector, c.rep, c.size) for c in classes] == \
            [(sv, rep, len(tuples)) for sv, rep, tuples in want]
        for cls, (_, _, tuples) in zip(classes, want):
            assert members(cls) == tuples


class TestSizeFormula:
    def test_frozen(self):
        assert poset_size_k2(Weight((2, 1))) == 3
        assert poset_size_k2(Weight((2, 2))) == 5
        assert poset_size_k2(Weight((0, 0))) == 1

    def test_sweep_against_enumeration(self):
        for n in (1, 2):
            for coords in itertools.product(range(5), repeat=n):
                lam = Weight(coords)
                assert len(build_poset(lam, 2)) == poset_size_k2(lam)


class TestOrbitStructure:
    def test_k2_classes_are_exactly_swap_orbits(self):
        for coords in itertools.product(range(4), repeat=2):
            poset = build_poset(Weight(coords), 2)
            for cls in poset.classes:
                parts = {tuple(p.omega for p in m.parts)
                         for m in members(cls)}
                a = next(iter(parts))
                assert parts == {a, (a[1], a[0])}
                assert cls.size in (1, 2)

    def test_k3_class_can_join_two_orbits(self):
        # (3,3) holds the smallest example: one class, twelve members,
        # two distinct part multisets (coordinate reverses of each other)
        poset = build_poset(Weight((3, 3)), 3)
        cls = poset.classes[poset.class_of(T((1, 2), (2, 0), (0, 1)))]
        assert cls.size == 12
        multisets = {frozenset(p.omega for p in m.parts)
                     for m in members(cls)}
        assert multisets == {
            frozenset({(1, 2), (2, 0), (0, 1)}),
            frozenset({(2, 1), (0, 2), (1, 0)})}
        assert {frozenset(ms) for ms in cls.multisets} == multisets
        assert cls.rep == T((1, 2), (2, 0), (0, 1))  # the larger sorted member
        assert compare(T((1, 2), (2, 0), (0, 1)),
                       T((2, 1), (0, 2), (1, 0))) is OrderVerdict.EQUIV


class TestHasse:
    @staticmethod
    def strict_pairs(poset):
        return {(a, b)
                for a in range(len(poset.classes))
                for b in range(len(poset.classes))
                if poset.verdict(a, b) is OrderVerdict.LESS}

    def test_edges_are_the_transitive_reduction(self):
        for coords in [(2, 1), (2, 2), (3, 1), (1, 1, 1)]:
            for k in (2, 3):
                poset = build_poset(Weight(coords), k)
                strict = self.strict_pairs(poset)
                reduction = {(a, b) for a, b in strict
                             if not any((a, c) in strict and (c, b) in strict
                                        for c in range(len(poset.classes)))}
                assert set(poset.hasse_edges) == reduction
                assert poset.transitive_ok()

    def test_closure_of_edges_recovers_strict_order(self):
        poset = build_poset(Weight((2, 2)), 2)
        reach = {a: set() for a in range(len(poset.classes))}
        for a, b in poset.hasse_edges:
            reach[a].add(b)
        changed = True
        while changed:
            changed = False
            for a in reach:
                for b in list(reach[a]):
                    new = reach[b] - reach[a]
                    if new:
                        reach[a] |= new
                        changed = True
        assert {(a, b) for a in reach for b in reach[a]} == \
            self.strict_pairs(poset)


class TestCoverClassification:
    def test_running_chain(self):
        low, mid, high = T((2, 1), (0, 0)), T((2, 0), (0, 1)), T((1, 1), (1, 0))
        kind, w = classify_cover(low, mid)
        assert kind is CoverKind.TYPE_II
        assert is_identity(w.sigma) and w.mix == (1, 2)
        kind, w = classify_cover(mid, high)
        assert kind is CoverKind.TYPE_II
        assert w.sigma.cycle_notation() == "(2 3)" and w.mix == (1, 2)

    def test_chunk_transfer_cover(self):
        kind, w = classify_cover(T((2, 0), (0, 0)), T((1, 0), (1, 0)))
        assert kind is CoverKind.TYPE_I
        assert is_identity(w.sigma)
        assert w.index == 1 and w.reading == "inverse"
        assert "i=1" in w.describe()

    def test_rank_mismatch_raises(self):
        with pytest.raises(ValueError, match="rank mismatch"):
            classify_cover(T((1, 0), (0, 0)), T((1,), (0,)))

    def test_part_sum_mismatch_raises(self):
        low, high = T((1, 0), (0, 0)), T((5, 5), (3, 0))
        with pytest.raises(ValueError, match=re.escape(
                f"part sums differ: {low.lam} vs {high.lam}")):
            classify_cover(low, high)

    def test_top_has_no_covers(self):
        poset = build_poset(Weight((2, 1)), 2)
        assert covers_of(poset, poset.top_index) == []

    def test_every_edge_classified_at_rank_two(self):
        for coords in itertools.product(range(4), repeat=2):
            poset = build_poset(Weight(coords), 2)
            for c in range(len(poset.classes)):
                edges = covers_of(poset, c)
                kinds = [e.kind for e in edges]
                assert CoverKind.UNCLASSIFIED not in kinds
                assert kinds.count(CoverKind.TYPE_I) <= 2
                assert kinds.count(CoverKind.TYPE_II) <= 1

    def test_witness_reconstructs_the_cover(self):
        # a first-kind witness names the transferred chunk explicitly
        for coords in [(2, 0), (3, 1), (2, 2)]:
            poset = build_poset(Weight(coords), 2)
            for c in range(len(poset.classes)):
                for e in covers_of(poset, c):
                    if e.kind is not CoverKind.TYPE_I:
                        continue
                    w = e.witness
                    lam1 = canonical_form(poset.classes[e.low].rep).parts[0]
                    rho_ = inverse(w.sigma) if w.reading == "inverse" else w.sigma
                    chunk = act(rho_, Weight.fundamental(w.index, 2))
                    assert w.orientation[0] == lam1 - chunk

    @staticmethod
    def fields(result):
        kind, w = result
        if w is None:
            return kind, None
        return kind, w.sigma, w.orientation, w.index, w.reading, w.mix

    def test_direct_route_matches_search_on_strict_pairs(self):
        checked = 0
        for coords in [(1, 1, 1, 1), (2, 1, 0, 1), (1, 1, 1, 1, 1),
                       (2, 0, 2, 0, 1), (1, 1, 1, 1, 1, 1), (2, 2, 2, 2)]:
            poset = build_poset(Weight(coords), 2)
            for a, b in strict_pairs(poset):
                low, high = poset.classes[a].rep, poset.classes[b].rep
                assert self.fields(classify_cover(low, high)) == \
                    self.fields(classify_cover_by_search(low, high))
                checked += 1
        assert checked == 460

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_direct_route_matches_search_on_random_splittings(self, data):
        rank = data.draw(st.integers(1, 6))
        lam = data.draw(st.tuples(*[st.integers(0, 3)] * rank))

        def splitting():
            first = tuple(data.draw(st.integers(0, m)) for m in lam)
            return T(first, tuple(m - c for m, c in zip(lam, first)))
        low, high = splitting(), splitting()
        assert self.fields(classify_cover(low, high)) == \
            self.fields(classify_cover_by_search(low, high))

    def test_direct_route_matches_search_on_every_rank_six_cover(self):
        # the only fiber here with 7-slot all-tie sorter cosets at scale
        poset = build_poset(Weight((2,) * 6), 2)
        reps = [cls.rep for cls in poset.classes]
        kinds = []
        for a, b in poset.hasse_edges:
            got = self.fields(classify_cover(reps[a], reps[b]))
            assert got == self.fields(classify_cover_by_search(reps[a], reps[b])), (a, b)
            kinds.append(got[0])
        assert (kinds.count(CoverKind.TYPE_I), kinds.count(CoverKind.TYPE_II)) == (858, 504)

    def test_a_late_sorter_witnesses_an_incomparable_pair(self):
        # an incomparable pair of the (2,2,2,2) k = 2 poset: its delta
        # (0,2,2,0,0) has 12 sorters and only the 11th witnesses, so a
        # classifier that stopped at the first sorter would miss it
        low, high = T((0, 1, 2, 1), (2, 1, 0, 1)), T((1, 0, 2, 2), (1, 2, 0, 0))
        poset = build_poset(Weight((2, 2, 2, 2)), 2)
        a, b = poset.class_of(low), poset.class_of(high)
        assert (poset.classes[a].rep, poset.classes[b].rep) == (low, high)
        assert not {(a, b), (b, a)} & set(strict_pairs(poset))
        got = classify_cover(low, high)
        assert self.fields(got) == self.fields(classify_cover_by_search(low, high))
        kind, w = got
        assert kind is CoverKind.TYPE_I
        assert w.sigma.cycle_notation() == "(1 5 4 3)"
        assert w.sigma.images == (4, 1, 0, 2, 3)
        assert (w.index, w.reading) == (2, "forward")
        assert w.orientation == (Weight((1, 0, 2, 2)), Weight((1, 2, 0, 0)))
        sorters = [p.images for p in
                   sorting_coset_by_stabilizer((0, 2, 2, 0, 0))]
        assert len(sorters) == 12 and sorters.index(w.sigma.images) == 10
        assert sorters[0] != w.sigma.images

    def test_one_sorter_drawn_per_rank_six_cover(self, monkeypatch):
        import weyl_order.posets as posets
        drawn, built = [], []
        real_first, real_forward = posets._first_sorter, posets._forward_sorter

        def counting(values):
            drawn.append(values)
            return real_first(values)

        def building(pair, raised, i):
            built.append((pair.delta, raised, i))
            return real_forward(pair, raised, i)
        monkeypatch.setattr(posets, "_first_sorter", counting)
        monkeypatch.setattr(posets, "_forward_sorter", building)
        poset = build_poset(Weight((2,) * 6), 2)
        edges = poset.cover_edges
        lows = {e.low for e in edges}
        assert (len(edges), len(lows)) == (1362, 364)
        # the covers of one lower class share its first sorter, which
        # witnesses every cover here: one draw per class, and no later
        # sorter is built
        assert len(drawn) == len(lows) and built == []
        assert {e.witness.sigma.images for e in edges} <= {
            real_first(values)[0] for values in drawn}

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_first_sorter_is_the_stable_sorting_permutation(self, values):
        # three values over up to 8 slots: ties on almost every draw; the
        # first sorter heads the stabilizer coset, and q is its inverse
        values = tuple(values)
        images, q = _first_sorter(values)
        assert images == sorting_permutation(values).images
        assert images == sorting_coset_by_stabilizer(values)[0].images
        assert tuple(q) == inverse(Permutation(images)).images

    def test_epsilon_vector_computed_once_per_part(self, monkeypatch):
        # the poset's frame table builds each class's frames, the padded
        # epsilon vectors of its two parts, once for all the edges that
        # read the class, from its first multiset's omega tuples: 365
        # classes, 365 calls, and none on a second read
        import weyl_order.posets as posets
        poset = build_poset(Weight((2,) * 6), 2)
        calls = []
        real = posets._frames

        def counting(o1, o2, width):
            calls.append((o1, o2))
            return real(o1, o2, width)
        monkeypatch.setattr(posets, "_frames", counting)
        poset.cover_edges
        assert Counter(calls) == Counter(cls.multisets[0]
                                         for cls in poset.classes)
        assert len(calls) == 365
        calls.clear()
        poset._cover_decisions, covers_of(poset, poset.bottom_index)
        assert calls == []

    def test_dominance_computed_once_per_part(self, monkeypatch):
        lam = Weight((2,) * 6)
        calls = []
        prop = Weight.__dict__["is_dominant"]
        real = prop.func

        def counting(w):
            calls.append(w)
            return real(w)
        monkeypatch.setattr(prop, "func", counting)
        poset = build_poset(lam, 2)
        # the walk builds no part: only lam is checked, by the guard
        assert calls == [lam]
        # each representative's two parts are checked once when it is
        # built, and never again on a second read
        parts = [p for cls in poset.classes for p in cls.rep.parts]
        [cls.rep for cls in poset.classes]
        seen = [id(w) for w in calls[1:]]
        assert len(seen) == len(set(seen)) == len(parts) == 730
        assert set(seen) == set(map(id, parts))

    def test_k3_falls_through(self):
        poset = build_poset(Weight((1, 1)), 3)
        kinds = {e.kind for c in range(len(poset.classes))
                 for e in covers_of(poset, c)}
        assert kinds == {CoverKind.UNCLASSIFIED}


class TestPerClassCoverData:
    """What a lower class gives all its covers (e1, e2, delta, its first
    sorter and the masks and mix data built from it) is built once per
    cover row and dropped with it; these pin that fast path against the
    search oracle and against call order."""

    @staticmethod
    def assert_matches_search(poset):
        reps = [cls.rep for cls in poset.classes]
        assert [(e.low, e.high) for e in poset.cover_edges] == \
            list(poset.hasse_edges)
        for e in poset.cover_edges:
            want = classify_cover_by_search(reps[e.low], reps[e.high])
            assert (e.kind, e.witness) == want, (e.low, e.high)
            if e.witness is not None:
                assert e.witness.describe() == want[1].describe()

    def test_cover_edges_match_search_on_small_fibers(self):
        # every nonzero k = 2 fiber of rank <= 3 with coordinates <= 3
        fibers = [c for n in (1, 2, 3) for c in itertools.product(range(4), repeat=n)
                  if any(c)]
        assert len(fibers) == 81
        for coords in fibers:
            self.assert_matches_search(build_poset(Weight(coords), 2))

    def test_cover_edges_match_search_on_2222(self):
        self.assert_matches_search(build_poset(Weight((2, 2, 2, 2)), 2))

    def test_a_late_sorter_extends_the_kept_ones(self, monkeypatch):
        # the incomparable pair of (2,2,2,2) whose 11th sorter witnesses,
        # decided between covers of its lower class on one local lower
        # pair: the late sorter is built for that decision alone, and the
        # pair keeps only its first sorter, which the covers still read
        import weyl_order.posets as posets
        built = []
        real = posets._forward_sorter

        def counting(pair, raised, i):
            images = real(pair, raised, i)
            built.append(images)
            return images
        monkeypatch.setattr(posets, "_forward_sorter", counting)
        poset = build_poset(Weight((2, 2, 2, 2)), 2)
        reps = [cls.rep for cls in poset.classes]
        a = poset.class_of(T((0, 1, 2, 1), (2, 1, 0, 1)))
        b = poset.class_of(T((1, 0, 2, 2), (1, 2, 0, 0)))
        ups = [h for low, h in poset.hasse_edges if low == a]
        assert ups
        pair = posets._LowerPair(poset._uppers[a], poset._packing[1])
        first = pair.images
        for high in ups + [b] + ups + [b]:
            kind, *witness = posets._decide(pair, poset._uppers[high])
            assert (kind, posets._witness(*witness)) == \
                classify_cover_by_search(reps[a], reps[high]), high
        sorters = [p.images for p in sorting_coset_by_stabilizer(pair.delta)]
        assert pair.images == first == sorters[0]
        # one build per decision of the pair, the 11th sorter each time
        assert built == [sorters[10]] * 2

    def test_no_cover_data_outlives_its_row(self):
        # a decision holds its sorter's image tuple, not the sorter, and
        # its orientation's omega tuples, not Weights; classify_cover
        # leaves nothing on the lower representative
        poset = build_poset(Weight((2, 2, 2, 2)), 2)
        decisions = [d for row in poset._cover_decisions for d in row]
        assert len(decisions) == len(poset.hasse_edges)
        for kind, images, orientation, index, reading, mix in decisions:
            assert isinstance(kind, CoverKind)
            assert images is None or (
                type(images) is tuple
                and all(type(t) is int for t in images)), images
            # the orientation as two omega int tuples: its Weights are
            # built by _witness alone
            assert orientation is None or (
                len(orientation) == 2 and all(
                    type(o) is tuple and all(type(c) is int for c in o)
                    for o in orientation)), orientation
        assert {d[1] is None for d in decisions} == {False}
        reps = [cls.rep for cls in poset.classes]
        for low, high in poset.hasse_edges:
            before = dict(reps[low].__dict__)
            assert classify_cover(reps[low], reps[high])[1] is not None
            assert reps[low].__dict__ == before

    def test_decisions_build_no_weight(self, monkeypatch):
        # a fresh poset's decisions, and the covers and poset files read
        # off them, construct no Weight: the frames come from omega tuples
        # and a decision holds omega tuples.  The witness objects are what
        # build Weights, one per distinct part that cover_edges reads
        poset = build_poset(Weight((2,) * 6), 2)
        built = []
        real = Weight.__init__

        def counting(w, omega):
            real(w, omega)
            built.append(w.omega)
        monkeypatch.setattr(Weight, "__init__", counting)
        poset._cover_decisions
        out, chunks = poset.covers_text(True)
        assert out and list(chunks)
        poset.json_text(), poset.to_dot()
        assert built == []
        edges = poset.cover_edges
        assert len(edges) == 1362
        parts = {w.omega for e in edges for w in e.witness.orientation}
        assert sorted(built) == sorted(parts)

    @pytest.mark.parametrize("coords, k", [((2, 2, 2, 2), 2), ((2, 1, 1), 3)])
    def test_a_used_poset_is_freed_by_reference_counting(self, coords, k):
        # a table the poset owns must not hold the poset (a bound method or
        # a partial of self would): the cycle would outlive a del until the
        # cycle collector ran, which is off here
        enabled = gc.isenabled()
        gc.disable()
        try:
            poset = build_poset(Weight(coords), k)
            covers_of(poset, poset.bottom_index)
            poset._cover_decisions
            poset.cover_edges
            poset.json_text()
            poset.to_dot()
            out, chunks = poset.covers_text(True)
            assert out and list(chunks)
            alive = weakref.ref(poset)
            del poset
            assert alive() is None
        finally:
            if enabled:
                gc.enable()

    @staticmethod
    def classify(poset, pairs):
        reps = [cls.rep for cls in poset.classes]
        return {(a, b): classify_cover(reps[a], reps[b]) for a, b in pairs}

    @pytest.mark.parametrize("coords", [(2, 2, 2, 2), (3, 2, 1), (1,) * 5])
    def test_call_order_does_not_change_a_classification(self, coords):
        # every ordered pair of classes on one fresh poset, forwards, and
        # on another, backwards: covers, incomparable and reversed pairs
        # walk different numbers of sorters
        forward, backward = (build_poset(Weight(coords), 2) for _ in range(2))
        m = len(forward)
        pairs = [(a, b) for a in range(m) for b in range(m) if a != b]
        assert self.classify(forward, pairs) == \
            self.classify(backward, pairs[::-1])

    @pytest.mark.parametrize("coords", [(2, 2, 2, 2), (2,) * 6])
    def test_edges_classified_backwards_match_cover_edges(self, coords):
        poset, fresh = (build_poset(Weight(coords), 2) for _ in range(2))
        backwards = self.classify(fresh, fresh.hasse_edges[::-1])
        assert [(e.kind, e.witness) for e in poset.cover_edges] == \
            [backwards[edge] for edge in poset.hasse_edges]


class TestPackedRule:
    """The k = 2 rule decides on packed tuples: the chunk shape
    (``posets._raised``) and the coordinate mix (``posets._mixed``) as
    pure functions at their edges, the mix against the tuple test of
    ``tests/cover_oracle.py``, the frames filled from omega tuples
    against the ``Weight`` route, and the decision list against the
    search oracle, field by field."""

    @staticmethod
    def raised_by_values(e1, f, bits):
        # the rule on value tuples: the slots holding the larger of two
        # values a step apart, as a packed mask, else 0
        chunk = [x - y for x, y in zip(e1, f)]
        top = max(chunk)
        if top - min(chunk) != 1:
            return 0
        return sum(bit for bit, c in zip(bits, chunk) if c == top)

    @pytest.mark.parametrize("span, width", [
        (1, 8), (127, 8), (128, 16), (2**15 - 1, 16), (2**15, 24),
        (2**63 - 1, 64), (2**63, 72)])
    def test_chunk_test_at_the_field_width_steps(self, span, width):
        # every padded vector of length 4 over the extreme values 0 .. span,
        # so chunk entries reach -span, -2, 2 and span next to valid ones
        assert _field_width(span) == width
        fields = _field_layout(4, width)
        bits, off = fields[0], fields[1]
        values = sorted({v for v in (0, 1, 2, span - 1, span) if v >= 0})
        vectors = [v + (0,) for v in itertools.product(values, repeat=3)]
        passed = 0
        for e1 in vectors:
            top = _pack(e1, width) + off
            for f in vectors:
                want = self.raised_by_values(e1, f, bits)
                assert _raised(top, _pack(f, width), fields) == want, (e1, f)
                passed += want != 0
        assert passed > 0

    @pytest.mark.parametrize("chunk, raised", [
        ((1, 1, 0, 0), (0, 1)), ((0, 1, 0, 0), (1,)),
        ((-1, 0, -1, 0), (1, 3)), ((-1, -1, -1, 0), (3,)),
        ((0, 0, 0, 0), None),
        # an entry of -2 or +2 next to valid ones, borrowing or carrying
        # into the next field
        ((1, 2, 1, 0), None), ((2, 1, 0, 0), None), ((0, -2, 0, 0), None),
        ((-1, -2, -1, 0), None), ((1, -1, 0, 0), None),
        ((-2, 0, -1, 0), None), ((0, 1, 2, 0), None), ((-1, 1, 0, 0), None)])
    @pytest.mark.parametrize("width", [8, 16])
    def test_chunk_shapes(self, chunk, raised, width):
        f = (4, 3, 2, 0)
        e1 = tuple(map(sum, zip(f, chunk)))
        fields = _field_layout(4, width)
        want = 0 if raised is None else sum(fields[0][s] for s in raised)
        assert _raised(_pack(e1, width) + fields[1], _pack(f, width),
                       fields) == want

    @pytest.mark.parametrize("lam", [(64, 63), (64, 64), (32, 96)])
    def test_classify_cover_across_a_field_width_step(self, lam):
        # |lam| 127 packs 8-bit fields, 128 16-bit ones; low tuples whose
        # first part sits near the edges of the box, high ones next to
        # them, against the search
        def split(first):
            return T(first, tuple(m - c for m, c in zip(lam, first)))
        edges = [sorted({0, 1, m // 2, m - 1, m}) for m in lam]
        kinds = Counter()
        for a1, a2 in itertools.product(*edges):
            low = split((a1, a2))
            for b1, b2 in itertools.product(range(a1 - 1, a1 + 2),
                                            range(a2 - 1, a2 + 2)):
                if 0 <= b1 <= lam[0] and 0 <= b2 <= lam[1]:
                    high = split((b1, b2))
                    got = TestCoverClassification.fields(
                        classify_cover(low, high))
                    assert got == TestCoverClassification.fields(
                        classify_cover_by_search(low, high)), (low, high)
                    kinds[got[0]] += 1
        assert kinds[CoverKind.TYPE_I] and kinds[CoverKind.TYPE_II]

    @staticmethod
    def frames_by_weights(h1, h2, width):
        # the frames as the Weight route builds them: the two parts'
        # Weight.eps_padded, packed by shifts, one frame for equal parts
        def pack(values):
            return sum(v << width * s for s, v in enumerate(values))
        f1, f2 = h1.eps_padded(), h2.eps_padded()
        first = (h1, h2, f1, pack(f1))
        return (first,) if f1 == f2 else (first, (h2, h1, f2, pack(f2)))

    @pytest.mark.parametrize("coords, width", [
        ((9,), 8), ((3, 4), 8), ((2, 1, 2), 8), ((2, 2, 2, 2), 8),
        ((1,) * 5, 8), ((2,) * 6, 8),
        # |lam| 127 packs 8-bit fields, 128 16-bit ones
        ((127,), 8), ((64, 63), 8), ((1, 63, 63), 8),
        ((128,), 16), ((64, 64), 16), ((1, 63, 64), 16)])
    def test_frames_match_the_weight_route(self, coords, width):
        # every class's frames, filled from omega tuples, against the
        # frames of its first multiset's parts as Weights
        poset = build_poset(Weight(coords), 2)
        assert poset._packing[0] == width
        lengths = Counter()
        for b, cls in enumerate(poset.classes):
            frames = poset._uppers[b]
            parts = tuple(map(Weight, cls.multisets[0]))
            assert [(Weight(mu1), Weight(mu2), f, packed)
                    for mu1, mu2, f, packed in frames] == \
                list(self.frames_by_weights(*parts, width)), (coords, b)
            for mu1, _, f, packed in frames:
                assert packed == _pack(Weight(mu1).eps_padded(), width)
            lengths[len(frames)] += 1
        # one frame exactly for the split into two equal parts
        even = all(c % 2 == 0 for c in coords)
        assert lengths[1] == even and lengths[2] == len(poset) - even

    @pytest.mark.parametrize("width", [8, 16])
    def test_packed_mix_test_matches_the_steps(self, width):
        # e1, e2 and f over every padded vector of length 2 .. 4 with values
        # 0 .. 2, then of length 3 with values at the field's edges, and
        # every sorter of delta = e1 - e2: the packed test, which reads the
        # first sorter's frame, against the tuple test under each sorter
        span = 2 ** (width - 1) - 1
        grids = [(n, range(3)) for n in (1, 2, 3)] + [(2, (0, 1, span - 1,
                                                             span))]
        counts = Counter()
        for n, values in grids:
            vectors = [v + (0,) for v in itertools.product(values, repeat=n)]
            fields = _field_layout(n + 1, width)
            for e1, e2 in itertools.product(vectors, repeat=2):
                sorters = [_inverse(p.images) for p in
                           sorting_coset_by_stabilizer(tuple(map(sub, e1, e2)))]
                mixing = _mixing(e1, e2, sorters[0], fields)
                for f in vectors:
                    want = mix_by_steps(e1, e2, f, sorters[0])
                    assert _mixed(f, mixing) == want, (e1, e2, f)
                    for q in sorters[1:]:
                        assert mix_by_steps(e1, e2, f, q) == want, (e1, e2, f)
                    if want is None:
                        counts["fails"] += 1
                        continue
                    counts[want] += 1
                    steps = [f[x] - f[y] for x, y in zip(sorters[0],
                                                         sorters[0][1:])]
                    counts["negative steps"] += min(steps) < 0
                    counts["many sorters"] += len(sorters) > 1
        assert counts["fails"] and counts["negative steps"]
        assert counts["many sorters"]
        assert counts[(1, 2, 1)] and counts[(2, 1, 2)]

    def test_forward_sorters_built_only_when_the_inverse_reading_fails(
            self, monkeypatch):
        # no cover of these fibers reads forward, and none builds a
        # forward sorter; the incomparable pair of (2,2,2,2) whose 11th
        # sorter witnesses in the forward reading builds it
        import weyl_order.posets as posets
        built = []
        real = posets._forward_sorter

        def counting(pair, raised, i):
            images = real(pair, raised, i)
            built.append(images)
            return images
        monkeypatch.setattr(posets, "_forward_sorter", counting)
        for coords in [(2,) * 6, (1,) * 7, (2, 2, 2, 2), (4, 4, 4)]:
            build_poset(Weight(coords), 2)._cover_decisions
        assert built == []
        kind, w = classify_cover(T((0, 1, 2, 1), (2, 1, 0, 1)),
                                 T((1, 0, 2, 2), (1, 2, 0, 0)))
        assert w.reading == "forward" and w.sigma.images in built

    @pytest.mark.parametrize("coords, forward", [
        ((2, 2, 2, 2), 1), ((0, 2, 2, 2, 2), 6), ((2, 0, 2, 2, 2), 2),
        ((2, 2, 2, 0, 2), 2)])
    def test_first_kind_matches_the_sorter_walk_on_every_pair(self, coords,
                                                                forward):
        # every ordered pair of distinct classes, 1640 a fiber, covers or
        # not: the decision's first kind against the sorter-major walk over
        # the stabilizer coset.  The 73 first-kind covers read inverse at
        # the first sorter; the forward decisions, 11 over the four fibers,
        # fall on pairs that are not covers, each at a later sorter
        import weyl_order.posets as posets
        poset = build_poset(Weight(coords), 2)
        fields = poset._packing[1]

        def padded(part):
            return Weight(part).eps_padded()
        seen = Counter()
        for a, low in enumerate(poset.classes):
            e1, e2 = sorted(map(padded, low.multisets[0]), reverse=True)
            coset = sorting_coset_by_stabilizer(tuple(map(sub, e1, e2)))
            pair = posets._LowerPair(poset._uppers[a], fields)
            for b, high in enumerate(poset.classes):
                if a == b:
                    continue
                h1, h2 = high.multisets[0]
                frames = [(h1, h2, padded(h1))]
                if h1 != h2:
                    frames.append((h2, h1, padded(h2)))
                want = first_kind_by_sorters(e1, e2, frames, coset)
                kind, images, orientation, i, reading, mix = \
                    posets._decide(pair, poset._uppers[b])
                if want is None:
                    assert kind is not CoverKind.TYPE_I, (a, b)
                    continue
                assert (kind, (images, orientation, i, reading), mix) == \
                    (CoverKind.TYPE_I, want, None), (a, b)
                seen[reading] += 1
                seen["first"] += images == coset[0].images
                seen["covers"] += b in poset.cover_rows[a]
        assert seen == Counter(inverse=73, first=73, covers=73,
                               forward=forward)

    def test_forward_sorter_is_the_first_that_reads_forward(self):
        # every vector of length 2 .. 6 over {0, 1, 3} as delta, every gap
        # i and every raised set R of i slots: the built sorter against the
        # first sorter of the coset at which R reads forward at i, or None
        import weyl_order.posets as posets
        seen = Counter()
        for n in range(2, 7):
            bits = _field_layout(n, 8)[0]
            for delta in itertools.product((0, 1, 3), repeat=n):
                images, q = _first_sorter(delta)
                pair = SimpleNamespace(delta=delta, q=q, fields=(bits,))
                coset = [p.images for p in sorting_coset_by_stabilizer(delta)]
                for i in range(1, n):
                    if delta[q[i - 1]] - delta[q[i]] < 2:
                        continue
                    for r in itertools.combinations(range(n), i):
                        want = next((
                            sigma for sigma in coset
                            if set(sigma[:i]) == set(r)
                            and _inverse(sigma)[i - 1] in r
                            and _inverse(sigma)[i] not in r), None)
                        got = posets._forward_sorter(
                            pair, sum(bits[s] for s in r), i)
                        assert got == want, (delta, r)
                        seen[None if want is None else
                             want == images] += 1
        assert seen[None] and seen[True] and seen[False]

    def test_no_chunk_of_the_seven_ones_covers_has_the_gap(self):
        # (1,)*7: every cover is of the second kind, and though many upper
        # frames give a chunk of the right shape, none has the gap at its i,
        # so none reaches either reading
        import weyl_order.posets as posets
        poset = build_poset(Weight((1,) * 7), 2)
        fields = poset._packing[1]
        chunks = 0
        for a, row in enumerate(poset.cover_rows):
            if not row:
                continue
            pair = posets._LowerPair(poset._uppers[a], fields)
            gaps = pair.build_gaps()
            for b in row:
                for _, _, _, packed in poset._uppers[b]:
                    raised = _raised(pair.top, packed, fields)
                    if raised:
                        chunks += 1
                        assert gaps[raised.bit_count()] is None, (a, b)
        kinds = Counter(d[0] for row in poset._cover_decisions for d in row)
        assert kinds == Counter({CoverKind.TYPE_II: 167})
        assert chunks == 141

    def test_a_forward_reading_at_the_first_sorter(self):
        # a pair of (2,2,2,2,2,2) that is not a cover, read forward at the
        # first sorter of its delta (0,0,2,4,4,2,0), one of 24: the search
        # stops there
        import weyl_order.posets as posets
        poset = build_poset(Weight((2,) * 6), 2)
        low = poset.class_of(T((1, 0, 0, 1, 2, 2), (1, 2, 2, 1, 0, 0)))
        high = poset.class_of(T((1, 0, 0, 2, 2, 1), (1, 2, 2, 0, 0, 1)))
        assert high not in poset.cover_rows[low]
        pair = posets._LowerPair(poset._uppers[low], poset._packing[1])
        kind, images, orientation, i, reading, _ = posets._decide(
            pair, poset._uppers[high])
        coset = sorting_coset_by_stabilizer(pair.delta)
        assert (pair.delta, len(coset)) == ((0, 0, 2, 4, 4, 2, 0), 24)
        assert (kind, images, i, reading) == (
            CoverKind.TYPE_I, coset[0].images, 2, "forward")
        frames = [(mu1, mu2, f) for mu1, mu2, f, _ in poset._uppers[high]]
        assert first_kind_by_sorters(pair.e1, pair.e2, frames, coset) == \
            (images, orientation, i, reading)

    def test_second_kind_takes_the_first_fitting_frame(self):
        # every ordered pair of k = 2 splittings of small lam, upper pairs
        # with one frame (equal parts) and with two: a decision not of the
        # first kind is of the second exactly when some frame passes the
        # tuple test under the first sorter, and then it holds the first
        # such frame's orientation and mix
        import weyl_order.posets as posets
        seen = Counter()
        for lam in [(2,), (4,), (2, 2), (3, 1), (2, 0, 2), (1, 2, 1)]:
            width = _field_width(sum(lam))
            fields = _field_layout(len(lam) + 1, width)
            splits = [(p, tuple(m - c for m, c in zip(lam, p)))
                      for p in itertools.product(*(range(m + 1) for m in lam))]
            for low in splits:
                pair = posets._LowerPair(_frames(*low, width), fields)
                for high in splits:
                    frames = _frames(*high, width)
                    kind, images, orientation, _, _, mix = posets._decide(
                        pair, frames)
                    seen[len(frames), kind] += 1
                    if kind is CoverKind.TYPE_I:
                        continue
                    fits = [((mu1, mu2), m) for mu1, mu2, f, _ in frames
                            if (m := mix_by_steps(pair.e1, pair.e2, f,
                                                  pair.q)) is not None]
                    if fits:
                        assert (kind, images, (orientation, mix)) == \
                            (CoverKind.TYPE_II, pair.images, fits[0])
                    else:
                        assert kind is CoverKind.UNCLASSIFIED
        for length in (1, 2):
            assert seen[length, CoverKind.TYPE_II]
            assert seen[length, CoverKind.UNCLASSIFIED]
        assert seen[2, CoverKind.TYPE_I]

    @staticmethod
    def search_decision(low, high):
        # the oracle's answer as a decision holds it: the sorter's images
        # and the orientation's omega tuples
        kind, w = classify_cover_by_search(low, high)
        if w is None:
            return (kind, None, None, None, None, None)
        return (kind, w.sigma.images, tuple(p.omega for p in w.orientation),
                w.index, w.reading, w.mix)

    def test_decisions_match_search_on_a_grid(self):
        # every nonzero k = 2 fiber of rank 1 with coordinates <= 8, rank 2
        # <= 4 and rank 3 <= 2, then (2,2,2,2) and (1,)*7
        fibers = [c for n, top in ((1, 8), (2, 4), (3, 2))
                  for c in itertools.product(range(top + 1), repeat=n)
                  if any(c)]
        fibers += [(2, 2, 2, 2), (1,) * 7]
        checked = Counter()
        for coords in fibers:
            poset = build_poset(Weight(coords), 2)
            reps = [cls.rep for cls in poset.classes]
            for a, (row, decisions) in enumerate(zip(poset.cover_rows,
                                                     poset._cover_decisions)):
                for b, decision in zip(row, decisions):
                    assert decision == self.search_decision(reps[a], reps[b]), \
                        (coords, a, b)
                    checked[decision[0]] += 1
        assert len(fibers) == 60
        assert checked[CoverKind.UNCLASSIFIED] == 0
        assert checked[CoverKind.TYPE_I] and checked[CoverKind.TYPE_II]

    def test_the_eleventh_sorter_decides_on_packed_tuples(self):
        # the incomparable pair of (2,2,2,2) whose 11th sorter witnesses,
        # decided off the poset's own frames
        import weyl_order.posets as posets
        low, high = T((0, 1, 2, 1), (2, 1, 0, 1)), T((1, 0, 2, 2), (1, 2, 0, 0))
        poset = build_poset(Weight((2, 2, 2, 2)), 2)
        a, b = poset.class_of(low), poset.class_of(high)
        pair = posets._LowerPair(poset._uppers[a], poset._packing[1])
        decision = posets._decide(pair, poset._uppers[b])
        assert decision == self.search_decision(low, high)
        assert decision[1] == (4, 1, 0, 2, 3) and decision[3:5] == (2, "forward")
        sorters = [p.images for p in sorting_coset_by_stabilizer(pair.delta)]
        assert sorters.index(decision[1]) == 10
        # the pair keeps its first sorter alone, whatever sorter decided
        assert pair.images == sorters[0]
        assert set(pair.__slots__) == {
            "e1", "e2", "delta", "fields", "top", "images", "q", "gaps",
            "mixing"}

    @pytest.mark.parametrize("pick", ["bottom", "longest", "last"])
    def test_one_row_fills_its_own_classes(self, pick):
        # a fresh poset packs the frames of a row's classes alone: the
        # lower class and the classes covering it
        poset = build_poset(Weight((2,) * 6), 2)
        rows = poset.cover_rows
        c = {"bottom": poset.bottom_index,
             "longest": max(range(len(poset)), key=lambda a: len(rows[a])),
             "last": max(a for a, row in enumerate(rows) if row)}[pick]
        assert covers_of(poset, c)
        filled = sorted(poset._uppers)
        assert filled == sorted({c, *rows[c]})
        # reading every row fills every class once, and changes no decision
        before = dict(poset._uppers)
        poset._cover_decisions
        assert sorted(poset._uppers) == list(range(len(poset)))
        assert all(poset._uppers[b] is before[b] for b in filled)


class TestDecisionList:
    """The writers read the kinds off the decision list, cover_edges builds
    the witnesses from it, and classify_cover wraps the same rule."""

    STYLE = {"solid": "type_one", "dashed": "type_two",
             "dotted": "unclassified"}

    def writer_kinds(self, poset):
        # both text files, read back as (low, high, kind) triples
        from_json = [tuple(e) for e in json.loads(poset.json_text())["hasse"]]
        from_dot = [(int(a), int(b), self.STYLE[style]) for a, b, style in
                    re.findall(r"n(\d+) -> n(\d+) \[style=(\w+)\]",
                               poset.to_dot())]
        assert from_json == from_dot
        return from_json

    def test_writers_cover_edges_and_classify_cover_agree(self):
        # every nonzero k = 2 fiber of rank <= 3 with coordinates <= 3
        fibers = [c for n in (1, 2, 3)
                  for c in itertools.product(range(4), repeat=n) if any(c)]
        assert len(fibers) == 81
        for coords in fibers:
            poset = build_poset(Weight(coords), 2)
            # the writers first, on a poset with no cover edge built
            kinds = self.writer_kinds(poset)
            assert "cover_edges" not in poset.__dict__
            edges = poset.cover_edges
            assert kinds == [(e.low, e.high, e.kind.value) for e in edges]
            reps = [cls.rep for cls in poset.classes]
            for e in edges:
                kind, witness = classify_cover(reps[e.low], reps[e.high])
                assert (e.kind, e.witness) == (kind, witness), (coords, e)
                if witness is not None:
                    assert e.witness.describe() == witness.describe()

    def test_kinds_off_k2_are_unclassified(self):
        poset = build_poset(Weight((2, 2)), 3)
        assert poset.cover_edges
        assert {(e.kind, e.witness) for e in poset.cover_edges} == \
            {(CoverKind.UNCLASSIFIED, None)}


class TestCoversOf:
    @pytest.mark.parametrize("coords, k", [((2, 2, 2, 2), 2), ((3, 2), 2),
                                           ((2, 1), 3)])
    def test_bisection_equals_the_scan(self, coords, k):
        poset = build_poset(Weight(coords), k)
        for c in range(len(poset)):
            assert covers_of(poset, c) == \
                [e for e in poset.cover_edges if e.low == c], c
        assert covers_of(poset, poset.top_index) == []
        assert covers_of(poset, len(poset)) == []
        assert sum(len(covers_of(poset, c)) for c in range(len(poset))) == \
            len(poset.cover_edges) > 0

    def test_one_class_builds_its_row_alone(self, monkeypatch):
        # on the covers_k2 fiber, whose 1362 covers are all classified, a
        # class's covers build one witness per cover of its row, not the
        # witnesses of every cover in the poset
        poset = build_poset(Weight((2,) * 6), 2)
        built = Counter()
        init = CoverWitness.__init__

        def counting(self, *args, **kw):
            built["witness"] += 1
            init(self, *args, **kw)
        monkeypatch.setattr(CoverWitness, "__init__", counting)
        total = 0
        for c, row in enumerate(poset.cover_rows):
            built.clear()
            edges = covers_of(poset, c)
            assert built["witness"] == len(edges) == len(row), c
            total += len(row)
        assert total == 1362
        assert "cover_edges" not in poset.__dict__
        assert covers_of(poset, -1) == [] == covers_of(poset, len(poset))


class TestMoveCovers:
    """The k = 2 cover theorem: the covers of a class are exactly its
    minimal move targets above it (tests/move_oracle.py)."""

    def test_minimal_moves_are_the_covers(self):
        fibers = [c for n in (1, 2) for c in itertools.product(range(4), repeat=n)]
        fibers += list(itertools.product(range(3), repeat=3))
        fibers = [c for c in fibers if any(c)] + [(2, 2, 2, 2), (1, 1, 1, 1, 1)]
        classes = covers = 0
        for coords in fibers:
            poset = build_poset(Weight(coords), 2)
            assert covers_by_moves(poset) == set(poset.hasse_edges), coords
            classes += len(poset)
            covers += len(poset.hasse_edges)
        assert (len(fibers), classes, covers) == (46, 224, 309)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_minimal_moves_on_random_fibers(self, data):
        rank = data.draw(st.integers(1, 4))
        lam = Weight(data.draw(st.tuples(*[st.integers(0, 3 if rank < 3 else 2)]
                                          * rank)))
        poset = build_poset(lam, 2)
        assert covers_by_moves(poset) == set(poset.hasse_edges)


class TestConcatenation:
    def test_appending_common_parts_keeps_strictness(self):
        lam = Weight((2, 1))
        poset = build_poset(lam, 2)
        pairs = [(poset.classes[a].rep, poset.classes[b].rep)
                 for a, b in poset.hasse_edges]
        tails = [Weight(c) for c in itertools.product(range(3), repeat=2)]
        for low, high in pairs:
            for tau in tails:
                bigger_low = WeightTuple(low.parts + (tau,))
                bigger_high = WeightTuple(high.parts + (tau,))
                assert compare(bigger_low, bigger_high) is OrderVerdict.LESS

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_appending_random_tails(self, data):
        coords = data.draw(st.tuples(st.integers(0, 3), st.integers(0, 3)))
        lam = Weight(coords)
        poset = build_poset(lam, 2)
        strict = [(a, b) for a in range(len(poset.classes))
                  for b in range(len(poset.classes))
                  if poset.verdict(a, b) is OrderVerdict.LESS]
        if not strict:
            return
        a, b = data.draw(st.sampled_from(strict))
        extra = data.draw(st.integers(1, 2))
        tail = tuple(Weight(data.draw(st.tuples(st.integers(0, 2),
                                                st.integers(0, 2))))
                     for _ in range(extra))
        low = WeightTuple(poset.classes[a].rep.parts + tail)
        high = WeightTuple(poset.classes[b].rep.parts + tail)
        assert compare(low, high) is OrderVerdict.LESS


class TestSharedOrder:
    def test_strict_pairs_match_pairwise_verdicts(self):
        for coords, k in [((2, 1), 2), ((3, 3), 2), ((2, 2), 3), ((1, 1, 1), 3)]:
            poset = build_poset(Weight(coords), k)
            m = len(poset)
            want = [(a, b) for a in range(m) for b in range(m)
                    if poset.verdict(a, b) is OrderVerdict.LESS]
            assert list(strict_pairs(poset)) == want

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_rank_masks_match_pairwise_route(self, data):
        rank = data.draw(st.integers(1, 3))
        lam = Weight(data.draw(st.tuples(*[st.integers(0, 3)] * rank)))
        poset = build_poset(lam, data.draw(st.sampled_from((2, 3, 4))))
        below, above = strict_masks_pairwise(poset)
        assert poset._down == [mask | 1 << c for c, mask in enumerate(below)]
        assert poset.hasse_edges == hasse_edges_pairwise(poset)
        # the extremes: no class below the bottom, none above the top
        assert [c for c, mask in enumerate(below) if mask == 0] == \
            [poset.bottom_index]
        assert [c for c, mask in enumerate(above) if mask == 0] == \
            [poset.top_index]
        # index order is a linear extension, which the cover walk relies on
        for c, mask in enumerate(poset._down):
            assert mask < 2 << c
        for c, mask in enumerate(above):
            assert mask & ((1 << (c + 1)) - 1) == 0

    def test_all_columns_constant(self):
        # one class: every column is constant, so every one is skipped
        for coords, k in [((2, 1), 1), ((3,), 1), ((0, 0), 3), ((0, 0, 0), 3)]:
            poset = build_poset(Weight(coords), k)
            assert len(poset) == 1
            assert poset._down == [1]
            assert poset.bottom_index == poset.top_index == 0
            assert poset.hasse_edges == ()

    @pytest.mark.parametrize("coords, k", [((3, 3, 3), 3), ((1,) * 6, 2),
                                           ((2, 1), 2), ((2, 2), 4)])
    def test_constant_columns_are_skipped_exactly(self, coords, k):
        lam = Weight(coords)
        poset = build_poset(lam, k)
        columns = list(zip(*(cls.stat_vector for cls in poset.classes)))
        window_sums = dict(zip(windows(lam.rank), _part_window_values(lam.omega)))
        for (i, j, ell), column in zip(stat_labels(lam.rank, k), columns):
            if ell == k:
                # the k smallest of k parts are all of them: lam's window
                assert set(column) == {window_sums[i, j]}
        assert poset._down == [mask | 1 << c for c, mask
                               in enumerate(strict_masks_pairwise(poset)[0])]
        assert poset.hasse_edges == hasse_edges_pairwise(poset)

    def test_incomparable_extremes_raise(self):
        # two classes with incomparable stat vectors: each is minimal and
        # maximal, so neither extreme is unique
        lam = Weight((1, 0))
        classes = tuple(
            EquivClass(stat_vector=sv, size=1, multisets=(((1, 0), (0, 0)),))
            for sv in ((0, 1), (1, 0)))
        poset = TuplePoset(lam=lam, k=2, classes=classes)
        assert poset._down == [1, 2]
        with pytest.raises(ValueError, match=r"unique minimal class, found \[0, 1\]"):
            poset.bottom_index
        with pytest.raises(ValueError, match=r"unique maximal class, found \[0, 1\]"):
            poset.top_index

    def test_transitive_ok_checks_the_covers_against_the_masks(self):
        for coords, k in [((2, 1), 2), ((2, 2), 3), ((1, 1, 1), 2)]:
            poset = build_poset(Weight(coords), k)
            rows = poset.cover_rows
            assert poset.transitive_ok()

            def corrupt(a, row):
                poset.__dict__["cover_rows"] = rows[:a] + (row,) + rows[a + 1:]
            for a, row in enumerate(rows):
                for drop in range(len(row)):
                    corrupt(a, row[:drop] + row[drop + 1:])
                    assert not poset.transitive_ok(), (coords, k, a, row[drop])
            # an edge to a class below a, or incomparable with it, appended
            # out of order
            m = len(poset)
            strays = [(a, b) for a in range(m) for b in range(m)
                      if a != b and not poset._down[b] >> a & 1]
            assert strays
            for a, b in strays:
                corrupt(a, rows[a] + (b,))
                assert not poset.transitive_ok(), (coords, k, (a, b))
            # a class listed as covering itself
            for a in range(m):
                corrupt(a, rows[a] + (a,))
                assert not poset.transitive_ok(), (coords, k, a)

    def test_cover_walk_holds_less_than_the_masks(self):
        # with the order built, the walk allocates its rows and one shrinking
        # mask at a time: a second list of m masks, however built, would
        # hold about as much as the order itself
        import sys
        import tracemalloc
        poset = build_poset(Weight((6, 6, 6)), 3)
        masks = sum(map(sys.getsizeof, poset._down))
        tracemalloc.start()
        try:
            rows = poset.cover_rows
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(map(len, rows)) == 27173
        assert peak < masks, (peak, masks)

    def test_down_sets_hold_little_more_than_the_masks(self):
        # the masks are ANDed one class at a time: building the columns up
        # as whole lists of m masks would hold a second order while the
        # first is built, about twice the bytes of the masks
        import tracemalloc
        poset = build_poset(Weight((6, 6, 6)), 3)
        tracemalloc.start()
        try:
            down = poset._down
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        masks = sum(map(sys.getsizeof, down))
        assert peak < 1.5 * masks, (peak, masks)

    @staticmethod
    def hand_built(vectors):
        """A poset of one class per stat vector, in the order given."""
        classes = tuple(EquivClass(stat_vector=sv, size=1,
                                   multisets=(((1, 0), (0, 0)),))
                        for sv in vectors)
        return TuplePoset(lam=Weight((1, 0)), k=2, classes=classes)

    def assert_matches_pairwise(self, poset):
        below = strict_masks_pairwise(poset)[0]
        assert poset._down == [mask | 1 << c for c, mask in enumerate(below)]
        assert poset.hasse_edges == hasse_edges_pairwise(poset)
        assert poset.transitive_ok()

    @pytest.mark.parametrize("vectors", [
        ((1, 1), (0, 0), (2, 2)),   # (1, 2) would pass for a cover
        ((0, 1), (0, 1)),           # a repeated vector
        ((0, 0, 1), (2, 0, 0), (1, 5, 5)),
    ])
    def test_classes_out_of_lex_order_raise(self, vectors):
        with pytest.raises(ValueError, match="strictly increasing lex order"):
            self.hand_built(vectors)

    def test_wide_columns_take_the_running_or(self, monkeypatch):
        # a column with a value outside range(256) is walked, not read as
        # bytes; the byte columns next to it are read as bytes
        import weyl_order.posets as posets
        seen = []
        real = posets._at_most

        def spy(column, values):
            seen.append(type(column))
            return real(column, values)
        monkeypatch.setattr(posets, "_at_most", spy)
        poset = self.hand_built([(0, 300, -1), (0, 300, 2), (1, 3, 255),
                                 (1, 256, 0), (2, 256, 255), (3, 1000, -7)])
        self.assert_matches_pairwise(poset)
        assert seen == [bytes, tuple, tuple]

    @given(st.sets(st.tuples(st.integers(0, 3), st.integers(254, 258),
                             st.integers(-2, 2), st.integers(0, 255)),
                   min_size=1, max_size=24))
    @settings(max_examples=100, deadline=None)
    def test_mixed_columns_match_pairwise_route(self, vectors):
        self.assert_matches_pairwise(self.hand_built(sorted(vectors)))

    @pytest.mark.parametrize("coords, classes", [((300,), 151),
                                                 ((256, 1), 257)])
    def test_stat_values_past_a_byte_match_pairwise_route(self, coords,
                                                          classes):
        poset = build_poset(Weight(coords), 2)
        assert len(poset) == classes
        assert max(map(max, (cls.stat_vector for cls in poset.classes))) > 255
        self.assert_matches_pairwise(poset)
        assert poset.bottom_index == poset.closed_form_bottom_index
        assert poset.top_index == poset.closed_form_top_index

    def test_each_cover_is_classified_once(self, monkeypatch):
        # the one decision list serves covers_of, to_json and both writers
        import weyl_order.posets as posets
        calls = []
        real = posets._decide

        def counting(pair, frames):
            calls.append((pair.e1, pair.e2, *frames[0][:2]))
            return real(pair, frames)
        monkeypatch.setattr(posets, "_decide", counting)
        poset = build_poset(Weight((3, 2)), 2)
        for c in range(len(poset)):
            covers_of(poset, c)
        poset.to_json()
        poset.to_dot()
        poset.json_text()
        assert len(calls) == len(poset.hasse_edges) == len(set(calls)) > 0

    def test_one_row_is_decided_alone(self, monkeypatch):
        # on a fresh covers_k2 poset, covers_of decides its own row and no
        # other; the writers decide the rest, each cover once
        import weyl_order.posets as posets
        calls = []
        real = posets._decide

        def counting(pair, frames):
            calls.append(frames[0][0])
            return real(pair, frames)
        monkeypatch.setattr(posets, "_decide", counting)
        poset = build_poset(Weight((2,) * 6), 2)
        c = max(range(len(poset)), key=lambda a: len(poset.cover_rows[a]))
        assert len(poset.cover_rows[c]) > 1
        assert len(covers_of(poset, c)) == len(calls) == \
            len(poset.cover_rows[c])
        covers_of(poset, c)
        assert len(calls) == len(poset.cover_rows[c])
        poset.json_text()
        assert len(calls) == 1362


class TestExports:
    def test_exports_off_k2_build_no_cover_edges(self):
        # to_dot reads the Hasse edges off k = 2; to_json reads cover_edges,
        # which the classifier leaves all unclassified there
        poset = build_poset(Weight((2, 1, 1)), 3)
        dot = poset.to_dot()
        assert "cover_edges" not in poset.__dict__
        hasse = poset.to_json()["hasse"]
        assert hasse == [[e.low, e.high, e.kind.value] for e in poset.cover_edges]
        assert hasse == [[a, b, "unclassified"] for a, b in poset.hasse_edges]
        assert dot.count("[style=dotted]") == len(poset.hasse_edges) > 0

    def test_writers_off_k2_do_no_work_per_edge_kind(self, monkeypatch):
        hashed = []
        real = CoverKind.__hash__

        def counting(kind):
            hashed.append(kind)
            return real(kind)
        monkeypatch.setattr(CoverKind, "__hash__", counting)

        def kind_hashes(coords):
            poset = build_poset(Weight(coords), 3)
            hashed.clear()
            text, dot = poset.json_text(), poset.to_dot()
            edges = len(poset.hasse_edges)
            assert "cover_edges" not in poset.__dict__
            assert text.count('"unclassified"') == edges
            assert dot.count("[style=dotted]") == edges
            return len(hashed), edges
        (few_hashes, few), (many_hashes, many) = \
            kind_hashes((2, 1, 1)), kind_hashes((3, 3, 2))
        # the kind tables hash each kind a fixed number of times
        assert few < many and few_hashes == many_hashes

    def test_kind_lookups_run_no_python_code(self):
        # members are singletons that compare by identity, so a kind hashes
        # as an object does, and a table keyed by kind runs no Python frame
        # (Enum's own __hash__ is a Python function)
        assert CoverKind.__hash__ is object.__hash__
        kinds = list(CoverKind)
        table = {kind: kind.value for kind in kinds}
        events = []
        sys.setprofile(lambda frame, event, arg: events.append(event))
        try:
            values = list(map(table.__getitem__, kinds))
        finally:
            sys.setprofile(None)
        assert values == ["type_one", "type_two", "unclassified"]
        assert "call" not in events

    def test_to_json_shape(self):
        poset = build_poset(Weight((2, 1)), 2)
        payload = poset.to_json()
        assert payload["lambda"] == [2, 1]
        assert payload["k"] == 2
        assert payload["num_classes"] == 3
        assert payload["classes"][0]["rep"]["parts"][0]["omega"] == [2, 1]
        assert payload["hasse"] == [[0, 1, "type_two"], [1, 2, "type_two"]]
        json.dumps(payload)  # serializable as-is

    def test_to_dot(self):
        dot = build_poset(Weight((2, 0)), 2).to_dot()
        assert dot.startswith("digraph")
        assert "style=solid" in dot  # the chunk-transfer edge
        assert 'label="(1,0)/(1,0)"' in dot


def assert_json_text_matches_dumps(lam, k):
    # lengths and digests, not got == want: on a mismatch, pytest's
    # assertion rewriting would diff two multi-megabyte strings for minutes
    poset = build_poset(Weight(lam), k)
    want = json.dumps(poset.to_json(), sort_keys=True, indent=2) + "\n"
    got = poset.json_text()
    if (len(got), sha256(got.encode()).digest()) == \
            (len(want), sha256(want.encode()).digest()):
        return
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
              min(len(got), len(want)))
    window = slice(max(0, at - 40), at + 40)
    pytest.fail(f"json_text differs from json.dumps for {lam}, k = {k}: "
                f"lengths {len(got)} and {len(want)}, first difference at "
                f"offset {at}\n got: {got[window]!r}\nwant: {want[window]!r}")


class TestJsonText:
    """The poset JSON writer against json.dumps of to_json, the oracle."""

    def test_grid_of_rank_at_most_three(self):
        # lambda = 0 included; k = 1 gives one class and an empty hasse
        for rank in (1, 2, 3):
            for lam in itertools.product(range(4), repeat=rank):
                for k in range(1, 5):
                    assert_json_text_matches_dumps(lam, k)

    def test_empty_hasse(self):
        poset = build_poset(Weight((2, 1)), 1)
        assert poset.hasse_edges == ()
        assert '"hasse": [],' in poset.json_text()
        assert_json_text_matches_dumps((2, 1), 1)

    @pytest.mark.parametrize("lam,k", [((6, 6, 6), 3), ((5, 5), 6),
                                       ((2, 2, 2, 2, 2, 2), 2)])
    def test_benchmark_fibers(self, lam, k):
        assert_json_text_matches_dumps(lam, k)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_fibers(self, data):
        rank = data.draw(st.integers(1, 5))
        lam = data.draw(st.tuples(*[st.integers(0, 6 - rank)] * rank))
        k = data.draw(st.integers(1, 6 - rank))
        assert_json_text_matches_dumps(lam, k)

    @pytest.mark.parametrize("value", [
        [], [[]], [0, -3, 10**30], [["a", "b"], [], [1, [2, []]]],
    ])
    def test_layout_helpers_match_dumps(self, value):
        # every scalar a slot, filled with its JSON text
        skeleton, leaves = slotted(value)
        fills = tuple(map(json.dumps, leaves))
        assert _layout(skeleton, 0) % fills == json.dumps(value, indent=2)
        # nested in an object, the array's bracket sits two spaces in
        assert _layout({"a": _SLOT}, 0) % (_layout(skeleton, 2) % fills,) \
            == json.dumps({"a": value}, indent=2)


def slotted(value):
    """value with each scalar replaced by _SLOT, and the scalars in the
    order json.dumps(..., sort_keys=True) writes them."""
    if isinstance(value, dict):
        pairs = [(key, slotted(value[key])) for key in sorted(value)]
        return ({key: skel for key, (skel, _) in pairs},
                [x for _, (_, leaves) in pairs for x in leaves])
    if isinstance(value, list):
        pairs = list(map(slotted, value))
        return [skel for skel, _ in pairs], [x for _, ls in pairs for x in ls]
    return _SLOT, [value]


def nested(value, depth):
    """value nested depth objects deep, where its lines sit 2 * depth
    spaces in."""
    for _ in range(depth):
        value = {"w": value}
    return value


def dumps_around(depth):
    """json.dumps of a value nested depth objects deep, split around the
    value's own text."""
    marker = 10**40 + 7  # an integer no other text of the dump holds
    return json.dumps(nested(marker, depth), sort_keys=True,
                      indent=2).split(str(marker))


LAYOUT_VALUES = [
    {"b%": {"x": [1, {"y": "caf\u00e9"}], "empty": {}, "none": []},
     "a": [[], [[]], "50% \u2603", None, True, -2.5],
     "%s": "%(k)s %%", "\u00fcber": {"deep": [[{"z": 0}]]}},
    [{"k": [], "j": {}}, "\u4e2d", 10**30],
    {"only": {}},
    "%",
    [],
]


class TestLayout:
    """_layout's templates, filled, against json.dumps of the filled
    object, at the indents the writers use and past them."""

    @pytest.mark.parametrize("indent", [0, 2, 4, 10])
    @pytest.mark.parametrize("value", LAYOUT_VALUES)
    def test_filled_template_is_dumps_of_the_filled_object(self, value,
                                                           indent):
        skeleton, leaves = slotted(value)
        template = _layout(skeleton, indent)
        filled = template % tuple(map(json.dumps, leaves))
        head, tail = dumps_around(indent // 2)
        assert head + filled + tail == json.dumps(
            nested(value, indent // 2), sort_keys=True, indent=2)

    @pytest.mark.parametrize("indent", [0, 2, 4, 10])
    def test_literal_fields_and_nested_templates(self, indent):
        # fields that are not slots are written as json.dumps writes them,
        # and a one-slot array takes its elements joined by _separator, each
        # element another template laid out for its line, as a class entry
        # takes its parts
        value = {"rep": {"k": 3, "parts": [{"omega": [1, 0], "rank": 2}] * 2},
                 "size": 12, "stats": [4, 5]}
        part = _layout({"omega": [_SLOT] * 2, "rank": 2}, indent + 6)
        entry = _layout({"rep": {"k": 3, "parts": [_SLOT]}, "size": _SLOT,
                         "stats": [_SLOT]}, indent)
        filled = entry % (_separator(indent + 4).join([part % (1, 0)] * 2),
                          12, _separator(indent + 2).join(["4", "5"]))
        head, tail = dumps_around(indent // 2)
        assert head + filled + tail == json.dumps(
            nested(value, indent // 2), sort_keys=True, indent=2)

    def test_between_splits_around_the_slots_only(self):
        # a literal %s in a key is doubled, so it is no slot
        template = _layout({"%s": _SLOT, "b": [_SLOT, "50%"]}, 2)
        assert _between(template) == ['{\n    "%s": ', ',\n    "b": [\n      ',
                                      ',\n      "50%"\n    ]\n  }']
        assert _between(_layout({"a": 1}, 0)) == ['{\n  "a": 1\n}']
        assert _between("  n%s -> n%s [style=solid];\n") == \
            ["  n", " -> n", " [style=solid];\n"]


def dot_by_lines(poset):
    # the DOT file rebuilt from to_json, whose kinds come from the
    # classifier at every k, so the writers' k = 2 shortcut is checked too
    styles = {"type_one": "solid", "type_two": "dashed",
              "unclassified": "dotted"}
    lines = ["digraph tuple_poset {", "  rankdir=BT;"]
    lines += [f'  n{c} [label="{cls.rep}"];'
              for c, cls in enumerate(poset.classes)]
    lines += [f"  n{a} -> n{b} [style={styles[kind]}];"
              for a, b, kind in poset.to_json()["hasse"]]
    return "\n".join(lines + ["}"]) + "\n"


def assert_one_class_row_per_piece(poset):
    """No piece of either file holds two class entries, the edges of two
    low classes, or a class entry and an edge.  The patterns find the low
    class of each JSON hasse element (its bracket opens six spaces before
    the low index) and of each DOT edge line."""
    json_edge = re.compile(r"\[\n      (\d+),\n")
    dot_edge = re.compile(r"^  n(\d+) -> ", re.M)
    for pieces, edge, entry in ((poset.json_chunks(), json_edge, '"rep": '),
                                (poset.dot_chunks(), dot_edge, " [label=")):
        for piece in pieces:
            lows = set(edge.findall(piece))
            assert len(lows) + piece.count(entry) <= 1, piece[:200]


class TestCoverRows:
    """The per-class cover rows, the one cover walk, against the pairwise
    Hasse reduction, and the row-piece writers against the per-edge
    reference writers."""

    def test_rows_flatten_to_the_pairwise_hasse_edges(self):
        for rank in (1, 2, 3):
            for lam in itertools.product(range(3), repeat=rank):
                for k in (1, 2, 3, 4):
                    poset = build_poset(Weight(lam), k)
                    rows = poset.cover_rows
                    assert len(rows) == len(poset), (lam, k)
                    assert all(list(row) == sorted(set(row)) for row in rows)
                    flat = tuple((a, b) for a, row in enumerate(rows)
                                 for b in row)
                    assert flat == poset.hasse_edges == \
                        hasse_edges_pairwise(poset), (lam, k)

    @pytest.mark.parametrize("lam,k", [((6, 6, 6), 3), ((5, 5), 6),
                                       ((2, 2, 2, 2, 2, 2), 2)])
    def test_dot_matches_the_per_edge_writer_on_the_benchmark_fibers(self, lam,
                                                                     k):
        # TestJsonText checks the JSON of these fibers against json.dumps;
        # off k = 2 their cover rows hold up to 48 edges in one piece
        poset = build_poset(Weight(lam), k)
        want = dot_by_lines(poset)
        got = poset.to_dot()
        assert (len(got), sha256(got.encode()).digest()) == \
            (len(want), sha256(want.encode()).digest())


class TestChunks:
    """The streamed writers: small pieces that join to the oracle texts."""

    def test_grid_of_rank_at_most_three(self):
        # TestJsonText's grid, which checks json_text against json.dumps;
        # k = 1 gives one class and an empty hasse
        for rank in (1, 2, 3):
            for lam in itertools.product(range(4), repeat=rank):
                for k in range(1, 5):
                    poset = build_poset(Weight(lam), k)
                    json_pieces = list(poset.json_chunks())
                    dot_pieces = list(poset.dot_chunks())
                    assert all(json_pieces) and all(dot_pieces), (lam, k)
                    text, dot = "".join(json_pieces), "".join(dot_pieces)
                    assert text == poset.json_text(), (lam, k)
                    assert dot == poset.to_dot(), (lam, k)
                    assert dot == dot_by_lines(poset), (lam, k)

    def test_one_piece_per_class_and_edge(self):
        # off k = 2 the edges of one cover row are one piece; at k = 2,
        # where the kinds differ, each edge is one
        for lam, k in (((2, 1), 1), ((2, 1), 2), ((2, 1, 1), 3), ((3, 3), 3)):
            poset = build_poset(Weight(lam), k)
            m = len(poset)
            edges = (len(poset.hasse_edges) if k == 2
                     else sum(1 for row in poset.cover_rows if row))
            # the head, the classes and their closing bracket, the hasse
            # key, the edge pieces and their closing bracket (an empty
            # hasse is the one piece []), the tail
            assert len(list(poset.json_chunks())) == \
                1 + (m + 1) + 1 + (edges + 1 if edges else 1) + 1
            assert len(list(poset.dot_chunks())) == 1 + m + edges + 1
        assert max(map(len, build_poset(Weight((3, 3)), 3).cover_rows)) > 1
        empty = list(build_poset(Weight((2, 1)), 1).json_chunks())
        assert empty[-3:-1] == [',\n  "hasse": ', "[]"]

    def test_pieces_are_small_and_writing_streams(self, tmp_path):
        # (6,6,6) at k = 3: a 4.0 MB JSON file and a 1.0 MB DOT file; held
        # whole, the JSON alone peaks at about 16 MiB of tracemalloc
        import tracemalloc

        from weyl_order import cli
        poset = build_poset(Weight((6, 6, 6)), 3)
        poset.cover_rows, poset.labels  # built outside the measured write
        assert_one_class_row_per_piece(poset)
        tracemalloc.start()
        try:
            cli._write_text(tmp_path / "poset.json", poset.json_chunks())
            cli._write_text(tmp_path / "poset.dot", poset.dot_chunks())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        # digests, not texts: a failing == would diff megabytes
        for name, text in (("poset.json", poset.json_text()),
                           ("poset.dot", poset.to_dot())):
            assert sha256((tmp_path / name).read_bytes()).digest() == \
                sha256(text.encode()).digest(), name
