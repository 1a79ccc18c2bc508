import itertools
import json
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyl_order import (
    CoverKind,
    GuardExceeded,
    OrderVerdict,
    Weight,
    WeightTuple,
    build_poset,
    canonical_form,
    classify_cover,
    compare,
    count_tuples,
    covers_of,
    enumerate_tuples,
    maximal_element,
    minimal_element,
    poset_size_k2,
)
from weyl_order.posets import (_part_multisets, _sorting_coset, _tuple_sort_key,
                               compositions, json_array, json_object)

from cover_oracle import classify_cover_by_search, sorting_coset_by_stabilizer
from fiber_oracle import (classes_by_enumeration, part_multisets_by_scan,
                          stat_vector_by_windows)
from move_oracle import covers_by_moves
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


class TestExtremes:
    def test_minimal_element(self):
        assert minimal_element(Weight((2, 1)), 3) == \
            T((2, 1), (0, 0), (0, 0))

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

    def test_classes_are_compare_equivalent(self):
        poset = build_poset(Weight((2, 2)), 3)
        for c, cls in enumerate(poset.classes):
            for m in cls.members:
                assert compare(m, cls.rep) is OrderVerdict.EQUIV
                assert poset.class_of(m) == c
        for a, b in itertools.combinations(range(len(poset.classes)), 2):
            assert compare(poset.classes[a].rep, poset.classes[b].rep) \
                is not OrderVerdict.EQUIV
        # the representative is the largest canonical form of a member
        for coords in [(2, 2), (2, 1, 1)]:
            for k in (2, 3, 4):
                for cls in build_poset(Weight(coords), k).classes:
                    assert cls.rep == max((canonical_form(m) for m in cls.members),
                                          key=_tuple_sort_key)

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
        for cls, (_, rep, members) in zip(classes, want):
            assert cls.rep == rep
            assert cls.size == len(members)
            assert cls.members == members

    def test_stat_vectors_match_window_reference(self):
        # lambda = 0 and k = 1 included; build_poset and
        # WeightTuple.stat_vector share their stat helpers, the reference
        # goes window by window through Weight.window
        for rank in (1, 2, 3):
            for coords in itertools.product(range(4), repeat=rank):
                for k in (1, 2, 3, 4):
                    for cls in build_poset(Weight(coords), k).classes:
                        for m in cls.members:
                            want = stat_vector_by_windows(m)
                            assert cls.stat_vector == want, (coords, k)
                            assert m.stat_vector == want, (coords, k)

    def test_build_orders_no_parts(self, monkeypatch):
        # the walk never calls the ordered-tuple route, and the one
        # WeightTuple it builds per class is the representative
        import weyl_order.posets as posets

        def refuse(*args, **kwargs):
            raise AssertionError("build_poset enumerated ordered tuples")
        monkeypatch.setattr(posets, "enumerate_tuples", refuse)
        monkeypatch.setattr(WeightTuple, "stat_vector",
                            property(lambda self: refuse()))
        built = []
        check = WeightTuple.__post_init__

        def counting(self):
            built.append(self)
            check(self)
        monkeypatch.setattr(WeightTuple, "__post_init__", counting)
        for coords, k in [((2, 1), 2), ((5, 5), 6), ((2, 2, 2), 3), ((0, 0), 1)]:
            built.clear()
            poset = build_poset(Weight(coords), k)
            assert [id(x) for x in built] == [id(c.rep) for c in poset.classes]


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
                parts = {tuple(p.omega for p in m.parts) for m in cls.members}
                a = next(iter(parts))
                assert parts == {a, (a[1], a[0])}
                assert cls.size in (1, 2)

    def test_k3_class_can_join_two_orbits(self):
        # (3,3) holds the smallest example: one class, twelve members,
        # two distinct part multisets (coordinate reverses of each other)
        poset = build_poset(Weight((3, 3)), 3)
        cls = poset.classes[poset.class_of(T((1, 2), (2, 0), (0, 1)))]
        assert cls.size == 12
        multisets = {frozenset(p.omega for p in m.parts) for m in cls.members}
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
        assert w.sigma.is_identity and w.mix == (1, 2)
        kind, w = classify_cover(mid, high)
        assert kind is CoverKind.TYPE_II
        assert w.sigma.cycle_notation() == "(2 3)" and w.mix == (1, 2)

    def test_chunk_transfer_cover(self):
        kind, w = classify_cover(T((2, 0), (0, 0)), T((1, 0), (1, 0)))
        assert kind is CoverKind.TYPE_I
        assert w.sigma.is_identity
        assert w.index == 1 and w.reading == "inverse"
        assert "i=1" in w.describe()

    def test_rank_mismatch_raises(self):
        with pytest.raises(ValueError, match="rank mismatch"):
            classify_cover(T((1, 0), (0, 0)), T((1,), (0,)))

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
        from weyl_order import act
        for coords in [(2, 0), (3, 1), (2, 2)]:
            poset = build_poset(Weight(coords), 2)
            for c in range(len(poset.classes)):
                for e in covers_of(poset, c):
                    if e.kind is not CoverKind.TYPE_I:
                        continue
                    w = e.witness
                    lam1 = canonical_form(poset.classes[e.low].rep).parts[0]
                    rho_ = w.sigma.inverse() if w.reading == "inverse" else w.sigma
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

    def test_one_sorter_drawn_per_rank_six_cover(self, monkeypatch):
        import weyl_order.posets as posets
        drawn = []
        real = posets._sorting_coset

        def counting(values):
            for images in real(values):
                drawn.append(images)
                yield images
        monkeypatch.setattr(posets, "_sorting_coset", counting)
        poset = build_poset(Weight((2,) * 6), 2)
        assert len(poset.cover_edges) == len(drawn) == 1362

    def test_lazy_sorters_match_stabilizer_coset(self):
        # every vector of length <= 5 over {0, 1, 2}, then the all-tie
        # vector of length 7 (7! sorters, the rank-6 zero difference)
        vectors = [v for n in range(1, 6)
                   for v in itertools.product(range(3), repeat=n)]
        for values in vectors + [(0,) * 7]:
            assert list(_sorting_coset(values)) == \
                [p.images for p in sorting_coset_by_stabilizer(values)], values

    def test_k3_falls_through(self):
        poset = build_poset(Weight((1, 1)), 3)
        kinds = {e.kind for c in range(len(poset.classes))
                 for e in covers_of(poset, c)}
        assert kinds == {CoverKind.UNCLASSIFIED}


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
        below, above = poset._strict_masks
        assert (below, above) == strict_masks_pairwise(poset)
        assert poset.hasse_edges == hasse_edges_pairwise(poset)
        # index order is a linear extension, which the cover walk relies on
        for c, mask in enumerate(below):
            assert mask < 1 << c
        for c, mask in enumerate(above):
            assert mask & ((1 << (c + 1)) - 1) == 0

    def test_transitive_ok_checks_the_covers_against_the_masks(self):
        for coords, k in [((2, 1), 2), ((2, 2), 3), ((1, 1, 1), 2)]:
            poset = build_poset(Weight(coords), k)
            edges = poset.hasse_edges
            assert poset.transitive_ok()
            for drop in range(len(edges)):
                poset.__dict__["hasse_edges"] = edges[:drop] + edges[drop + 1:]
                assert not poset.transitive_ok(), (coords, k, edges[drop])
            # an edge to a class below a, or incomparable with it, appended
            # out of order
            _, above = poset._strict_masks
            m = len(poset)
            strays = [(a, b) for a in range(m) for b in range(m)
                      if a != b and not above[a] >> b & 1]
            assert strays
            for edge in strays:
                poset.__dict__["hasse_edges"] = edges + (edge,)
                assert not poset.transitive_ok(), (coords, k, edge)

    def test_each_cover_is_classified_once(self, monkeypatch):
        import weyl_order.posets as posets
        calls = []
        real = posets.classify_cover

        def counting(low, high):
            calls.append((low, high))
            return real(low, high)
        monkeypatch.setattr(posets, "classify_cover", counting)
        poset = build_poset(Weight((3, 2)), 2)
        for c in range(len(poset)):
            covers_of(poset, c)
        poset.to_json()
        poset.to_dot()
        assert len(calls) == len(poset.hasse_edges) == len(set(calls)) > 0


class TestExports:
    def test_exports_off_k2_build_no_cover_edges(self):
        poset = build_poset(Weight((2, 1, 1)), 3)
        hasse = poset.to_json()["hasse"]
        dot = poset.to_dot()
        assert "cover_edges" not in poset.__dict__
        assert hasse == [[e.low, e.high, e.kind.value] for e in poset.cover_edges]
        assert dot.count("[style=dotted]") == len(poset.hasse_edges) > 0

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
    poset = build_poset(Weight(lam), k)
    want = json.dumps(poset.to_json(), sort_keys=True, indent=2) + "\n"
    assert poset.json_text() == want, (lam, k)


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
        def text(v, indent):
            if isinstance(v, list):
                return json_array((text(x, indent + 2) for x in v), indent)
            return json.dumps(v)
        payload = {"a": value, "b": {"c": value}, "d": None}
        fields = [("a", text(value, 2)),
                  ("b", json_object([("c", text(value, 4))], 2)),
                  ("d", "null")]
        assert json_object(fields, 0) == \
            json.dumps(payload, sort_keys=True, indent=2)
