import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weyl_order import (
    OrderVerdict,
    Permutation,
    Weight,
    WeightTuple,
    canonical_form,
    compare,
    compare_prec,
    coroot_stat_vector,
    enumerate_tuples,
    iota,
    pairing,
    pi_project,
    root_system,
    sk_permute,
    stat_labels,
    windows,
)
from weyl_order.tuples import r_stat_by_subsets

from stat_reader import r_stat


def T(*rows):
    return WeightTuple(tuple(Weight(r) for r in rows))


# the running rank-2 example with part sum (2,1)
X = T((2, 1), (0, 0))
Y = T((2, 0), (0, 1))
Z = T((1, 1), (1, 0))


def oracle_r_stat(parts, i, j, ell):
    """Independent evaluation straight from raw coordinate lists.

    Window totals are rebuilt by slicing, the minimum is taken over
    explicit index subsets; shares no code with the library path.
    """
    totals = [sum(p[i - 1:j]) for p in parts]
    best = None
    for pick in itertools.combinations(range(len(parts)), ell):
        s = sum(totals[q] for q in pick)
        if best is None or s < best:
            best = s
    return best


small_tuples = st.integers(1, 4).flatmap(
    lambda n: st.integers(1, 6).flatmap(
        lambda k: st.lists(
            st.tuples(*([st.integers(0, 4)] * n)).map(Weight),
            min_size=k, max_size=k).map(lambda ps: WeightTuple(tuple(ps)))))


class TestConstruction:
    def test_basic_attributes(self):
        assert X.k == 2 and X.rank == 2
        assert X.lam == Weight((2, 1))
        assert str(X) == "(2,1)/(0,0)"

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightTuple(())
        with pytest.raises(TypeError):
            WeightTuple(((1, 0),))
        with pytest.raises(ValueError):
            T((1, 0), (1,))
        with pytest.raises(ValueError):
            T((1, -1), (0, 1))

    def test_json_round_trip(self):
        data = X.to_json()
        assert data["k"] == 2
        assert data["parts"][0] == {"rank": 2, "omega": [2, 1]}
        assert WeightTuple.from_json(data) == X
        data["k"] = 3
        with pytest.raises(ValueError):
            WeightTuple.from_json(data)


class TestStats:
    def test_windows_enumeration(self):
        assert windows(2) == [(1, 1), (1, 2), (2, 2)]
        assert len(windows(4)) == 10

    def test_window_values_unsorted(self):
        assert Y.window_values(1, 1) == (2, 0)
        assert Y.window_values(1, 2) == (2, 1)

    def test_r_stat_frozen(self):
        assert r_stat(X, 1, 1, 1) == 0 and r_stat(X, 1, 1, 2) == 2
        assert r_stat(X, 1, 2, 1) == 0 and r_stat(X, 1, 2, 2) == 3
        assert r_stat(Y, 1, 1, 1) == 0 and r_stat(Y, 1, 2, 1) == 1
        assert r_stat(Z, 1, 1, 1) == 1

    def test_stat_vectors_frozen(self):
        assert X.stat_vector == (0, 2, 0, 3, 0, 1)
        assert Y.stat_vector == (0, 2, 1, 3, 0, 1)
        assert Z.stat_vector == (1, 2, 1, 3, 0, 1)

    def test_stat_labels_align(self):
        labels = stat_labels(2, 2)
        assert labels == [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2),
                          (2, 2, 1), (2, 2, 2)]
        for (i, j, ell), v in zip(labels, Y.stat_vector):
            assert r_stat(Y, i, j, ell) == v

    def test_index_validation(self):
        with pytest.raises(ValueError):
            X.window_values(2, 1)

    @given(small_tuples)
    @settings(max_examples=150)
    def test_fast_path_matches_subset_oracle(self, t):
        raw = [list(p.omega) for p in t.parts]
        for i, j in windows(t.rank):
            for ell in range(1, t.k + 1):
                want = oracle_r_stat(raw, i, j, ell)
                assert r_stat(t, i, j, ell) == want
                assert r_stat_by_subsets(t, i, j, ell) == want

    @given(small_tuples)
    def test_r_stat_monotone_in_ell(self, t):
        for i, j in windows(t.rank):
            prev = 0
            for ell in range(1, t.k + 1):
                cur = r_stat(t, i, j, ell)
                assert 0 <= prev <= cur
                prev = cur

    def test_full_selection_constant_on_fiber(self):
        lam = Weight((2, 1))
        tuples = list(enumerate_tuples(lam, 3))
        for i, j in windows(2):
            full = {r_stat(t, i, j, 3) for t in tuples}
            assert full == {lam.window(i, j)}


class TestCompare:
    def test_chain(self):
        assert compare(X, Y) is OrderVerdict.LESS
        assert compare(Y, Z) is OrderVerdict.LESS
        assert compare(X, Z) is OrderVerdict.LESS
        assert compare(Z, X) is OrderVerdict.GREATER
        assert compare(X, X) is OrderVerdict.EQUIV

    def test_swap_is_equivalent(self):
        assert compare(X, T((0, 0), (2, 1))) is OrderVerdict.EQUIV

    def test_flip(self):
        for v in OrderVerdict:
            assert v.flip().flip() is v
        assert OrderVerdict.LESS.flip() is OrderVerdict.GREATER
        assert OrderVerdict.INCOMPARABLE.flip() is OrderVerdict.INCOMPARABLE

    def test_incomparable_pair(self):
        a = T((1, 2), (1, 0))
        b = T((2, 1), (0, 1))
        # window (1,1) prefers a's split, window (2,2) prefers b's
        assert r_stat(a, 1, 1, 1) > r_stat(b, 1, 1, 1)
        assert r_stat(a, 2, 2, 1) < r_stat(b, 2, 2, 1)
        assert compare(a, b) is OrderVerdict.INCOMPARABLE

    def test_mismatch_errors(self):
        with pytest.raises(ValueError):
            compare(X, T((2, 1), (0, 0), (0, 0)))
        with pytest.raises(ValueError):
            compare(X, T((2,), (0,)))
        with pytest.raises(ValueError):
            compare(X, T((1, 1), (0, 0)))

    @given(small_tuples, st.data())
    def test_part_order_never_matters(self, t, data):
        images = data.draw(st.permutations(list(range(t.k))))
        shuffled = sk_permute(t, Permutation(tuple(images)))
        assert shuffled.stat_vector == t.stat_vector
        assert compare(t, shuffled) is OrderVerdict.EQUIV

    def test_sk_permute_degree_check(self):
        with pytest.raises(ValueError):
            sk_permute(X, Permutation.identity(3))


class TestCanonicalForm:
    def test_frozen(self):
        assert canonical_form(T((0, 1), (2, 0))) == Y
        assert canonical_form(Y) == Y

    def test_zeros_sort_last(self):
        t = T((0, 0), (2, 1), (0, 0))
        assert canonical_form(t).parts[0] == Weight((2, 1))
        assert canonical_form(t).parts[1] == Weight((0, 0))

    def test_idempotent_and_equivalent(self):
        for t in enumerate_tuples(Weight((2, 2)), 3):
            c = canonical_form(t)
            assert canonical_form(c) == c
            assert compare(t, c) is OrderVerdict.EQUIV


class TestProjection:
    def test_frozen(self):
        p = pi_project(Y, 1, 2)
        assert p.parts == (Weight((2,)), Weight((1,)))
        assert pi_project(Z, 2, 2).parts == (Weight((1,)), Weight((0,)))

    def test_transport_of_stats(self):
        for t in (X, Y, Z):
            for i, j in windows(t.rank):
                proj = pi_project(t, i, j)
                for ell in range(1, t.k + 1):
                    assert r_stat(proj, 1, 1, ell) == r_stat(t, i, j, ell)

    def test_projection_equivalence(self):
        # comparing in every window at once is the same as the full order
        tuples = list(enumerate_tuples(Weight((2, 1)), 2))
        for a, b in itertools.combinations(tuples, 2):
            full = compare(a, b) in (OrderVerdict.LESS, OrderVerdict.EQUIV)
            each = all(
                compare(pi_project(a, i, j), pi_project(b, i, j))
                in (OrderVerdict.LESS, OrderVerdict.EQUIV)
                for i, j in windows(2))
            assert full == each


class TestCorootComparison:
    def test_c2_separates_differently(self):
        C2 = root_system("C2")
        assert compare_prec(X, Y, C2) is OrderVerdict.LESS
        assert compare_prec(X, Z, C2) is OrderVerdict.LESS
        assert compare_prec(Y, Z, C2) is OrderVerdict.INCOMPARABLE
        # the window order resolves the pair the coroot order cannot
        assert compare(Y, Z) is OrderVerdict.LESS

    def test_type_a_ambient_agrees_exactly(self):
        A2 = root_system("A2")
        for lam in (Weight((2, 1)), Weight((2, 2))):
            tuples = list(enumerate_tuples(lam, 2))
            for a, b in itertools.product(tuples, repeat=2):
                assert compare_prec(a, b, A2) is compare(a, b)

    def test_coroot_verdict_bounds_window_verdict(self):
        # coroot stats include the window stats, so LESS there forces
        # LESS-or-EQUIV here, and EQUIV forces EQUIV
        for name in ("C2", "B3", "D4"):
            rs = root_system(name)
            tuples = list(enumerate_tuples(Weight((2, 1)), 2))
            for a, b in itertools.combinations(tuples, 2):
                v = compare_prec(a, b, rs)
                if v is OrderVerdict.LESS:
                    assert compare(a, b) in (OrderVerdict.LESS, OrderVerdict.EQUIV)
                elif v is OrderVerdict.EQUIV:
                    assert compare(a, b) is OrderVerdict.EQUIV

    def test_interval_coroots_reproduce_windows(self):
        C3 = root_system("C3")
        w = Weight((2, 0, 3))
        for i, j in windows(3):
            coeffs = tuple(1 if i <= t + 1 <= j else 0 for t in range(3))
            h = C3.coroot_by_coeffs(coeffs)
            assert h is not None
            assert pairing(iota(w, C3), h) == w.window(i, j)

    @staticmethod
    def window_columns_of_type_a(n):
        """The window index of each coroot of A_n, in coroot order: every
        coroot is an interval indicator, and the map onto windows is a
        bijection."""
        spans = windows(n)
        columns = []
        for h in root_system(f"A{n}").coroots:
            ones = [t + 1 for t, c in enumerate(h.coeffs) if c]
            assert set(h.coeffs) <= {0, 1}
            assert ones == list(range(ones[0], ones[-1] + 1))
            columns.append(spans.index((ones[0], ones[-1])))
        assert sorted(columns) == list(range(len(spans)))
        return columns

    def assert_coroot_columns_are_windows(self, x):
        rs = root_system(f"A{x.rank}")
        sv, k = x.stat_vector, x.k
        want = tuple(v for w in self.window_columns_of_type_a(x.rank)
                     for v in sv[w * k:(w + 1) * k])
        assert coroot_stat_vector(x, rs) == want

    def test_type_a_coroot_columns_permute_windows_on_example(self):
        for x in enumerate_tuples(Weight((2, 1)), 2):
            self.assert_coroot_columns_are_windows(x)

    @given(small_tuples)
    @settings(max_examples=150, deadline=None)
    def test_type_a_coroot_columns_permute_windows(self, x):
        self.assert_coroot_columns_are_windows(x)

    def test_coroot_stat_vector_length(self):
        C2 = root_system("C2")
        assert len(coroot_stat_vector(X, C2)) == len(C2.coroots) * X.k

    def test_rank_embedding_check(self):
        with pytest.raises(ValueError):
            compare_prec(X, Y, root_system("B2"))
