import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weyl_order import Weight, Permutation

from weight_actions import (act, compose, dominant_representative, identity,
                            inverse, is_identity, permute, sorting_permutation,
                            transposition, window)

weights = st.integers(1, 5).flatmap(
    lambda n: st.tuples(*([st.integers(-5, 5)] * n)).map(Weight))
dominant_weights = st.integers(1, 5).flatmap(
    lambda n: st.tuples(*([st.integers(0, 5)] * n)).map(Weight))


def perm_strategy(degree: int):
    return st.permutations(list(range(degree))).map(lambda im: Permutation(tuple(im)))


class TestWeightBasics:
    def test_eps_partial_sums(self):
        assert Weight((2, 1)).eps() == (3, 1)
        assert Weight((0, 0, 4)).eps() == (4, 4, 4)
        assert Weight((2, 1)).eps_padded() == (3, 1, 0)

    def test_window_sums_omega_coordinates(self):
        w = Weight((2, 1, 5))
        assert window(w, 1, 1) == 2
        assert window(w, 1, 2) == 3
        assert window(w, 2, 3) == 6
        assert window(w, 1, 3) == 8
        with pytest.raises(ValueError):
            window(w, 2, 1)
        with pytest.raises(ValueError):
            window(w, 0, 1)
        with pytest.raises(ValueError):
            window(w, 1, 4)

    def test_coordinates_must_be_integers(self):
        # a float is not truncated and a string is not parsed
        for bad in ((1.5, 2), (1.0, 2), ("1", 2)):
            with pytest.raises(TypeError):
                Weight(bad)

    def test_constructors(self):
        assert Weight.zero(3).omega == (0, 0, 0)
        assert Weight.fundamental(2, 3).omega == (0, 1, 0)
        with pytest.raises(ValueError):
            Weight.fundamental(4, 3)
        with pytest.raises(ValueError):
            Weight(())

    def test_checks_read_the_coerced_coordinates(self):
        # the rank check reads the tuple the coordinates were coerced to,
        # whatever iterable gave them
        for empty in ((), [], iter([]), (c for c in ())):
            with pytest.raises(ValueError, match="^weight needs rank >= 1$"):
                Weight(empty)
        assert Weight(iter([2, 0, 1])) == Weight((2, 0, 1))

    def test_arithmetic(self):
        a, b = Weight((2, 1)), Weight((0, 3))
        assert (a + b).omega == (2, 4)
        assert (a - b).omega == (2, -2)
        assert (-a).omega == (-2, -1)
        with pytest.raises(ValueError):
            a + Weight((1,))

    def test_flags(self):
        assert Weight((0, 2)).is_dominant
        assert not Weight((-1, 2)).is_dominant

    def test_cached_dominance_is_not_a_field(self):
        for omega in ((0, 2), (-1, 2)):
            read, fresh = Weight(omega), Weight(omega)
            read.is_dominant
            assert "is_dominant" in read.__dict__
            assert "is_dominant" not in fresh.__dict__
            assert read == fresh and hash(read) == hash(fresh)
            assert repr(read) == repr(fresh) == f"Weight(omega={omega})"
            assert read.to_json() == fresh.to_json()

    def test_caches_are_kept_outside_the_fields(self):
        # dominance, the one cache, is kept outside the fields, and the
        # padded epsilon tuple is computed on each call: equality, hash,
        # repr and pickling read omega alone
        read, fresh = Weight((2, 0, 1)), Weight((2, 0, 1))
        assert read.eps_padded() == (3, 1, 1, 0) and read.is_dominant
        assert read.__dict__ == {"omega": (2, 0, 1), "is_dominant": True}
        assert fresh.__dict__ == {"omega": (2, 0, 1)}
        assert Weight._fields == ("omega",)
        assert read == fresh and hash(read) == hash(fresh)
        assert repr(read) == repr(fresh) == "Weight(omega=(2, 0, 1))"
        assert pickle.dumps(read) == pickle.dumps(fresh)
        back = pickle.loads(pickle.dumps(read))
        assert back == read and back.__dict__ == {"omega": (2, 0, 1)}
        assert back.eps_padded() == read.eps_padded()
        assert back.is_dominant

    def test_json_round_trip(self):
        w = Weight((4, 0, 1))
        assert Weight.from_json(w.to_json()) == w
        with pytest.raises(ValueError):
            Weight.from_json({"rank": 2, "omega": [1, 2, 3]})

    def test_str(self):
        assert str(Weight((2, 1))) == "(2,1)"

    @given(weights)
    def test_eps_round_trip(self, w):
        assert Weight.from_eps(w.eps()) == w


class TestPermutation:
    def test_validation(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))

    def test_compose_order(self):
        # compose(p, q) applies q first
        s12 = transposition(1, 3)
        s23 = transposition(2, 3)
        both = compose(s12, s23)
        assert both(2) == both.images[2]
        # slot 2 -> s23 -> 1 -> s12 -> 0
        assert both(2) == 0

    def test_inverse(self):
        p = Permutation((2, 0, 1))
        assert is_identity(compose(p, inverse(p)))
        assert is_identity(compose(inverse(p), p))

    def test_permute_moves_slots(self):
        p = Permutation((2, 0, 1))  # slot i lands at images[i]
        assert permute(p, ("a", "b", "c")) == ("b", "c", "a")

    def test_cycle_notation(self):
        assert identity(4).cycle_notation() == "id"
        assert transposition(2, 4).cycle_notation() == "(2 3)"
        assert Permutation((1, 2, 0)).cycle_notation() == "(1 2 3)"

    def test_equality_hash_repr_and_pickling_read_the_images_alone(self):
        # a Permutation keeps nothing but its images: the cycle notation is
        # walked on each call, as for Weight's padded epsilon tuple
        walked, fresh = Permutation((1, 2, 0, 4, 3)), Permutation((1, 2, 0, 4, 3))
        assert walked.cycle_notation() == "(1 2 3)(4 5)"
        assert walked.__dict__ == fresh.__dict__ == {"images": (1, 2, 0, 4, 3)}
        assert Permutation._fields == ("images",)
        assert walked == fresh and hash(walked) == hash(fresh)
        assert repr(walked) == repr(fresh) == "Permutation(images=(1, 2, 0, 4, 3))"
        assert pickle.dumps(walked) == pickle.dumps(fresh)
        back = pickle.loads(pickle.dumps(walked))
        assert back == walked and back.__dict__ == {"images": (1, 2, 0, 4, 3)}
        assert back.cycle_notation() == walked.cycle_notation()

    def test_transposition_bounds(self):
        with pytest.raises(ValueError):
            transposition(3, 3)


class TestAction:
    def test_plain_action_frozen(self):
        s12 = transposition(1, 2)
        assert act(s12, Weight.fundamental(1, 2)) == Weight((-1, 1))

    def test_padded_action_frozen(self):
        s23 = transposition(2, 3)
        assert act(s23, Weight((2, -1))) == Weight((1, 1))

    def test_degree_mismatch(self):
        with pytest.raises(ValueError):
            act(identity(4), Weight((1, 0)))

    @given(weights, st.data())
    def test_action_is_a_group_action(self, w, data):
        for degree in (w.rank, w.rank + 1):
            p = data.draw(perm_strategy(degree))
            q = data.draw(perm_strategy(degree))
            assert act(compose(p, q), w) == act(p, act(q, w))
            assert act(identity(degree), w) == w

    @given(weights, st.data())
    def test_padded_action_preserves_eps_multiset(self, w, data):
        p = data.draw(perm_strategy(w.rank + 1))
        moved = act(p, w)
        # the multiset is preserved only up to a uniform shift
        a, b = sorted(w.eps_padded()), sorted(moved.eps_padded())
        shift = b[0] - a[0]
        assert [x + shift for x in a] == b


class TestDominantRepresentative:
    def test_frozen_examples(self):
        rep, sigma = dominant_representative(Weight((2, -1)))
        assert rep == Weight((1, 1))
        assert sigma.cycle_notation() == "(2 3)"
        rep, sigma = dominant_representative(Weight((-1,)))
        assert rep == Weight((1,))
        assert sigma.cycle_notation() == "(1 2)"

    @given(dominant_weights)
    def test_dominant_weights_are_fixed(self, w):
        rep, sigma = dominant_representative(w)
        assert rep == w
        assert is_identity(sigma)

    @given(weights)
    def test_representative_properties(self, w):
        rep, sigma = dominant_representative(w)
        assert rep.is_dominant
        assert act(sigma, w) == rep
        again, _ = dominant_representative(rep)
        assert again == rep

    def test_non_dominant_result_raises(self, monkeypatch):
        import weight_actions
        monkeypatch.setattr(weight_actions, "act", lambda sigma, w: w)
        with pytest.raises(ArithmeticError):
            dominant_representative(Weight((2, -1)))


def test_sorting_permutation_is_stable():
    p = sorting_permutation((1, 1, 0))
    assert is_identity(p)
    p = sorting_permutation((0, 1, 1))
    assert permute(p, (0, 1, 1)) == (1, 1, 0)
    assert p.images == (2, 0, 1)


@given(st.lists(st.integers(-4, 4), min_size=1, max_size=6))
def test_sorting_permutation_sorts_descending(vals):
    vals = tuple(vals)
    out = permute(sorting_permutation(vals), vals)
    assert list(out) == sorted(vals, reverse=True)
