import itertools
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weyl_order.dimensions as dimensions
import weyl_order.roots as roots
from weyl_order import (
    OrderVerdict,
    RebalanceVerdict,
    RootSystem,
    Weight,
    WeightTuple,
    base_rank,
    bracket,
    build_poset,
    compare,
    four_factor_rebalance,
    grand_product_identity,
    group_coroots,
    iota,
    pair_ledger,
    rebalance_gain,
    root_system,
    tensor_dim,
    verify_coroot_inequalities_k2,
    verify_max_dim,
    verify_monotone_k2,
    weyl_dim,
)

import ledger_oracle
from freudenthal_oracle import freudenthal_dim
from order_oracle import strict_pairs


def T(*rows):
    return WeightTuple(tuple(Weight(r) for r in rows))


X = T((2, 1), (0, 0))
Y = T((2, 0), (0, 1))
Z = T((1, 1), (1, 0))


class TestWeylDim:
    @pytest.mark.parametrize("system,coords,expected", [
        ("A1", (0,), 1),
        ("A1", (3,), 4),
        ("A2", (1, 0), 3),
        ("A2", (1, 1), 8),
        ("C2", (2, 1), 35),
        ("C2", (0, 2), 14),
        ("C2", (1, 1), 16),
        ("B3", (0, 0, 1), 8),
        ("B3", (1, 0, 0), 7),
        ("D4", (1, 0, 0, 0), 8),
    ])
    def test_frozen(self, system, coords, expected):
        rs = root_system(system)
        from weyl_order.roots import EmbeddedWeight
        assert weyl_dim(EmbeddedWeight(rs, coords)) == expected

    def test_a1_is_linear(self):
        rs = root_system("A1")
        for m in range(20):
            assert weyl_dim(iota(Weight((m,)), rs)) == m + 1

    def test_rejects_non_dominant(self):
        from weyl_order.roots import EmbeddedWeight
        with pytest.raises(ValueError):
            weyl_dim(EmbeddedWeight(root_system("A2"), (1, -1)))

    def test_inexact_division_raises(self):
        # a system holding only h1+h2 gives (1,0) the quotient 3 / 2; that
        # is an error, not an assert that python -O would strip
        from weyl_order.roots import Coroot, EmbeddedWeight
        rs = RootSystem("A", 2, (Coroot((1, 1)),))
        with pytest.raises(ArithmeticError):
            weyl_dim(EmbeddedWeight(rs, (1, 0)))

    def test_embedding_rank_mismatch(self):
        with pytest.raises(ValueError):
            iota(Weight((1, 0, 0)), root_system("A2"))


class TestTensorDim:
    def test_running_chain(self):
        rs = root_system("C2")
        assert tensor_dim(rs, X) == 35
        assert tensor_dim(rs, Y) == 50
        assert tensor_dim(rs, Z) == 64

    def test_zero_padding_is_neutral(self):
        rs = root_system("C2")
        lam = Weight((2, 1))
        assert tensor_dim(rs, T((2, 1), (0, 0), (0, 0))) == \
            weyl_dim(iota(lam, rs))

    def test_square(self):
        assert tensor_dim(root_system("C2"), T((0, 1), (0, 1))) == 25

    @pytest.mark.parametrize("family,rank", [("A", 2), ("B", 3), ("C", 2),
                                             ("D", 4), ("C", 3), ("B", 2)])
    def test_table_matches_uncached_weyl_dim(self, family, rank):
        # a fresh system starts with an empty part table; the second pass
        # reads every part from it
        shared = root_system(family, rank)
        rs = RootSystem(shared.family, shared.rank, shared.coroots)
        assert rs.part_dims == {}
        base = base_rank(rs)
        for coords in [(2,) * base, tuple(range(base, 0, -1)),
                       (1,) + (0,) * (base - 1)]:
            for k in (2, 3):
                poset = build_poset(Weight(coords), k)
                for _ in range(2):
                    for cls in poset.classes:
                        want = 1
                        for p in cls.rep.parts:
                            want *= weyl_dim(iota(p, rs))
                        assert tensor_dim(rs, cls.rep) == want
        assert rs.part_dims
        for omega, d in rs.part_dims.items():
            assert d == weyl_dim(iota(Weight(omega), rs))

    def test_table_keeps_the_rank_check(self):
        rs = root_system("A2")
        tensor_dim(rs, T((1, 0), (0, 1)))
        with pytest.raises(ValueError):
            tensor_dim(rs, T((1,), (0,)))


class TestBracket:
    def test_frozen(self):
        rs = root_system("C2")
        h1 = rs.coroot_by_coeffs((1, 0))
        h12 = rs.coroot_by_coeffs((1, 2))
        assert bracket(iota(Weight((2, 1)), rs), h1) == 3
        assert bracket(iota(Weight((0, 0)), rs), h12) == 3  # pure shift term
        assert bracket(iota(Weight((2, 1)), rs), h12) == 7

    def test_positivity_on_dominant(self):
        rs = root_system("B3")
        w = iota(Weight((1, 2)), rs)
        for h in rs.coroots:
            assert bracket(w, h) >= 1


class TestGrouping:
    def test_c2(self):
        solos, grouped = group_coroots(root_system("C2"))
        assert {str(h) for h in solos} == {"h2", "h1+h2"}
        assert [(str(a), str(b)) for a, b in grouped] == [("h1", "h1+2h2")]

    def test_b3(self):
        solos, grouped = group_coroots(root_system("B3"))
        assert [(a.coeffs, b.coeffs) for a, b in grouped] == \
            [((1, 0, 0), (1, 2, 1))]
        solo_coeffs = {h.coeffs for h in solos}
        assert len(solos) == 7
        assert (2, 2, 1) in solo_coeffs and (0, 2, 1) in solo_coeffs

    def test_partner_is_the_interval_below_the_doubled_block(self):
        for name in ("C3", "B4", "D5"):
            solos, grouped = group_coroots(root_system(name))
            for short, doubled in grouped:
                assert short.height == 1 and doubled.height == 2
                assert doubled.window_partner_coeffs() == short.coeffs
                i, j = doubled.window
                ones = [t + 1 for t, c in enumerate(short.coeffs) if c]
                assert ones == list(range(i, j))

    def test_partition_accounts_for_everything(self):
        for name in ("A3", "C2", "B3", "D4"):
            rs = root_system(name)
            solos, grouped = group_coroots(rs)
            seen = [h.coeffs for h in solos]
            for a, b in grouped:
                seen += [a.coeffs, b.coeffs]
            assert sorted(seen) == sorted(h.coeffs for h in rs.coroots)


class TestPairLedger:
    def test_x_to_y(self):
        rows = pair_ledger(root_system("C2"), X, Y)
        by_label = {r.label: r for r in rows}
        r = by_label["h2"]
        assert (r.low, r.high, r.guaranteed, r.in_product) == (2, 2, True, True)
        r = by_label["h1"]
        assert (r.low, r.high) == (3, 3) and r.guaranteed and not r.in_product
        r = by_label["h1+h2"]
        assert (r.low, r.high) == (10, 12) and r.guaranteed and r.in_product
        r = by_label["h1+2h2"]
        assert (r.low, r.high) == (21, 25)
        assert not r.guaranteed and not r.in_product
        r = by_label["h1 & h1+2h2"]
        assert (r.low, r.high) == (63, 75) and r.guaranteed and r.in_product
        assert all(r.ok for r in rows)

    def test_y_to_z_solo_row_regresses(self):
        rows = pair_ledger(root_system("C2"), Y, Z)
        by_label = {r.label: r for r in rows}
        solo = by_label["h1+2h2"]
        assert (solo.low, solo.high) == (25, 24)
        assert solo.ok and not solo.guaranteed
        paired = by_label["h1 & h1+2h2"]
        assert (paired.low, paired.high) == (75, 96)
        assert paired.guaranteed and paired.in_product

    def test_rejects_wrong_k(self):
        with pytest.raises(ValueError):
            pair_ledger(root_system("C2"), T((2, 1), (0, 0), (0, 0)),
                        T((2, 0), (0, 1), (0, 0)))

    def test_guaranteed_rows_never_regress(self):
        rs = root_system("C2")
        for coords in [(2, 1), (2, 2), (3, 0)]:
            poset = build_poset(Weight(coords), 2)
            m = len(poset.classes)
            for a in range(m):
                for b in range(m):
                    if poset.verdict(a, b) is not OrderVerdict.LESS:
                        continue
                    for r in pair_ledger(rs, poset.classes[a].rep,
                                         poset.classes[b].rep):
                        if r.guaranteed:
                            assert r.low <= r.high, (coords, a, b, r.label)
                        assert r.ok

    def test_row_dict(self):
        # one row per ledger_plan entry, coroot rows first, with its flags
        rs = root_system("C2")
        rows = pair_ledger(rs, X, Y)
        coroot_rows, grouped_rows = rs.ledger_plan
        assert [(r.label, r.guaranteed, r.in_product) for r in rows] == \
            list(coroot_rows) + [(label, True, True)
                                 for label, _, _ in grouped_rows]


def fresh_system(name):
    """A RootSystem equal to root_system(name) but with empty tables."""
    shared = root_system(name)
    return RootSystem(shared.family, shared.rank, shared.coroots)


RANK_TWO_SYSTEMS = ("A2", "C2", "B3", "D4")


def small_k2_posets():
    """Every k = 2 fiber with lambda of rank 2 and coords <= 3."""
    return [build_poset(Weight(c), 2)
            for c in itertools.product(range(4), repeat=2)]


class TestLedgerAgainstOracle:
    @pytest.mark.parametrize("name", RANK_TWO_SYSTEMS)
    def test_every_cover_of_the_small_fibers(self, name):
        rs = root_system(name)
        edges = 0
        for poset in small_k2_posets():
            for a, b in poset.hasse_edges:
                low, high = poset.classes[a].rep, poset.classes[b].rep
                assert pair_ledger(rs, low, high) == \
                    ledger_oracle.pair_ledger(rs, low, high), (name, low, high)
                edges += 1
        assert edges > 0

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_arbitrary_pairs(self, data):
        # any two dominant k = 2 tuples, comparable or not
        rs = root_system(data.draw(st.sampled_from(RANK_TWO_SYSTEMS)))
        part = st.tuples(st.integers(0, 6), st.integers(0, 6)).map(Weight)
        low = WeightTuple((data.draw(part), data.draw(part)))
        high = WeightTuple((data.draw(part), data.draw(part)))
        assert pair_ledger(rs, low, high) == \
            ledger_oracle.pair_ledger(rs, low, high)

    @pytest.mark.parametrize("name", RANK_TWO_SYSTEMS)
    def test_verifier_rows_match_the_oracle(self, name):
        rs = root_system(name)
        for coords in [(2, 1), (3, 3), (0, 3), (3, 2)]:
            poset = build_poset(Weight(coords), 2)
            got = verify_coroot_inequalities_k2(poset, rs)
            details, violations = ledger_oracle.coroot_ledger_rows(poset, rs)
            assert details and all(row["ok"] for row in details)
            assert got == violations == []

    @pytest.mark.parametrize("name", RANK_TWO_SYSTEMS)
    def test_grand_product_on_every_small_representative(self, name):
        rs = fresh_system(name)
        reps = 0
        for poset in small_k2_posets():
            for cls in poset.classes:
                want = ledger_oracle.grand_product_identity(rs, cls.rep)
                assert grand_product_identity(rs, cls.rep) == want, cls.rep
                reps += 1
        assert reps > 0
        assert rs.rho_product == ledger_oracle.grand_product_identity(
            rs, T((0, 0)))[0]

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_grand_product_on_arbitrary_tuples(self, data):
        rs = root_system(data.draw(st.sampled_from(RANK_TWO_SYSTEMS + ("C3",))))
        part = st.tuples(*[st.integers(0, 6)] * base_rank(rs)).map(Weight)
        x = WeightTuple(tuple(data.draw(part)
                              for _ in range(data.draw(st.integers(1, 4)))))
        assert grand_product_identity(rs, x) == \
            ledger_oracle.grand_product_identity(rs, x)

    def test_grand_product_keeps_the_rank_check(self):
        rs = fresh_system("C2")
        grand_product_identity(rs, X)
        for route in (grand_product_identity, ledger_oracle.grand_product_identity):
            with pytest.raises(ValueError):
                route(rs, T((1,), (0,)))

    def test_violation_items_match_the_oracle(self):
        # every cover walked downward: guaranteed rows lose, and both
        # routes read the same reversed edges
        rs = root_system("C2")
        poset = build_poset(Weight((3, 2)), 2)
        poset.__dict__["hasse_edges"] = [(b, a) for a, b in poset.hasse_edges]
        got = verify_coroot_inequalities_k2(poset, rs)
        _, violations = ledger_oracle.coroot_ledger_rows(poset, rs)
        assert got == violations
        assert len(violations) > len(poset.hasse_edges)


class TestBracketTable:
    @pytest.mark.parametrize("name", RANK_TWO_SYSTEMS)
    def test_warm_pass_equals_cold_pass(self, name):
        rs = fresh_system(name)
        assert rs.part_brackets == {}
        pairs = [(poset.classes[a].rep, poset.classes[b].rep)
                 for poset in small_k2_posets() for a, b in poset.hasse_edges]
        cold = [pair_ledger(rs, low, high) for low, high in pairs]
        assert rs.part_brackets
        warm = [pair_ledger(rs, low, high) for low, high in pairs]
        assert warm == cold
        for omega, vec in rs.part_brackets.items():
            e = iota(Weight(omega), rs)
            assert vec == tuple(bracket(e, h) for h in rs.coroots)

    def test_table_keeps_the_rank_check(self):
        rs = fresh_system("A2")
        pair_ledger(rs, X, Y)
        assert rs.part_brackets
        with pytest.raises(ValueError):
            pair_ledger(rs, T((1,), (0,)), T((0,), (1,)))
        with pytest.raises(ValueError):
            pair_ledger(rs, X, T((1, 0, 0), (0, 0, 1)))

    def test_plan_is_grouped_once_per_system(self, monkeypatch):
        calls = []
        real = roots.group_coroots

        def counting(rs):
            calls.append(rs.name)
            return real(rs)
        monkeypatch.setattr(roots, "group_coroots", counting)
        systems = [fresh_system(name) for name in RANK_TWO_SYSTEMS]
        for rs in systems:
            for coords in [(2, 1), (2, 2), (3, 1)]:
                assert verify_coroot_inequalities_k2(
                    build_poset(Weight(coords), 2), rs) == []
        assert calls == list(RANK_TWO_SYSTEMS)

    def test_plan_matches_the_grouping(self):
        for name in ("C3", "B4", "D5"):
            rs = root_system(name)
            coroot_rows, grouped_rows = rs.ledger_plan
            solos, grouped = group_coroots(rs)
            assert [label for label, *_ in coroot_rows] == \
                [str(h) for h in rs.coroots]
            assert {rs.coroots[t].coeffs for t, (*_, in_product)
                    in enumerate(coroot_rows) if in_product} == \
                {h.coeffs for h in solos}
            assert [(rs.coroots[i], rs.coroots[j])
                    for _, i, j in grouped_rows] == grouped

    def test_a_corrupt_entry_is_a_ledger_violation(self):
        rs = fresh_system("C2")
        poset = build_poset(Weight((2, 1)), 2)
        assert verify_coroot_inequalities_k2(poset, rs) == []  # warms the table
        a, b = poset.hasse_edges[0]
        low, high = poset.classes[a].rep, poset.classes[b].rep
        part = next(p for p in high.parts if p not in low.parts)
        coroot_rows, _ = rs.ledger_plan
        t, label = next((t, label) for t, (label, guaranteed, _)
                        in enumerate(coroot_rows) if guaranteed)
        vec = list(rs.part_brackets[part.omega])
        vec[t] = 0
        rs.part_brackets[part.omega] = tuple(vec)
        want_low = next(r.low for r in ledger_oracle.pair_ledger(rs, low, high)
                        if r.label == label)
        assert {"item": f"{low} -> {high} : {label}", "kind": "ledger_row",
                "low": want_low, "high": 0} in \
            verify_coroot_inequalities_k2(poset, rs)

    def test_a_corrupt_dimension_breaks_the_product_identity(self):
        rs = fresh_system("C2")
        poset = build_poset(Weight((2, 1)), 2)
        assert verify_coroot_inequalities_k2(poset, rs) == []  # warms the tables
        rs.part_dims[(0, 0)] = 2
        want = []
        for cls, label in zip(poset.classes, poset.labels):
            lhs, rhs = ledger_oracle.grand_product_identity(rs, cls.rep)
            if lhs != rhs:
                want.append({"item": f"product identity at {label}",
                             "kind": "identity", "lhs": lhs, "rhs": rhs})
        assert want and [v for v in verify_coroot_inequalities_k2(poset, rs)
                         if v["kind"] == "identity"] == want

    def test_the_identity_has_one_route(self, monkeypatch):
        # the ledger verifier decides the identity through
        # grand_product_identity, once per class, and reads no member_dims
        poset = build_poset(Weight((3, 2)), 2)
        rs = root_system("C2")
        seen = []
        real = dimensions.grand_product_identity

        def counting(rs, x):
            seen.append(x)
            return real(rs, x)
        monkeypatch.setattr(dimensions, "grand_product_identity", counting)
        monkeypatch.setattr(dimensions, "member_dims", None)
        assert verify_coroot_inequalities_k2(poset, rs) == []
        assert seen == [cls.rep for cls in poset.classes]


class TestGrandProduct:
    def test_frozen(self):
        lhs, rhs = grand_product_identity(root_system("C2"), X)
        assert lhs == rhs == 1260

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_identity_everywhere(self, data):
        name = data.draw(st.sampled_from(["A2", "C2", "B3", "C3"]))
        rs = root_system(name)
        n = rs.rank if name[0] in "AC" else rs.rank - 1
        k = data.draw(st.integers(1, 3))
        parts = tuple(
            Weight(data.draw(st.tuples(*([st.integers(0, 3)] * n))))
            for _ in range(k))
        lhs, rhs = grand_product_identity(rs, WeightTuple(parts))
        assert lhs == rhs


class TestFourFactorRebalance:
    @pytest.mark.parametrize("quad", [
        (1, 4, 2, 4), (1, 5, 3, 4), (1, 4, 3, 4), (1, 5, 2, 5), (1, 6, 2, 5),
        (0, 4, 4, 5),
    ])
    def test_premises_filter(self, quad):
        assert four_factor_rebalance(*quad) is RebalanceVerdict.NOT_APPLICABLE

    @pytest.mark.parametrize("quad", [
        (1, 4, 4, 5),   # boundary b-a = d-c+2: 80 < 108, still strict
        (2, 6, 5, 7),
        (1, 5, 4, 6),
    ])
    def test_strict_cases(self, quad):
        a, b, c, d = quad
        assert four_factor_rebalance(a, b, c, d) is RebalanceVerdict.HOLDS_STRICT
        assert a * b * c * d < (a + 1) * (b - 1) * (c - 1) * (d + 1)

    def test_never_fails_on_box(self):
        hits = 0
        for a, b, c, d in itertools.product(range(1, 16), repeat=4):
            verdict = four_factor_rebalance(a, b, c, d)
            assert verdict is not RebalanceVerdict.FAILS
            if verdict is RebalanceVerdict.HOLDS_STRICT:
                hits += 1
        assert hits > 0

    def test_equality_is_out_of_reach(self):
        # within the premises the slack is at least (2a+2)(b-a-1) > 0, so
        # the EQUAL branch never fires; it stays in the enum for honesty
        for a, b, c, d in itertools.product(range(1, 21), repeat=4):
            assert four_factor_rebalance(a, b, c, d) \
                is not RebalanceVerdict.HOLDS_EQUAL


class TestRebalanceGain:
    def test_sign_and_zero(self):
        for x in range(1, 60):
            for y in range(x + 1, 61):
                g = rebalance_gain(x, y)
                assert g == (x + 1) * (y - 1) - x * y
                assert g >= 0
                assert (g == 0) == (y == x + 1)

    def test_concrete(self):
        assert rebalance_gain(2, 3) == 0
        assert rebalance_gain(1, 5) == 3


class TestVerifiers:
    def test_monotone_on_running_fiber(self):
        poset = build_poset(Weight((2, 1)), 2)
        rs = root_system("C2")
        assert verify_monotone_k2(poset, rs) == []
        # the chain X < Y < Z: 2 covers of its 3 strict pairs, each rising
        dims = [d for d, in dimensions.member_dims(poset, rs)]
        assert sorted(dims) == [35, 50, 64]
        assert len(poset.hasse_edges) == 2
        assert all(dims[a] < dims[b] for a, b in poset.hasse_edges)

    def test_coroot_inequalities(self):
        rs = root_system("C2")
        assert verify_coroot_inequalities_k2(build_poset(Weight((2, 1)), 2),
                                             rs) == []
        _, grouped_rows = rs.ledger_plan
        assert [label for label, _, _ in grouped_rows] == ["h1 & h1+2h2"]

    def test_max_dim_tiny_a1(self):
        # dims along the (3), k = 3 chain are 4, 6, 8: strict to the top
        poset = build_poset(Weight((3,)), 3)
        rs = root_system("A1")
        assert verify_max_dim(poset, rs) == []
        dims = sorted(d for row in dimensions.member_dims(poset, rs)
                      for d in row)
        assert dims == [4, 6, 8]

    def test_max_dim_c3_smoke(self):
        assert verify_max_dim(build_poset(Weight((1, 1, 1)), 2),
                              root_system("C3")) == []

    def test_one_label_per_class_across_reports(self, monkeypatch):
        # a poset serves every family and check of its fiber; clean checks
        # format no label, and the exporter formats them once, with the
        # text str(rep) gives, read off the omega tuples: each distinct
        # omega formatted once, and no Weight formatted
        import weyl_order.posets as posets_mod
        posets = [build_poset(Weight(coords), k)
                  for coords, k in [((2, 2), 2), ((3, 2), 3), ((2, 2), 4)]]
        wants = [tuple(str(cls.rep) for cls in build_poset(p.lam, p.k).classes)
                 for p in posets]
        formatted = []
        real = posets_mod._omega_text

        def counting(omega):
            formatted.append(omega)
            return real(omega)
        monkeypatch.setattr(posets_mod, "_omega_text", counting)

        def refuse(w):
            raise AssertionError(f"a label formatted the Weight {w.omega}")
        monkeypatch.setattr(Weight, "__str__", refuse)
        for poset, want in zip(posets, wants):
            formatted.clear()
            verifiers = [verify_max_dim]
            if poset.k == 2:
                verifiers += [verify_monotone_k2, verify_coroot_inequalities_k2]
            for name in RANK_TWO_SYSTEMS:
                rs = root_system(name)
                for verify in verifiers:
                    assert verify(poset, rs) == []
            assert formatted == [] and "labels" not in poset.__dict__
            poset.to_dot()
            assert poset.labels == want
            omegas = {p for cls in poset.classes for p in cls.multisets[0]}
            assert sorted(formatted) == sorted(omegas)
            if poset.k != 2:
                assert all("rep" not in cls.__dict__ for cls in poset.classes)


class TestDetailRowsAgainstOracle:
    """Verifier violations against the eager one-pass builders, which
    build every detail row."""

    ROUTES = ((verify_monotone_k2, ledger_oracle.monotone_rows),
              (verify_coroot_inequalities_k2, ledger_oracle.coroot_ledger_rows),
              (verify_max_dim, ledger_oracle.max_dim_rows))

    @pytest.mark.parametrize("name", RANK_TWO_SYSTEMS)
    def test_small_k2_fibers(self, name):
        rs = root_system(name)
        for poset in small_k2_posets():
            for verify, oracle in self.ROUTES:
                assert verify(poset, rs) == oracle(poset, rs)[1], \
                    (name, poset.lam, verify.__name__)

    @pytest.mark.parametrize("name", RANK_TWO_SYSTEMS)
    def test_max_dim_at_k3_and_k4(self, name):
        rs = root_system(name)
        for coords in itertools.product(range(4), repeat=2):
            for k in (3, 4):
                poset = build_poset(Weight(coords), k)
                got = verify_max_dim(poset, rs)
                details, violations = ledger_oracle.max_dim_rows(poset, rs)
                # one detail row per part multiset, the top's own included
                assert len(details) == sum(len(cls.multisets)
                                           for cls in poset.classes)
                assert got == violations, (name, coords, k)

    @pytest.mark.parametrize("coords,k", [((2, 2), 2), ((3, 2), 3)])
    @pytest.mark.parametrize("above", [0, 1])
    def test_violations_of_a_skewed_dimension(self, monkeypatch, coords, k,
                                              above):
        # the bottom class ties with the top or jumps above it: both routes
        # must report the same monotone and max_dim violations, in order
        poset = build_poset(Weight(coords), k)
        rs = root_system("C2")
        top = tensor_dim(rs, poset.classes[poset.top_index].rep)
        monkeypatch.setattr(dimensions, "member_dims", bumped_member_dims(
            poset.bottom_index, top + above))
        monkeypatch.setattr(ledger_oracle, "tensor_dim", bumped_tensor_dim(
            poset, poset.bottom_index, top + above))
        routes = self.ROUTES[::2] if k == 2 else self.ROUTES[2:]
        for verify, oracle in routes:
            got = verify(poset, rs)
            assert got
            assert got == oracle(poset, rs)[1]


class TestMaxDimOverEveryMember:
    def test_window_class_members_differ_in_dimension_outside_type_a(self):
        # (3,3) at k = 3: one window class holds two part multisets, equal
        # in dimension over A2, 2000 against 1960 over C2
        poset = build_poset(Weight((3, 3)), 3)
        c = 12
        assert poset.classes[c].multisets == (((1, 2), (2, 0), (0, 1)),
                                              ((2, 1), (0, 2), (1, 0)))
        first, second = (WeightTuple(tuple(map(Weight, ms)))
                         for ms in poset.classes[c].multisets)
        assert compare(first, second) is OrderVerdict.EQUIV
        for name, dims in (("A2", [270, 270]), ("C2", [2000, 1960])):
            rs = root_system(name)
            assert dimensions.member_dims(poset, rs)[c] == dims
            assert [tensor_dim(rs, first), tensor_dim(rs, second)] == dims
            assert verify_max_dim(poset, rs) == []

    @pytest.mark.parametrize("above", [0, 1])
    def test_a_member_at_or_past_the_top_is_named(self, monkeypatch, above):
        # the second multiset of that class raised to the top's dimension
        # or past it: both routes report that member, and only it
        poset = build_poset(Weight((3, 3)), 3)
        rs = root_system("C2")
        c = 12
        member = WeightTuple(tuple(map(Weight, poset.classes[c].multisets[1])))
        top = tensor_dim(rs, poset.classes[poset.top_index].rep)
        real_dims = dimensions.member_dims

        def raised_dims(poset, rs):
            dims = real_dims(poset, rs)
            dims[c][1] = top + above
            return dims
        monkeypatch.setattr(dimensions, "member_dims", raised_dims)
        monkeypatch.setattr(
            ledger_oracle, "tensor_dim",
            lambda rs, x: top + above if x == member else tensor_dim(rs, x))
        want = [{"item": f"dim({member}) = {top + above} !< top {top}",
                 "kind": "max_dim_member"}]
        assert verify_max_dim(poset, rs) == want
        assert ledger_oracle.max_dim_rows(poset, rs)[1] == want


def monotone_failures(poset, rs, dim=tensor_dim):
    """(cover route, strict-pair route): the pairs whose dimensions do not
    rise, the first as verify_monotone_k2 reports them, the second from
    every strict pair of the order oracle, with dim(rs, rep) as each
    class's dimension."""
    by_covers = [v for v in verify_monotone_k2(poset, rs)
                 if v["kind"] == "monotone"]
    dims = [dim(rs, cls.rep) for cls in poset.classes]
    by_pairs = [(a, b) for a, b in strict_pairs(poset)
                if not dims[a] < dims[b]]
    return by_covers, by_pairs


def bumped_tensor_dim(poset, c, value):
    """tensor_dim with every tuple of class c sent to value."""
    target = poset.classes[c].stat_vector

    def bumped(rs, x):
        return value if x.stat_vector == target else tensor_dim(rs, x)
    return bumped


def bumped_member_dims(c, value):
    """dimensions.member_dims with every multiset of class c sent to value."""
    real = dimensions.member_dims

    def bumped(poset, rs):
        dims = real(poset, rs)
        dims[c] = [value] * len(dims[c])
        return dims
    return bumped


class TestMonotoneAlongCovers:
    SYSTEMS = {1: ("A1", "C1", "B2", "D3"), 2: ("A2", "C2", "B3", "D4"),
               3: ("A3", "C3", "B4", "D5")}

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_covers_agree_with_strict_pairs(self, data):
        rank = data.draw(st.integers(1, 3))
        lam = Weight(data.draw(st.tuples(*[st.integers(0, 3)] * rank)))
        rs = root_system(data.draw(st.sampled_from(self.SYSTEMS[rank])))
        poset = build_poset(lam, 2)
        with pytest.MonkeyPatch.context() as mp:
            dim = tensor_dim
            if data.draw(st.booleans()):
                # one class moved to a random dimension: the order may or
                # may not survive, and both routes must say the same
                c = data.draw(st.integers(0, len(poset) - 1))
                value = data.draw(st.integers(0, 2 * tensor_dim(
                    rs, poset.classes[poset.top_index].rep)))
                mp.setattr(dimensions, "member_dims",
                           bumped_member_dims(c, value))
                dim = bumped_tensor_dim(poset, c, value)
            by_covers, by_pairs = monotone_failures(poset, rs, dim)
        assert bool(by_covers) == bool(by_pairs)

    def test_both_routes_catch_a_non_monotone_dimension(self, monkeypatch):
        poset = build_poset(Weight((2, 2)), 2)
        rs = root_system("C2")
        assert monotone_failures(poset, rs) == ([], [])
        # the bottom class jumps above the top: every pair out of it fails
        top = tensor_dim(rs, poset.classes[poset.top_index].rep)
        bottom = poset.bottom_index
        monkeypatch.setattr(dimensions, "member_dims",
                            bumped_member_dims(bottom, top + 1))
        by_covers, by_pairs = monotone_failures(
            poset, rs, bumped_tensor_dim(poset, bottom, top + 1))
        assert by_pairs == [(bottom, b) for b in range(len(poset))
                            if b != bottom]
        covers = [b for a, b in poset.hasse_edges if a == bottom]
        assert len(by_covers) == len(covers) > 0
        assert verify_monotone_k2(poset, rs) != []

    def test_class_dimension_is_checked_once_per_multiset(self):
        # (3,3) at k = 3 has a class of two part multisets: member_dims
        # gives one product per multiset, the representative's included,
        # each the dimension of the multiset's sorted tuple, over A2 and
        # over C2, where the two members differ
        poset = build_poset(Weight((3, 3)), 3)
        assert any(len(cls.multisets) == 2 for cls in poset.classes)
        for rs in (root_system("A2"), root_system("C2")):
            assert dimensions.member_dims(poset, rs) == [
                [tensor_dim(rs, WeightTuple(tuple(map(Weight, ms))))
                 for ms in cls.multisets] for cls in poset.classes]


def parts_changed(low, high):
    """The fewest parts in which some member multiset of class low and some
    member multiset of class high differ, counted as a multiset
    difference."""
    return min(sum((Counter(x) - Counter(y)).values())
               for x in low.multisets for y in high.multisets)


class TestDimensionAlongK3Covers:
    """The k = 2 rise in dimension does not extend to k = 3 outside type
    A: on rank-2 lambda with coordinates <= 7, a few covers fall or tie
    over C2 and B3, each changing three parts.  A cover fails when some
    member of its lower class is at least some member of its upper."""

    @pytest.fixture(scope="class")
    def fibers(self):
        return {lam: build_poset(Weight(lam), 3)
                for lam in itertools.product(range(8), repeat=2) if any(lam)}

    def test_the_slice(self, fibers):
        assert len(fibers) == 63
        assert sum(len(p.hasse_edges) for p in fibers.values()) == 6302
        changed = Counter(
            parts_changed(p.classes[a], p.classes[b])
            for p in fibers.values() for a, b in p.hasse_edges)
        assert changed == {2: 5925, 3: 377}

    def test_failing_covers_by_system(self, fibers):
        found = {}
        for name in ("A2", "C2", "B3", "D4"):
            failing = found[name] = []
            for lam, poset in fibers.items():
                dims = dimensions.member_dims(poset, root_system(name))
                for a, b in poset.hasse_edges:
                    if any(x >= y for x in dims[a] for y in dims[b]):
                        tie = all(x == y for x in dims[a] for y in dims[b])
                        failing.append((lam, poset.labels[a], poset.labels[b],
                                        tie))
                        # no two-part cover fails
                        assert parts_changed(poset.classes[a],
                                             poset.classes[b]) == 3
        assert found == {
            "A2": [],
            "C2": [((5, 6), "(1,5)/(4,0)/(0,1)", "(0,5)/(4,1)/(1,0)", False),
                   ((5, 7), "(1,6)/(4,0)/(0,1)", "(0,6)/(4,1)/(1,0)", True),
                   ((6, 7), "(1,6)/(5,0)/(0,1)", "(0,6)/(5,1)/(1,0)", False)],
            "B3": [((6, 7), "(1,6)/(5,0)/(0,1)", "(0,6)/(5,1)/(1,0)", False)],
            "D4": [],
        }

    def test_the_c2_case_at_5_6_against_the_oracle(self, fibers):
        low, high = T((1, 5), (4, 0), (0, 1)), T((0, 5), (4, 1), (1, 0))
        assert compare(low, high) is OrderVerdict.LESS
        poset = fibers[(5, 6)]
        a, b = poset.class_of(low), poset.class_of(high)
        assert b in poset.cover_rows[a]
        assert [len(poset.classes[c].multisets) for c in (a, b)] == [1, 1]
        rs = root_system("C2")
        assert [tensor_dim(rs, low), tensor_dim(rs, high)] == [39200, 38220]
        assert [math.prod(freudenthal_dim("C", 2, p.omega) for p in x.parts)
                for x in (low, high)] == [39200, 38220]


class TestKTwoRule:
    """The ledger and the two *_k2 verifiers hold at k = 2 only."""

    @pytest.mark.parametrize("k", [1, 3])
    def test_other_k_is_refused_with_one_message(self, k):
        rs = root_system("C2")
        poset = build_poset(Weight((3, 3)), k)
        rep = poset.classes[0].rep
        calls = [("pair_ledger", lambda: pair_ledger(rs, rep, rep)),
                 ("pair_ledger", lambda: pair_ledger(rs, X, rep)),
                 ("pair_ledger", lambda: pair_ledger(rs, rep, X)),
                 ("verify_monotone_k2", lambda: verify_monotone_k2(poset, rs)),
                 ("verify_coroot_inequalities_k2",
                  lambda: verify_coroot_inequalities_k2(poset, rs))]
        for name, call in calls:
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == \
                f"{name} is defined for k = 2 only, got k = {k}"

    def test_every_k2_class_is_one_multiset(self):
        # the monotone verifier reads one product per k = 2 class
        for rank in (1, 2, 3):
            for coords in itertools.product(range(4), repeat=rank):
                poset = build_poset(Weight(coords), 2)
                assert all(len(cls.multisets) == 1 for cls in poset.classes), \
                    coords
