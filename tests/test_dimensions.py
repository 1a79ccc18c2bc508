import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weyl_order.dimensions as dimensions
import weyl_order.roots as roots
from weyl_order import (
    LedgerRow,
    OrderVerdict,
    RebalanceVerdict,
    RootSystem,
    Weight,
    WeightTuple,
    base_rank,
    bracket,
    build_poset,
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

    def test_inexact_division_raises(self, monkeypatch):
        # a broken shift makes the quotient inexact; that is an error, not
        # an assert that python -O would strip
        import weyl_order.dimensions as dimensions
        monkeypatch.setattr(dimensions, "rho_value", lambda h: 2)
        with pytest.raises(ArithmeticError):
            weyl_dim(iota(Weight((1, 0)), root_system("A2")))

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
        row = pair_ledger(root_system("C2"), X, Y)[0]
        d = row.as_dict()
        assert set(d) == {"label", "low", "high", "guaranteed",
                          "in_product", "ok"}


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
            report = verify_coroot_inequalities_k2(poset, rs)
            details, violations = ledger_oracle.coroot_ledger_rows(poset, rs)
            assert report.details == details
            assert report.violations == violations == []

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

    def test_violation_items_match_the_oracle(self, monkeypatch):
        # a ledger whose guaranteed rows all lose, fed to both routes
        real = ledger_oracle.pair_ledger

        def losing(rs, low, high):
            return [LedgerRow(r.label, r.low, r.low - 1, r.guaranteed,
                              r.in_product) for r in real(rs, low, high)]
        monkeypatch.setattr(dimensions, "pair_ledger", losing)
        monkeypatch.setattr(ledger_oracle, "pair_ledger", losing)
        rs = root_system("C2")
        poset = build_poset(Weight((3, 2)), 2)
        report = verify_coroot_inequalities_k2(poset, rs)
        details, violations = ledger_oracle.coroot_ledger_rows(poset, rs)
        assert report.details == details
        assert report.violations == violations
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
                    build_poset(Weight(coords), 2), rs).ok
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
        assert verify_coroot_inequalities_k2(poset, rs).ok  # warms the table
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
        report = verify_coroot_inequalities_k2(poset, rs)
        assert {"item": f"{low} -> {high} : {label}", "kind": "ledger_row",
                "low": want_low, "high": 0} in report.violations


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
        report = verify_monotone_k2(poset, root_system("C2"))
        assert report.ok
        assert report.details and not report.violations
        # one detail row per cover: 2 of the chain's 3 strict pairs
        assert len(report.details) == len(poset.hasse_edges) == 2

    def test_coroot_inequalities(self):
        report = verify_coroot_inequalities_k2(build_poset(Weight((2, 1)), 2),
                                               root_system("C2"))
        assert report.ok
        labels = {d["label"] for d in report.details if "label" in d}
        assert "h1 & h1+2h2" in labels

    def test_max_dim_tiny_a1(self):
        # dims along the (3), k = 3 chain are 4, 6, 8: strict to the top
        report = verify_max_dim(build_poset(Weight((3,)), 3), root_system("A1"))
        assert report.ok
        dims = sorted(d["dim"] for d in report.details)
        assert dims == [4, 6, 8]

    def test_max_dim_c3_smoke(self):
        report = verify_max_dim(build_poset(Weight((1, 1, 1)), 2), root_system("C3"))
        assert report.ok

    def test_one_label_per_class_across_reports(self, monkeypatch):
        # a poset serves every family and check of its fiber; its class
        # labels are formatted once, with the text str(rep) gives, each
        # distinct part formatted once
        posets = [build_poset(Weight(coords), k)
                  for coords, k in [((2, 2), 2), ((3, 2), 3), ((2, 2), 4)]]
        wants = [tuple(str(cls.rep) for cls in poset.classes)
                 for poset in posets]
        formatted = []
        real = Weight.__str__

        def counting(w):
            formatted.append(w)
            return real(w)
        monkeypatch.setattr(Weight, "__str__", counting)
        for poset, want in zip(posets, wants):
            formatted.clear()
            verifiers = [verify_max_dim]
            if poset.k == 2:
                verifiers += [verify_monotone_k2, verify_coroot_inequalities_k2]
            for name in RANK_TWO_SYSTEMS:
                rs = root_system(name)
                for verify in verifiers:
                    assert verify(poset, rs).ok
            poset.to_dot()
            assert poset.labels == want
            parts = {p for cls in poset.classes for p in cls.rep.parts}
            assert sorted(formatted, key=lambda w: w.omega) == \
                sorted(parts, key=lambda w: w.omega)

    def test_report_serialization(self):
        report = verify_monotone_k2(build_poset(Weight((2, 1)), 2), root_system("C2"))
        payload = report.to_json()
        assert payload["ok"] is True
        assert payload["check"] == "monotone_k2"
        assert payload["lambda"] == [2, 1]


def monotone_failures(poset, rs):
    """(cover route, strict-pair route): the pairs whose dimensions do not
    rise, the first as verify_monotone_k2 reports them, the second from
    every strict pair of the order oracle."""
    report = verify_monotone_k2(poset, rs)
    by_covers = [v for v in report.violations if v["kind"] == "monotone"]
    dims = [dimensions.tensor_dim(rs, cls.rep) for cls in poset.classes]
    by_pairs = [(a, b) for a, b in strict_pairs(poset)
                if not dims[a] < dims[b]]
    return by_covers, by_pairs


def bumped_tensor_dim(poset, c, value):
    """tensor_dim with every tuple of class c sent to value."""
    real = dimensions.tensor_dim
    target = poset.classes[c].stat_vector

    def bumped(rs, x):
        return value if x.stat_vector == target else real(rs, x)
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
            if data.draw(st.booleans()):
                # one class moved to a random dimension: the order may or
                # may not survive, and both routes must say the same
                c = data.draw(st.integers(0, len(poset) - 1))
                value = data.draw(st.integers(0, 2 * tensor_dim(
                    rs, poset.classes[poset.top_index].rep)))
                mp.setattr(dimensions, "tensor_dim",
                           bumped_tensor_dim(poset, c, value))
            by_covers, by_pairs = monotone_failures(poset, rs)
        assert bool(by_covers) == bool(by_pairs)

    def test_both_routes_catch_a_non_monotone_dimension(self, monkeypatch):
        poset = build_poset(Weight((2, 2)), 2)
        rs = root_system("C2")
        assert monotone_failures(poset, rs) == ([], [])
        # the bottom class jumps above the top: every pair out of it fails
        top = tensor_dim(rs, poset.classes[poset.top_index].rep)
        monkeypatch.setattr(dimensions, "tensor_dim",
                            bumped_tensor_dim(poset, poset.bottom_index, top + 1))
        by_covers, by_pairs = monotone_failures(poset, rs)
        bottom = poset.bottom_index
        assert by_pairs == [(bottom, b) for b in range(len(poset))
                            if b != bottom]
        covers = [b for a, b in poset.hasse_edges if a == bottom]
        assert len(by_covers) == len(covers) > 0
        assert not verify_monotone_k2(poset, rs).ok

    def test_class_dimension_is_checked_once_per_multiset(self, monkeypatch):
        # (3,3) at k = 3 has a class of two part multisets; a dimension that
        # differs on the second one's sorted tuple is a class_dim violation
        poset = build_poset(Weight((3, 3)), 3)
        rs = root_system("A2")
        c = next(c for c, cls in enumerate(poset.classes)
                 if len(cls.multisets) == 2)
        other = WeightTuple(tuple(Weight(p) for p in poset.classes[c].multisets[1]))
        real = dimensions.tensor_dim
        seen = []

        def skewed(rs, x):
            seen.append(x)
            return real(rs, x) + (x == other)
        monkeypatch.setattr(dimensions, "tensor_dim", skewed)
        report = verify_monotone_k2(poset, rs)
        assert [v for v in report.violations if v["kind"] == "class_dim"] == \
            [{"item": f"class {c} member {other}", "kind": "class_dim"}]
        # one dimension per representative, then one per multiset
        assert len(seen) == len(poset) + sum(len(cls.multisets)
                                            for cls in poset.classes)
