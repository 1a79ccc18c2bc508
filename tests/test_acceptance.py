"""End-to-end acceptance checks, one numbered criterion per test.

Each test records a single verdict line, echoed in the terminal summary,
with its wall-clock time against the stated budget.  The
strictness-boundary check under criterion 9 is expected to fail: the
scanned claim is false at the boundary and the first counterexample is
reported rather than papered over.
"""

import itertools
import time
from contextlib import contextmanager

import pytest

from fiber_oracle import members
from freudenthal_oracle import freudenthal_dim
from stat_reader import r_stat
from weight_actions import pi_project, sk_permute
from weyl_order import (
    CoverKind,
    OrderVerdict,
    RebalanceVerdict,
    Weight,
    WeightTuple,
    build_poset,
    compare,
    compare_prec,
    coroot_table_report,
    covers_of,
    enumerate_tuples,
    expected_table_report,
    four_factor_rebalance,
    maximal_element,
    poset_size_k2,
    rebalance_gain,
    root_system,
    tensor_dim,
    verify_max_dim,
    weyl_dim,
    windows,
)
from weyl_order.roots import EmbeddedWeight
from weyl_order.weights import Permutation


def T(*rows):
    return WeightTuple(tuple(Weight(r) for r in rows))


# ambient systems whose base weight lattice has rank 2, then rank 3
SYSTEMS_RANK2 = ("A2", "C2", "B3", "D4")
SYSTEMS_RANK3 = ("A3", "C3", "B4", "D5")

AT_MOST = (OrderVerdict.LESS, OrderVerdict.EQUIV)


def fibers(max_rank, max_coord):
    for n in range(1, max_rank + 1):
        for coords in itertools.product(range(max_coord + 1), repeat=n):
            yield Weight(coords)


@contextmanager
def criterion(log, n: int, budget: float):
    t0 = time.perf_counter()
    try:
        yield
    except AssertionError as e:
        dt = time.perf_counter() - t0
        first = str(e).splitlines()[0] if str(e) else "assertion failed"
        log(f"[criterion {n}] FAIL ({dt:.2f}s): {first}")
        raise
    dt = time.perf_counter() - t0
    if dt >= budget:
        log(f"[criterion {n}] FAIL: {dt:.2f}s over the {budget:.0f}s budget")
        pytest.fail(f"criterion {n} ran {dt:.2f}s, budget {budget:.0f}s")
    log(f"[criterion {n}] PASS ({dt:.2f}s < {budget:.0f}s)")


def test_criterion_1_running_example(criterion_log):
    with criterion(criterion_log, 1, budget=1.0):
        x, y, z = T((2, 1), (0, 0)), T((2, 0), (0, 1)), T((1, 1), (1, 0))
        assert x.stat_vector == (0, 2, 0, 3, 0, 1)
        assert y.stat_vector == (0, 2, 1, 3, 0, 1)
        assert z.stat_vector == (1, 2, 1, 3, 0, 1)
        assert compare(x, y) is OrderVerdict.LESS
        assert compare(y, z) is OrderVerdict.LESS
        assert compare(x, z) is OrderVerdict.LESS

        poset = build_poset(Weight((2, 1)), 2)
        assert len(poset) == 3
        assert poset.hasse_edges == ((0, 1), (1, 2))
        assert [str(c.rep) for c in poset.classes] == \
            ["(2,1)/(0,0)", "(2,0)/(0,1)", "(1,1)/(1,0)"]

        rs = root_system("C2")
        assert [tensor_dim(rs, t) for t in (x, y, z)] == [35, 50, 64]

        # the all-coroot refinement keeps the pairs against the bottom
        # but separates the (y, z) pair in both directions
        assert compare_prec(x, y, rs) is OrderVerdict.LESS
        assert compare_prec(x, z, rs) is OrderVerdict.LESS
        assert compare_prec(y, z, rs) is OrderVerdict.INCOMPARABLE

        # over a type-A ambient system the refinement adds nothing
        a2 = root_system("A2")
        for s, t in itertools.product(enumerate_tuples(Weight((2, 1)), 2),
                                      repeat=2):
            assert compare_prec(s, t, a2) is compare(s, t)


def test_criterion_2_class_count_formula(criterion_log):
    with criterion(criterion_log, 2, budget=30.0):
        checked = 0
        for lam in fibers(max_rank=3, max_coord=4):
            assert len(build_poset(lam, 2)) == poset_size_k2(lam), lam
            checked += 1
        assert checked == 155


def test_criterion_3_top_class_and_even_split(criterion_log):
    with criterion(criterion_log, 3, budget=300.0):
        for lam in fibers(max_rank=3, max_coord=3):
            for k in (2, 3, 4):
                top = maximal_element(lam, k)
                for i in range(k):
                    for j in range(i + 1, k):
                        diff = top.parts[i] - top.parts[j]
                        assert set(diff.eps()) <= {0, 1}, (lam, k, i, j)

                poset = build_poset(lam, k)
                cls = poset.classes[poset.top_index]
                assert poset.class_of(top) == poset.top_index, (lam, k)
                got = {tuple(p.omega for p in m.parts)
                       for m in members(cls)}
                orbit = {tuple(p.omega for p in perm)
                         for perm in itertools.permutations(top.parts)}
                assert got == orbit, (lam, k)


def test_criterion_4_dimension_monotonicity(criterion_log):
    with criterion(criterion_log, 4, budget=600.0):
        for names in (SYSTEMS_RANK2, SYSTEMS_RANK3):
            for name in names:
                rs = root_system(name)
                n = 2 if names is SYSTEMS_RANK2 else 3
                for coords in itertools.product(range(4), repeat=n):
                    poset = build_poset(Weight(coords), 2)
                    dims = [tensor_dim(rs, c.rep) for c in poset.classes]
                    m = len(poset.classes)
                    for a in range(m):
                        for b in range(m):
                            if poset.verdict(a, b) is OrderVerdict.LESS:
                                assert dims[a] < dims[b], \
                                    (name, coords, a, b, dims[a], dims[b])
                            if a != b and dims[a] == dims[b]:
                                # equal dimension products happen, but only
                                # between incomparable classes
                                assert poset.verdict(a, b) \
                                    is OrderVerdict.INCOMPARABLE, \
                                    (name, coords, a, b)


def test_criterion_5_unique_dimension_maximum(criterion_log):
    with criterion(criterion_log, 5, budget=600.0):
        for names in (SYSTEMS_RANK2, SYSTEMS_RANK3):
            for name in names:
                rs = root_system(name)
                n = 2 if names is SYSTEMS_RANK2 else 3
                for coords in itertools.product(range(4), repeat=n):
                    violations = verify_max_dim(build_poset(Weight(coords), 3), rs)
                    assert violations == [], (name, coords, violations[:3])


def test_criterion_6_cover_classification(criterion_log):
    with criterion(criterion_log, 6, budget=60.0):
        for coords in itertools.product(range(5), repeat=2):
            poset = build_poset(Weight(coords), 2)
            for c in range(len(poset.classes)):
                kinds = [e.kind for e in covers_of(poset, c)]
                assert CoverKind.UNCLASSIFIED not in kinds, (coords, c)
                assert kinds.count(CoverKind.TYPE_I) <= 2, (coords, c)
                assert kinds.count(CoverKind.TYPE_II) <= 1, (coords, c)


def test_criterion_7_dimension_formula_vs_oracle(criterion_log):
    with criterion(criterion_log, 7, budget=60.0):
        for name in ("A2", "C2", "B3", "C3", "D4"):
            rs = root_system(name)
            family, rank = name[0], rs.rank
            for coords in itertools.product(range(4), repeat=rank):
                if sum(coords) > 3:
                    continue
                closed = weyl_dim(EmbeddedWeight(rs, coords))
                recursive = freudenthal_dim(family, rank, coords)
                assert closed == recursive, (name, coords, closed, recursive)


def test_criterion_8_coroot_tables(criterion_log):
    with criterion(criterion_log, 8, budget=1.0):
        systems = [("A", r) for r in (2, 3, 4)] + \
                  [("B", r) for r in (2, 3, 4)] + \
                  [("C", r) for r in (2, 3, 4)] + \
                  [("D", r) for r in (3, 4, 5)]
        for family, rank in systems:
            got = coroot_table_report(family, rank)
            want = expected_table_report(family, rank)
            for key in ("extra_in_table", "missing_from_table"):
                assert sorted(got[key]) == sorted(want[key]), \
                    (family, rank, key, got[key], want[key])


# -- criterion 9: property suites ---------------------------------------------

NINE_BUDGET = 120.0
_nine_times = {}


@contextmanager
def nine(log, label: str):
    t0 = time.perf_counter()
    try:
        yield
    except AssertionError as e:
        _nine_times[label] = time.perf_counter() - t0
        first = str(e).splitlines()[0] if str(e) else "assertion failed"
        log(f"[criterion 9] {label}: FAIL: {first}")
        raise
    _nine_times[label] = dt = time.perf_counter() - t0
    log(f"[criterion 9] {label}: PASS ({dt:.2f}s)")


def test_criterion_9_preorder_axioms(criterion_log):
    with nine(criterion_log, "preorder axioms"):
        for lam in fibers(max_rank=3, max_coord=3):
            for k in (2, 3):
                poset = build_poset(lam, k)
                m = len(poset.classes)
                for a in range(m):
                    assert poset.verdict(a, a) is OrderVerdict.EQUIV
                    for b in range(m):
                        va, vb = poset.verdict(a, b), poset.verdict(b, a)
                        flip = {OrderVerdict.LESS: OrderVerdict.GREATER,
                                OrderVerdict.GREATER: OrderVerdict.LESS}
                        assert vb is flip.get(va, va)
                assert poset.transitive_ok(), (lam, k)
        # raw tuple-level transitivity on a few complete fibers
        for lam, k in [(Weight((2, 1)), 2), (Weight((2, 2)), 3),
                       (Weight((1, 1, 1)), 2)]:
            ts = list(enumerate_tuples(lam, k))
            le = {(i, j) for i, x in enumerate(ts) for j, y in enumerate(ts)
                  if compare(x, y) in AT_MOST}
            for i, j in le:
                for h in range(len(ts)):
                    if (j, h) in le:
                        assert (i, h) in le, (lam, k, i, j, h)


def test_criterion_9_part_permutation_invariance(criterion_log):
    with nine(criterion_log, "part-permutation invariance"):
        for lam in fibers(max_rank=2, max_coord=3):
            for k in (2, 3):
                perms = [Permutation(p)
                         for p in itertools.permutations(range(k))]
                for t in enumerate_tuples(lam, k):
                    for perm in perms:
                        assert compare(t, sk_permute(t, perm)) \
                            is OrderVerdict.EQUIV, (lam, k, t, perm)


def test_criterion_9_window_projection(criterion_log):
    with nine(criterion_log, "window projection"):
        for lam in fibers(max_rank=2, max_coord=3):
            for k in (2, 3):
                ts = list(enumerate_tuples(lam, k))
                if len(ts) > 40:
                    ts = ts[::3]
                wins = windows(lam.rank)
                for x in ts:
                    for i, j in wins:
                        p = pi_project(x, i, j)
                        for ell in range(1, k + 1):
                            assert r_stat(p, 1, 1, ell) == r_stat(x, i, j, ell)
                for x, y in itertools.combinations(ts, 2):
                    full = compare(x, y) in AT_MOST
                    projected = all(
                        compare(pi_project(x, i, j), pi_project(y, i, j))
                        in AT_MOST for i, j in wins)
                    assert full == projected, (lam, k, x, y)


def test_criterion_9_tail_extension(criterion_log):
    with nine(criterion_log, "tail extension"):
        for lam in fibers(max_rank=2, max_coord=2):
            poset = build_poset(lam, 2)
            m = len(poset.classes)
            strict = [(a, b) for a in range(m) for b in range(m)
                      if poset.verdict(a, b) is OrderVerdict.LESS]
            tails = [Weight(c) for c in
                     itertools.product(range(3), repeat=lam.rank)]
            for a, b in strict:
                low, high = poset.classes[a].rep, poset.classes[b].rep
                for tau in tails:
                    assert compare(WeightTuple(low.parts + (tau,)),
                                   WeightTuple(high.parts + (tau,))) \
                        is OrderVerdict.LESS, (lam, a, b, tau)
                for pair in itertools.product(tails[:4], repeat=2):
                    assert compare(WeightTuple(low.parts + pair),
                                   WeightTuple(high.parts + pair)) \
                        is OrderVerdict.LESS, (lam, a, b, pair)


def test_criterion_9_adjacent_rebalance_inequality(criterion_log):
    with nine(criterion_log, "adjacent-rebalance inequality"):
        for x in range(1, 101):
            for y in range(x + 1, 101):
                g = rebalance_gain(x, y)
                assert g >= 0, (x, y)
                assert (g == 0) == (y == x + 1), (x, y)


def _premise_quads(bound):
    for a in range(1, bound + 1):
        for d in range(a + 2, bound + 1):
            for c in range(a + 1, d):
                for b in range(a + max(3, d - c + 2), d):
                    yield a, b, c, d


def test_criterion_9_four_factor_inequality(criterion_log):
    with nine(criterion_log, "four-factor inequality"):
        count = 0
        for a, b, c, d in _premise_quads(40):
            assert four_factor_rebalance(a, b, c, d) \
                is RebalanceVerdict.HOLDS_STRICT, (a, b, c, d)
            count += 1
        assert count > 10000


def test_criterion_9_four_factor_strictness_boundary(criterion_log):
    # The scanned claim: within the premises the inequality is strict
    # exactly when b - a exceeds d - c + 2.  The forward half is fine,
    # but boundary quads (b - a equal to d - c + 2) are still strict,
    # so the biconditional is false.  This test is expected to fail and
    # names the first counterexample instead of weakening the claim.
    label = "four-factor strictness boundary"
    t0 = time.perf_counter()
    bad = []
    for a, b, c, d in _premise_quads(40):
        strict = four_factor_rebalance(a, b, c, d) \
            is RebalanceVerdict.HOLDS_STRICT
        claimed = (b - a) > (d - c) + 2
        if strict != claimed:
            bad.append((a, b, c, d))
    _nine_times[label] = time.perf_counter() - t0
    if bad:
        a, b, c, d = bad[0]
        lhs = a * b * c * d
        rhs = (a + 1) * (b - 1) * (c - 1) * (d + 1)
        criterion_log(
            f"[criterion 9] {label}: FAIL: strict-iff claim is false at the "
            f"boundary b-a == d-c+2; first counterexample (a,b,c,d)="
            f"{(a, b, c, d)} with {lhs} < {rhs} ({len(bad)} quads total)")
        pytest.fail(f"strictness biconditional fails for {len(bad)} quads, "
                    f"first {(a, b, c, d)}: {lhs} < {rhs} is strict at the "
                    f"boundary")
    criterion_log(f"[criterion 9] {label}: PASS")


def test_criterion_9_total_budget(criterion_log):
    total = sum(_nine_times.values())
    assert len(_nine_times) == 7, "criterion 9 suites did not all run"
    if total >= NINE_BUDGET:
        criterion_log(f"[criterion 9] total: FAIL: {total:.2f}s over "
                      f"the {NINE_BUDGET:.0f}s budget")
        pytest.fail(f"criterion 9 total {total:.2f}s, budget {NINE_BUDGET}s")
    criterion_log(f"[criterion 9] total: PASS ({total:.2f}s < "
                  f"{NINE_BUDGET:.0f}s)")
