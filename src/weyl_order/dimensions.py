"""Dimension products over positive coroots, and their monotonicity.

All arithmetic is exact, on integers.  ``weyl_dim`` is the product
formula; ``tensor_dim`` and ``member_dims`` multiply part dimensions
read from ``RootSystem.part_dims``.  At k = 2, ``pair_ledger`` compares
two tuples coroot by coroot (the row layout is ``_ledger_rows``'s, the
brackets are ``RootSystem.part_brackets``'), and
``four_factor_rebalance`` is the integer fact behind its grouped rows.
The three verifiers return their violations, a list of dicts, empty when
the claim holds; they read class labels only to word a violation.
``verify_coroot_inequalities_k2`` reads every class's representative
``WeightTuple`` (``EquivClass.rep``); ``verify_max_dim`` builds one only
to word a violation.  Every k = 2 function refuses any other k through
``_require_k2``.
"""

from __future__ import annotations

import enum
import math

from .posets import TuplePoset
from .roots import (Coroot, EmbeddedWeight, RootSystem, iota, pairing,
                    rho_value)
from .tuples import WeightTuple
from .weights import Weight, _Value


def bracket(w: EmbeddedWeight, h: Coroot) -> int:
    """Pairing of w shifted by the all-ones weight against h."""
    return pairing(w, h) + rho_value(h)


def weyl_dim(w: EmbeddedWeight) -> int:
    """Dimension by the product formula, exact integer division."""
    if not w.is_dominant:
        raise ValueError(f"{w} is not dominant")
    num = math.prod(bracket(w, h) for h in w.system.coroots)
    if num % w.system.rho_product:
        raise ArithmeticError(f"product formula for {w} does not divide exactly")
    return num // w.system.rho_product


def tensor_dim(rs: RootSystem, x: WeightTuple) -> int:
    """Product of the part dimensions after embedding into rs; a
    wrong-rank part raises in iota."""
    return math.prod(_part_dim(rs, p.omega) for p in x.parts)


def _part_dim(rs: RootSystem, omega: tuple[int, ...]) -> int:
    """weyl_dim of the part with this omega tuple, through rs.part_dims."""
    d = rs.part_dims.get(omega)
    if d is None:
        d = rs.part_dims[omega] = weyl_dim(iota(Weight(omega), rs))
    return d


# -- exact rebalancing facts ------------------------------------------------

def rebalance_gain(x: int, y: int) -> int:
    """(x+1)(y-1) - xy = y - x - 1: nonnegative whenever 0 < x < y,
    zero exactly when y = x + 1."""
    return (x + 1) * (y - 1) - x * y


class RebalanceVerdict(enum.Enum):
    HOLDS_STRICT = "holds_strict"
    HOLDS_EQUAL = "holds_equal"
    NOT_APPLICABLE = "not_applicable"
    FAILS = "fails"


def four_factor_rebalance(a: int, b: int, c: int, d: int) -> RebalanceVerdict:
    """Exact verdict on a*b*c*d <= (a+1)(b-1)(c-1)(d+1) for positive
    integers with a < b < d, a < c < d and b - a >= d - c + 2;
    NOT_APPLICABLE outside that premise."""
    if min(a, b, c, d) < 1:
        return RebalanceVerdict.NOT_APPLICABLE
    if not (a < b < d and a < c < d and b - a >= d - c + 2):
        return RebalanceVerdict.NOT_APPLICABLE
    lhs = a * b * c * d
    rhs = (a + 1) * (b - 1) * (c - 1) * (d + 1)
    if lhs < rhs:
        return RebalanceVerdict.HOLDS_STRICT
    if lhs == rhs:
        return RebalanceVerdict.HOLDS_EQUAL
    return RebalanceVerdict.FAILS


# -- per-coroot ledgers for k = 2 -------------------------------------------

def _require_k2(name: str, *ks: int) -> None:
    """Any k but 2 raises ValueError naming the function and that k."""
    for k in ks:
        if k != 2:
            raise ValueError(f"{name} is defined for k = 2 only, got k = {k}")


class LedgerRow(_Value):
    """One inequality row comparing a low tuple against a high one.
    guaranteed: the monotonicity argument asserts low <= high.
    in_product: the row is a factor of the grand product."""

    _fields = ("label", "low", "high", "guaranteed", "in_product")

    def __init__(self, label: str, low: int, high: int, guaranteed: bool,
                 in_product: bool):
        vars(self).update(label=label, low=low, high=high,
                          guaranteed=guaranteed, in_product=in_product)

    @property
    def ok(self) -> bool:
        return (not self.guaranteed) or self.low <= self.high


def _brackets(rs: RootSystem, p: Weight) -> tuple[int, ...]:
    """bracket(iota(p, rs), h) for every coroot h, in coroot order,
    through rs.part_brackets; a wrong-rank part raises in iota."""
    table = rs.part_brackets
    vec = table.get(p.omega)
    if vec is None:
        e = iota(p, rs)
        vec = table[p.omega] = tuple(bracket(e, h) for h in rs.coroots)
    return vec


def _two_factor(rs: RootSystem, x: WeightTuple) -> list[int]:
    """Per coroot, the product of the brackets of x's two parts."""
    first, second = (_brackets(rs, p) for p in x.parts)
    return [a * b for a, b in zip(first, second)]


def _ledger_rows(rs: RootSystem, lo, hi):
    """The one ledger row layout, as (label, low, high, guaranteed,
    in_product) tuples: a row per coroot, in coroot order, from the
    two-factor vectors lo and hi, then the grouped rows of rs.ledger_plan,
    each multiplying two coroots' two-factor products."""
    coroot_rows, grouped_rows = rs.ledger_plan
    for (label, guaranteed, in_product), low, high in zip(coroot_rows, lo, hi):
        yield label, low, high, guaranteed, in_product
    for label, i, j in grouped_rows:
        yield label, lo[i] * lo[j], hi[i] * hi[j], True, True


def pair_ledger(rs: RootSystem, low: WeightTuple, high: WeightTuple) -> list[LedgerRow]:
    """All ledger rows for a k = 2 pair, in _ledger_rows's layout."""
    _require_k2("pair_ledger", low.k, high.k)
    return [LedgerRow(*row) for row in
            _ledger_rows(rs, _two_factor(rs, low), _two_factor(rs, high))]


def grand_product_identity(rs: RootSystem, x: WeightTuple) -> tuple[int, int]:
    """(product of all brackets of x's parts, tensor_dim times the rho
    product to the k-th power): equal, returned unreduced."""
    total = 1
    for p in x.parts:
        total *= math.prod(_brackets(rs, p))
    return total, tensor_dim(rs, x) * rs.rho_product ** len(x.parts)


# -- sweep verifiers ---------------------------------------------------------

def member_dims(poset: TuplePoset, rs: RootSystem) -> list[list[int]]:
    """Per class, the dimension product of each part multiset, in the
    class's multiset order: the representative first."""
    table = rs.part_dims
    out = []
    for cls in poset.classes:
        dims = []
        for ms in cls.multisets:
            d = 1
            for p in ms:
                d *= table.get(p) or _part_dim(rs, p)
            dims.append(d)
        out.append(dims)
    return out


def verify_monotone_k2(poset: TuplePoset, rs: RootSystem) -> list[dict]:
    """Strictly smaller class in the window order means strictly smaller
    dimension, checked on cover edges: every strict pair is a chain of
    covers.  A k = 2 class is one part multiset, so one product."""
    _require_k2("verify_monotone_k2", poset.k)
    members = member_dims(poset, rs)
    violations = []
    for a, b in poset.hasse_edges:
        low, high = members[a][0], members[b][0]
        if not low < high:
            labels = poset.labels  # formatted only to word a violation
            violations.append(
                {"item": f"dim({labels[a]}) = {low} !< dim({labels[b]}) = {high}",
                 "kind": "monotone"})
    return violations


def verify_coroot_inequalities_k2(poset: TuplePoset,
                                  rs: RootSystem) -> list[dict]:
    """Across every cover edge of the k = 2 quotient no guaranteed ledger
    row loses, and grand_product_identity holds for every representative;
    each class's two-factor vector is computed once."""
    _require_k2("verify_coroot_inequalities_k2", poset.k)
    vecs = []
    violations = []
    for c, cls in enumerate(poset.classes):
        vecs.append(_two_factor(rs, cls.rep))
        lhs, rhs = grand_product_identity(rs, cls.rep)
        if lhs != rhs:
            violations.append(
                {"item": f"product identity at {poset.labels[c]}",
                 "kind": "identity", "lhs": lhs, "rhs": rhs})
    for a, b in poset.hasse_edges:
        for label, low, high, guaranteed, _ in _ledger_rows(rs, vecs[a],
                                                            vecs[b]):
            if guaranteed and low > high:
                labels = poset.labels
                violations.append(
                    {"item": f"{labels[a]} -> {labels[b]} : {label}",
                     "kind": "ledger_row", "low": low, "high": high})
    return violations


def verify_max_dim(poset: TuplePoset, rs: RootSystem) -> list[dict]:
    """The top class's representative holds the strict dimension maximum
    of the whole fiber.  Every part multiset is checked: outside type A,
    members of one class can differ in dimension at k >= 3."""
    top = poset.top_index
    violations = []
    if poset.closed_form_top_index != top:
        violations.append(
            {"item": "closed-form top representative lands off the top class",
             "kind": "top_class"})
    members = member_dims(poset, rs)
    top_dim = members[top][0]
    for c, (cls, (dim, *rest)) in enumerate(zip(poset.classes, members)):
        if c != top and not dim < top_dim:
            violations.append(
                {"item": f"dim({poset.labels[c]}) = {dim} !< top {top_dim}",
                 "kind": "max_dim"})
        for ms, d in zip(cls.multisets[1:], rest):
            if not d < top_dim:
                violations.append(
                    {"item": f"dim({WeightTuple(tuple(map(Weight, ms)))}) = "
                             f"{d} !< top {top_dim}",
                     "kind": "max_dim_member"})
    return violations
