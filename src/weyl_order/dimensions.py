"""Dimension products over positive coroots, and their monotonicity.

``weyl_dim`` evaluates the classical product formula in exact integer
arithmetic: shift by the all-ones weight, take the product of pairings
against every positive coroot, divide by the same product at the shift
alone, cached as ``RootSystem.rho_product``.  ``tensor_dim`` multiplies
part dimensions of an embedded tuple.

For k = 2 the module also builds a per-coroot ledger comparing two
tuples X below Y in the window order.  Each coroot contributes the
two-factor product of its shifted pairings against the parts.  Interval
(height-one) coroots always move weakly upward along the order; a
height-two coroot can move down on its own, but the four-factor product
with its window partner recovers the inequality.  ``four_factor_rebalance``
is the exact integer fact behind that recovery step.  ``pair_ledger``
reads two exact per-system tables: ``RootSystem.ledger_plan`` (row
labels, flags and grouped-row indices) and ``RootSystem.part_brackets``
(each part's shifted pairings against every coroot, filled on a miss);
``grand_product_identity`` reads the same bracket table and the cached
``RootSystem.rho_product``.  ``pair_ledger`` and the two ``*_k2``
verifiers refuse any other k through one check.

The three verifiers work on per-class integers and return their
violations, a list of dicts, empty when the claim holds.
``member_dims`` gives each class's dimension products, one per part
multiset, read from ``RootSystem.part_dims``; a k = 2 class has one.
The ledger verifier computes each class's two-factor vector once,
compares integers per cover edge, and checks each representative
through ``grand_product_identity``, the one route for that identity.
Class labels (``TuplePoset.labels``, formatted once per poset) and any
``WeightTuple`` are read only to word a violation, so a clean check
formats no text.  ``verify_max_dim`` reads the closed-form top's class
off the poset, where it is cached.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .posets import TuplePoset
from .roots import (Coroot, EmbeddedWeight, RootSystem, iota, pairing,
                    rho_value)
from .tuples import WeightTuple
from .weights import Weight


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
    """Product of the part dimensions after embedding into rs.

    Part dimensions come from rs.part_dims, keyed by omega tuple, and
    weyl_dim fills a miss.  A wrong-rank part never hits, so iota still
    rejects it.
    """
    return math.prod(_part_dim(rs, p.omega) for p in x.parts)


def _part_dim(rs: RootSystem, omega: tuple[int, ...]) -> int:
    """weyl_dim of the part with this omega tuple, through rs.part_dims."""
    d = rs.part_dims.get(omega)
    if d is None:
        d = rs.part_dims[omega] = weyl_dim(iota(Weight(omega), rs))
    return d


# -- exact rebalancing facts ------------------------------------------------

def rebalance_gain(x: int, y: int) -> int:
    """(x+1)(y-1) - xy = y - x - 1.

    Nonnegative whenever 0 < x < y, zero exactly when y = x + 1: pushing
    an unbalanced positive pair toward the middle never shrinks the
    product.
    """
    return (x + 1) * (y - 1) - x * y


class RebalanceVerdict(enum.Enum):
    HOLDS_STRICT = "holds_strict"
    HOLDS_EQUAL = "holds_equal"
    NOT_APPLICABLE = "not_applicable"
    FAILS = "fails"


def four_factor_rebalance(a: int, b: int, c: int, d: int) -> RebalanceVerdict:
    """Exact verdict on a*b*c*d <= (a+1)(b-1)(c-1)(d+1).

    Applicable to positive integers with a < b < d, a < c < d and
    b - a >= d - c + 2; outside that premise the verdict is
    NOT_APPLICABLE.  Within it the comparison is evaluated literally,
    FAILS being reported if the inequality ever loses.
    """
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


@dataclass(frozen=True)
class LedgerRow:
    """One inequality row comparing a low tuple against a high one.

    guaranteed: the row is asserted by the monotonicity argument.
    in_product: the row is a factor of the grand product decomposition
    (guaranteed solo rows plus grouped rows); partnered coroots appear
    solo only informationally.
    """

    label: str
    low: int
    high: int
    guaranteed: bool
    in_product: bool

    @property
    def ok(self) -> bool:
        return (not self.guaranteed) or self.low <= self.high


def _brackets(rs: RootSystem, p: Weight) -> tuple[int, ...]:
    """bracket(iota(p, rs), h) for every coroot h, in coroot order.

    Read from rs.part_brackets, keyed by omega tuple; a miss embeds the
    part, so a wrong-rank part still raises in iota.
    """
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
    """All ledger rows for a k = 2 pair, in coroot order then grouped rows.

    Labels and flags come from rs.ledger_plan, brackets from
    rs.part_brackets, the layout from _ledger_rows.
    """
    _require_k2("pair_ledger", low.k, high.k)
    return [LedgerRow(*row) for row in
            _ledger_rows(rs, _two_factor(rs, low), _two_factor(rs, high))]


def grand_product_identity(rs: RootSystem, x: WeightTuple) -> tuple[int, int]:
    """(product of all two-factor brackets, tensor_dim times rho-product squared).

    The two sides agree exactly; returned unreduced so callers can assert it.
    Brackets come from rs.part_brackets and the rho product from
    rs.rho_product.
    """
    total = 1
    for p in x.parts:
        total *= math.prod(_brackets(rs, p))
    return total, tensor_dim(rs, x) * rs.rho_product ** len(x.parts)


# -- sweep verifiers ---------------------------------------------------------

def member_dims(poset: TuplePoset, rs: RootSystem) -> list[list[int]]:
    """Per class, the dimension product of each part multiset, in the
    class's multiset order: the representative first.

    Part dimensions are read from rs.part_dims by omega tuple, the table
    tensor_dim reads.
    """
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
    """Strictly smaller class in the window order means strictly smaller dim.

    Checked on cover edges; every strict pair is a chain of covers, so
    that is enough.  A k = 2 class is one part multiset, so its one
    product is the class's dimension.
    """
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
    """Ledger rows across every cover edge of the k = 2 quotient.

    Guaranteed rows must not lose; grand_product_identity must hold for
    every representative.  Each class's two-factor vector is computed
    once; every edge then compares integers on the guaranteed rows of
    _ledger_rows, pair_ledger's layout.
    """
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
    of the whole fiber.

    Every part multiset is checked, not only class representatives:
    outside type A, members of one class can differ in dimension at
    k >= 3.  The closed-form top's class is read from the poset, looked
    up once per poset rather than once per root system.
    """
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
