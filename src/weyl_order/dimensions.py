"""Dimension products over positive coroots, and their monotonicity.

``weyl_dim`` evaluates the classical product formula in exact integer
arithmetic: shift by the all-ones weight, take the product of pairings
against every positive coroot, divide by the same product at the shift
alone.  ``tensor_dim`` multiplies part dimensions of an embedded tuple.

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
``RootSystem.rho_product``.
The verifiers label classes with ``TuplePoset.labels``, formatted once
per poset.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

from .posets import TuplePoset, maximal_element
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
    num = den = 1
    for h in w.system.coroots:
        num *= bracket(w, h)
        den *= rho_value(h)
    if num % den:
        raise ArithmeticError(f"product formula for {w} does not divide exactly")
    return num // den


def tensor_dim(rs: RootSystem, x: WeightTuple) -> int:
    """Product of the part dimensions after embedding into rs.

    Part dimensions come from rs.part_dims, keyed by omega tuple, and
    weyl_dim fills a miss.  A wrong-rank part never hits, so iota still
    rejects it.
    """
    dims = rs.part_dims
    out = 1
    for p in x.parts:
        d = dims.get(p.omega)
        if d is None:
            d = dims[p.omega] = weyl_dim(iota(p, rs))
        out *= d
    return out


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

    def as_dict(self) -> dict:
        return {"label": self.label, "low": self.low, "high": self.high,
                "guaranteed": self.guaranteed, "in_product": self.in_product,
                "ok": self.ok}


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


def pair_ledger(rs: RootSystem, low: WeightTuple, high: WeightTuple) -> list[LedgerRow]:
    """All ledger rows for a k = 2 pair, in coroot order then grouped rows.

    Labels and flags come from rs.ledger_plan, brackets from
    rs.part_brackets; a grouped row multiplies two coroots' two-factor
    products.
    """
    if low.k != 2 or high.k != 2:
        raise ValueError("the coroot ledger is defined for k = 2 tuples")
    lo, hi = _two_factor(rs, low), _two_factor(rs, high)
    coroot_rows, grouped_rows = rs.ledger_plan
    rows = [LedgerRow(label, lv, hv, guaranteed, in_product)
            for (label, guaranteed, in_product), lv, hv
            in zip(coroot_rows, lo, hi)]
    rows += [LedgerRow(label, lo[i] * lo[j], hi[i] * hi[j], True, True)
             for label, i, j in grouped_rows]
    return rows


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


# -- sweep reports -----------------------------------------------------------

@dataclass
class DimensionReport:
    check: str
    system: str
    lam: tuple[int, ...]
    k: int
    details: list = field(default_factory=list)
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {"check": self.check, "system": self.system,
                "lambda": list(self.lam), "k": self.k, "ok": self.ok,
                "details": self.details, "violations": self.violations}


def verify_monotone_k2(poset: TuplePoset, rs: RootSystem) -> DimensionReport:
    """Strictly smaller class in the window order means strictly smaller dim.

    Checked on cover edges, one detail row each; every strict pair is a
    chain of covers, so that is enough.  Also confirms every member of a
    class shares the representative's dimension product, checking one
    sorted tuple per part multiset: reordering parts never changes a
    product of part dimensions.
    """
    report = DimensionReport("monotone_k2", rs.name, poset.lam.omega, poset.k)
    dims = [tensor_dim(rs, cls.rep) for cls in poset.classes]
    labels = poset.labels
    for c, cls in enumerate(poset.classes):
        for ms in cls.multisets:
            member = WeightTuple(tuple(Weight(p) for p in ms))
            if tensor_dim(rs, member) != dims[c]:
                report.violations.append(
                    {"item": f"class {c} member {member}", "kind": "class_dim"})
    for a, b in poset.hasse_edges:
        ok = dims[a] < dims[b]
        report.details.append(
            {"item": f"{labels[a]} < {labels[b]}",
             "low_dim": dims[a], "high_dim": dims[b], "ok": ok})
        if not ok:
            report.violations.append(
                {"item": f"dim({labels[a]}) = {dims[a]} !< "
                         f"dim({labels[b]}) = {dims[b]}",
                 "kind": "monotone"})
    return report


def verify_coroot_inequalities_k2(poset: TuplePoset,
                                  rs: RootSystem) -> DimensionReport:
    """Ledger rows across every cover edge of the k = 2 quotient.

    Guaranteed rows must not lose; the grand bracket product must equal
    the dimension product times the squared rho product for every
    representative.
    """
    report = DimensionReport("coroot_ledger_k2", rs.name, poset.lam.omega,
                             poset.k)
    labels = poset.labels
    for cls, label in zip(poset.classes, labels):
        lhs, rhs = grand_product_identity(rs, cls.rep)
        if lhs != rhs:
            report.violations.append(
                {"item": f"product identity at {label}", "kind": "identity",
                 "lhs": lhs, "rhs": rhs})
    for a, b in poset.hasse_edges:
        edge = f"{labels[a]} -> {labels[b]} : "
        for row in pair_ledger(rs, poset.classes[a].rep, poset.classes[b].rep):
            entry = row.as_dict()
            entry["item"] = edge + row.label
            report.details.append(entry)
            if not row.ok:
                report.violations.append(
                    {"item": entry["item"], "kind": "ledger_row",
                     "low": row.low, "high": row.high})
    return report


def verify_max_dim(poset: TuplePoset, rs: RootSystem) -> DimensionReport:
    """The top class holds the strict dimension maximum of the whole fiber."""
    report = DimensionReport("max_dim", rs.name, poset.lam.omega, poset.k)
    top = poset.top_index
    labels = poset.labels
    if poset.class_of(maximal_element(poset.lam, poset.k)) != top:
        report.violations.append(
            {"item": "closed-form top representative lands off the top class",
             "kind": "top_class"})
    top_dim = tensor_dim(rs, poset.classes[top].rep)
    report.details.append({"item": f"top {labels[top]}",
                           "dim": top_dim, "ok": True})
    for c, cls in enumerate(poset.classes):
        if c == top:
            continue
        d = tensor_dim(rs, cls.rep)
        ok = d < top_dim
        report.details.append({"item": labels[c], "dim": d, "ok": ok})
        if not ok:
            report.violations.append(
                {"item": f"dim({labels[c]}) = {d} !< top {top_dim}",
                 "kind": "max_dim"})
    return report
