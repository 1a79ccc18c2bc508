"""Reference ledger: the per-call route the per-system tables replace.

``dimensions.pair_ledger`` reads each system's ``ledger_plan`` (labels,
flags and grouped-row indices) and ``part_brackets`` (each part's
shifted pairings against every coroot).  This fixture keeps the route
those stand for: embed the four parts, group the coroots, and evaluate
every bracket and label afresh on each call.  ``grand_product_identity``
is kept the same way: it embeds every part and recomputes every bracket
and the rho product on each call, where the library reads the bracket
table and ``RootSystem.rho_product``.

``coroot_ledger_rows``, ``monotone_rows`` and ``max_dim_rows`` rebuild
the violations of the three dimension verifiers eagerly, one detail row
per ledger row, cover or tuple beside them, in one loop each: every
ledger through ``pair_ledger`` above, every dimension through
``WeightTuple`` and ``tensor_dim``, every class label formatted per row
as str(rep) and the closed-form top looked up per call.  The library
compares per-class integer vectors, reports violations only and caches
the closed-form top on the poset.
"""

from weyl_order import (Coroot, LedgerRow, RootSystem, Weight, WeightTuple,
                        bracket, group_coroots, iota, maximal_element,
                        rho_value, tensor_dim)


def pair_ledger(rs: RootSystem, low: WeightTuple, high: WeightTuple) -> list[LedgerRow]:
    """All ledger rows for a k = 2 pair, in coroot order then grouped rows."""
    if low.k != 2 or high.k != 2:
        raise ValueError("the coroot ledger is defined for k = 2 tuples")
    lo = [iota(p, rs) for p in low.parts]
    hi = [iota(p, rs) for p in high.parts]

    def two_factor(h: Coroot) -> tuple[int, int]:
        return (bracket(lo[0], h) * bracket(lo[1], h),
                bracket(hi[0], h) * bracket(hi[1], h))

    solos, grouped = group_coroots(rs)
    solo_set = {h.coeffs for h in solos}
    rows = []
    for h in rs.coroots:
        lv, hv = two_factor(h)
        # intervals and partner-less doubled coroots stay weakly monotone on
        # their own; a partnered doubled coroot is covered only jointly
        alone_ok = h.height == 1 or h.window_partner_coeffs() is None
        rows.append(LedgerRow(label=str(h), low=lv, high=hv,
                              guaranteed=alone_ok,
                              in_product=h.coeffs in solo_set))
    for partner, h in grouped:
        pl, ph = two_factor(partner)
        dl, dh = two_factor(h)
        rows.append(LedgerRow(label=f"{partner} & {h}", low=pl * dl,
                              high=ph * dh, guaranteed=True, in_product=True))
    return rows


def coroot_ledger_rows(poset, rs: RootSystem):
    """(details, ledger violations) of verify_coroot_inequalities_k2, rebuilt
    from this ledger with the item text formatted per row."""
    details, violations = [], []
    for a, b in poset.hasse_edges:
        low, high = poset.classes[a].rep, poset.classes[b].rep
        for row in pair_ledger(rs, low, high):
            entry = {"item": f"{low} -> {high} : {row.label}",
                     "label": row.label, "low": row.low, "high": row.high,
                     "guaranteed": row.guaranteed,
                     "in_product": row.in_product, "ok": row.ok}
            details.append(entry)
            if not row.ok:
                violations.append({"item": entry["item"], "kind": "ledger_row",
                                   "low": row.low, "high": row.high})
    return details, violations


def monotone_rows(poset, rs: RootSystem):
    """(details, violations) of verify_monotone_k2, built in one pass."""
    details, violations = [], []
    dims = [tensor_dim(rs, cls.rep) for cls in poset.classes]
    for c, cls in enumerate(poset.classes):
        for ms in cls.multisets:
            member = WeightTuple(tuple(Weight(p) for p in ms))
            if tensor_dim(rs, member) != dims[c]:
                violations.append(
                    {"item": f"class {c} member {member}", "kind": "class_dim"})
    for a, b in poset.hasse_edges:
        low, high = poset.classes[a].rep, poset.classes[b].rep
        ok = dims[a] < dims[b]
        details.append({"item": f"{low} < {high}",
                        "low_dim": dims[a], "high_dim": dims[b], "ok": ok})
        if not ok:
            violations.append(
                {"item": f"dim({low}) = {dims[a]} !< dim({high}) = {dims[b]}",
                 "kind": "monotone"})
    return details, violations


def max_dim_rows(poset, rs: RootSystem):
    """(details, violations) of verify_max_dim, built in one pass over
    every part multiset of every class."""
    details, violations = [], []
    top = poset.top_index
    if poset.class_of(maximal_element(poset.lam, poset.k)) != top:
        violations.append(
            {"item": "closed-form top representative lands off the top class",
             "kind": "top_class"})
    top_dim = tensor_dim(rs, poset.classes[top].rep)
    details.append({"item": f"top {poset.classes[top].rep}",
                    "dim": top_dim, "ok": True})
    for c, cls in enumerate(poset.classes):
        for ms in cls.multisets:
            member = WeightTuple(tuple(Weight(p) for p in ms))
            if member == cls.rep and c == top:
                continue
            d = tensor_dim(rs, member)
            ok = d < top_dim
            details.append({"item": str(member), "dim": d, "ok": ok})
            if not ok:
                violations.append(
                    {"item": f"dim({member}) = {d} !< top {top_dim}",
                     "kind": "max_dim" if member == cls.rep else "max_dim_member"})
    return details, violations


def grand_product_identity(rs: RootSystem, x: WeightTuple) -> tuple[int, int]:
    """(product of all two-factor brackets, tensor_dim times rho-product squared).

    The two sides agree exactly; returned unreduced so callers can assert it.
    """
    lo = [iota(p, rs) for p in x.parts]
    total = 1
    for h in rs.coroots:
        for e in lo:
            total *= bracket(e, h)
    rp = 1
    for h in rs.coroots:
        rp *= rho_value(h)
    return total, tensor_dim(rs, x) * rp ** len(x.parts)
