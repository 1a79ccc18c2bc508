"""Reference cover classifier: the witness search the direct route replaces.

``weyl_order.posets.classify_cover`` reads both witnesses off the
weights.  This fixture keeps the search those formulas stand for: the
first kind tries every fundamental index i with both readings, the
second kind walks all 2^n coordinate mixes in product order.  It shares
the sorter coset and the witness type with the package, so the two
routes must agree on every field.
"""

import itertools

from weyl_order import CoverKind, CoverWitness, Weight, WeightTuple, act, canonical_form
from weyl_order.posets import _sorting_coset


def _fundamental_chunk_witness(lam1, lam2, mu1, mu2, sigma):
    n = lam1.rank
    for i in range(1, n + 1):
        drop = act(sigma, lam1 - mu1)
        keep = act(sigma, mu1 - lam2)
        if drop.omega[i - 1] <= 0 or keep.omega[i - 1] <= 0:
            continue
        for reading, rho in (("inverse", sigma.inverse()), ("forward", sigma)):
            if mu1 == lam1 - act(rho, Weight.fundamental(i, n)):
                return CoverWitness(sigma=sigma, orientation=(mu1, mu2),
                                    index=i, reading=reading)
    return None


def _coordinate_mix_witness(lam1, lam2, mu1, mu2, sigma):
    n = lam1.rank
    s1, s2 = act(sigma, lam1), act(sigma, lam2)
    inv = sigma.inverse()
    for mix in itertools.product((1, 2), repeat=n):
        mixed = Weight(tuple((s1 if src == 1 else s2).omega[i]
                             for i, src in enumerate(mix)))
        if mu1 == act(inv, mixed):
            return CoverWitness(sigma=sigma, orientation=(mu1, mu2), mix=mix)
    return None


def classify_cover_by_search(low: WeightTuple, high: WeightTuple):
    """Same contract as ``classify_cover``, found by exhaustive search."""
    if low.k != 2 or high.k != 2:
        return CoverKind.UNCLASSIFIED, None
    lam1, lam2 = canonical_form(low).parts
    padded = (lam1 - lam2).eps_padded()
    orientations = [(high.parts[0], high.parts[1]),
                    (high.parts[1], high.parts[0])]
    if high.parts[0] == high.parts[1]:
        orientations = orientations[:1]
    coset = _sorting_coset(padded)
    for sigma in coset:
        for mu1, mu2 in orientations:
            w = _fundamental_chunk_witness(lam1, lam2, mu1, mu2, sigma)
            if w is not None:
                return CoverKind.TYPE_I, w
    for sigma in coset:
        for mu1, mu2 in orientations:
            w = _coordinate_mix_witness(lam1, lam2, mu1, mu2, sigma)
            if w is not None:
                return CoverKind.TYPE_II, w
    return CoverKind.UNCLASSIFIED, None
