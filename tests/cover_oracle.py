"""Reference cover classifier: the witness search the direct route replaces.

``weyl_order.posets.classify_cover`` reads both witnesses off the
weights.  This fixture keeps the search those formulas stand for: the
first kind tries every fundamental index i with both readings, the
second kind walks all 2^n coordinate mixes in product order.  It shares
the witness type with the package, so the two routes must agree on every
field.  The sorter coset is built here the eager way: every stabilizer
arrangement composed with the stable sorting permutation, then sorted by
images, where the package keeps only the first sorter.
``first_kind_by_sorters`` keeps the sorter-major first-kind walk in
tuple form, which the package replaces with the gap rule and a built
forward sorter; ``mix_by_steps`` keeps the tuple form of the second-kind
test, which the package runs on packed integers.
"""

import itertools

from weyl_order import CoverKind, CoverWitness, Permutation, Weight, WeightTuple

from weight_actions import (act, canonical_form, compose, inverse, permute,
                            sorting_permutation)


def sorting_coset_by_stabilizer(values):
    """All permutations arranging values weakly decreasing, identity-first."""
    sigma = sorting_permutation(values)
    sorted_vals = permute(sigma, values)
    blocks = []
    t = 0
    while t < len(sorted_vals):
        u = t
        while u < len(sorted_vals) and sorted_vals[u] == sorted_vals[t]:
            u += 1
        blocks.append(list(range(t, u)))
        t = u
    coset = set()
    for arrangement in itertools.product(*(itertools.permutations(b) for b in blocks)):
        stab_images = [0] * len(values)
        for block, arr in zip(blocks, arrangement):
            for src, dst in zip(block, arr):
                stab_images[src] = dst
        coset.add(compose(Permutation(tuple(stab_images)), sigma))
    return sorted(coset, key=lambda p: p.images)


def _steps(xs):
    """Consecutive differences xs[t] - xs[t + 1]: the omega coordinates
    of a padded epsilon vector laid out in some frame."""
    return [x - y for x, y in zip(xs, xs[1:])]


def mix_by_steps(e1, e2, f, q):
    """The second-kind test on value tuples: lay e1, e2 and f out in the
    sorted frame of the sorter with inverse q (slot t holds x[q[t]]), take
    their steps, and give the mix (1 where f's step equals e1's, else 2
    where it equals e2's), or None when some step of f equals neither."""
    def sort(xs):
        return [xs[t] for t in q]
    c, s1, s2 = _steps(sort(f)), _steps(sort(e1)), _steps(sort(e2))
    if all(x in (y, z) for x, y, z in zip(c, s1, s2)):
        return tuple(1 if x == y else 2 for x, y in zip(c, s1))
    return None


def first_kind_by_sorters(e1, e2, frames, coset):
    """The first-kind decision by the sorter-major walk, on value tuples:
    for each sorter of coset (``sorting_coset_by_stabilizer`` of e1 - e2,
    e1 >= e2 the lower pair's padded epsilon tuples), then each frame
    (mu1, mu2, f) of the upper pair, f mu1's padded epsilon tuple, the
    chunk c = e1 - f must take two values a step apart; with R its raised
    slots, i = |R| and q the sorter's inverse, it reads "inverse" when R =
    {q[t] : t < i}, else "forward" when R = {sigma(t) : t < i} with a =
    q[i - 1] in R and b = q[i] not, and it witnesses when f[a] - e2[a] >
    f[b] - e2[b].  Gives (images, (mu1, mu2), i, reading) of the first
    witness, or None.  The package decides the same from the gap in
    sorted e1 - e2 and builds the forward sorter instead."""
    for sigma in coset:
        images = sigma.images
        q = inverse(sigma).images
        for mu1, mu2, f in frames:
            c = [x - y for x, y in zip(e1, f)]
            if max(c) - min(c) != 1:
                continue
            raised = {s for s, v in enumerate(c) if v == max(c)}
            i = len(raised)
            a, b = q[i - 1], q[i]
            if raised == set(q[:i]):
                reading = "inverse"
            elif a in raised and b not in raised and raised == set(images[:i]):
                reading = "forward"
            else:
                continue
            if f[a] - e2[a] > f[b] - e2[b]:
                return images, (mu1, mu2), i, reading
    return None


def _fundamental_chunk_witness(lam1, lam2, mu1, mu2, sigma):
    n = lam1.rank
    for i in range(1, n + 1):
        drop = act(sigma, lam1 - mu1)
        keep = act(sigma, mu1 - lam2)
        if drop.omega[i - 1] <= 0 or keep.omega[i - 1] <= 0:
            continue
        for reading, rho in (("inverse", inverse(sigma)), ("forward", sigma)):
            if mu1 == lam1 - act(rho, Weight.fundamental(i, n)):
                return CoverWitness(sigma=sigma, orientation=(mu1, mu2),
                                    index=i, reading=reading)
    return None


def _coordinate_mix_witness(lam1, lam2, mu1, mu2, sigma):
    n = lam1.rank
    s1, s2 = act(sigma, lam1), act(sigma, lam2)
    inv = inverse(sigma)
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
    coset = sorting_coset_by_stabilizer(padded)
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
