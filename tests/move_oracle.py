"""Reference k = 2 covers from the two move kinds, not from the order.

At k = 2 a cover of the class of (lam1, lam2), taken in canonical order,
is one of two moves:

- a chunk c from the padded S_{n+1} orbit of a fundamental weight omega_i
  moves between the parts: (lam1 - c, lam2 + c) or (lam1 + c, lam2 - c);
- in the frame of a sorter sigma of the padded epsilon vector of
  lam1 - lam2, the new first part takes each fundamental coordinate from
  one of the two old parts (2^n mixes), the second part the rest.

Candidates with both parts dominant are the class's move targets, and
its covers are the minimal targets strictly above it.  The order is only
consulted to compare the targets, so this route shares nothing with the
rank masks and the cover walk behind ``TuplePoset.hasse_edges``.
"""

import itertools

from weyl_order import OrderVerdict, Permutation, Weight, WeightTuple

from weight_actions import act, canonical_form, inverse, permute


def _permutations(degree):
    return [Permutation(images)
            for images in itertools.permutations(range(degree))]


def fundamental_orbits(rank):
    """Every weight in the padded S_{n+1} orbit of some omega_i."""
    perms = _permutations(rank + 1)
    return {act(rho, Weight.fundamental(i, rank))
            for i in range(1, rank + 1) for rho in perms}


def sorters(values):
    """Every permutation arranging values weakly decreasing."""
    return [sigma for sigma in _permutations(len(values))
            if list(permute(sigma, values)) == sorted(values, reverse=True)]


def move_targets(low, chunks):
    """Upper pairs (mu1, mu2) reached from low by one move, dominant only."""
    lam1, lam2 = canonical_form(low).parts
    total = lam1 + lam2
    firsts = set()
    for c in chunks:
        firsts.add(lam1 - c)
        firsts.add(lam1 + c)
    for sigma in sorters((lam1 - lam2).eps_padded()):
        s1, s2 = act(sigma, lam1).omega, act(sigma, lam2).omega
        inv = inverse(sigma)
        for mix in itertools.product((0, 1), repeat=lam1.rank):
            mixed = Weight(tuple((s1, s2)[src][t] for t, src in enumerate(mix)))
            firsts.add(act(inv, mixed))
    pairs = ((mu1, total - mu1) for mu1 in firsts)
    return [WeightTuple(pair) for pair in pairs
            if pair[0].is_dominant and pair[1].is_dominant]


def covers_by_moves(poset):
    """The (low, high) class pairs of minimal move targets above low."""
    chunks = fundamental_orbits(poset.lam.rank)
    edges = set()
    for a, cls in enumerate(poset.classes):
        targets = {poset.class_of(x) for x in move_targets(cls.rep, chunks)}
        up = {t for t in targets if poset.verdict(a, t) is OrderVerdict.LESS}
        edges |= {(a, t) for t in up
                  if not any(poset.verdict(s, t) is OrderVerdict.LESS
                             for s in up)}
    return edges
