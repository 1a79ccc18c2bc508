"""Reference order and Hasse reduction: the pairwise route the masks replace.

``TuplePoset._below`` builds the strict order from per-coordinate "at
most" masks, ``TuplePoset.cover_rows`` finds the covers by a walk over
them, and ``TuplePoset.top_index`` reads the maximal classes off the OR
of all of them.  This fixture keeps the quadratic route those stand for:
one ``verdict`` per unordered pair of classes, filling both the below
and the above masks, then every strict pair tested for a class strictly
between.  ``strict_pairs`` walks every strict pair of the masks, the
route the sweep checks took before they walked covers.
"""

from weyl_order import OrderVerdict


def strict_masks_pairwise(poset):
    """(below, above): below[c] has bit d set when class d < class c."""
    m = len(poset.classes)
    below = [0] * m
    above = [0] * m
    for a in range(m):
        for b in range(a + 1, m):
            v = poset.verdict(a, b)
            if v is OrderVerdict.LESS:
                below[b] |= 1 << a
                above[a] |= 1 << b
            elif v is OrderVerdict.GREATER:
                below[a] |= 1 << b
                above[b] |= 1 << a
    return below, above


def hasse_edges_pairwise(poset):
    """(low, high) pairs with nothing strictly between, in (a, b) order."""
    below, above = strict_masks_pairwise(poset)
    pairs = []
    for a, mask in enumerate(above):
        while mask:
            low = mask & -mask
            pairs.append((a, low.bit_length() - 1))
            mask ^= low
    return tuple((a, b) for a, b in pairs if above[a] & below[b] == 0)


def strict_pairs(poset):
    """Each (a, b) with class a below class b, in (a, b) order; a < b."""
    pairs = []
    for b, mask in enumerate(poset._below):
        while mask:
            low = mask & -mask
            pairs.append((low.bit_length() - 1, b))
            mask ^= low
    return sorted(pairs)
