"""Reference routes for ``build_poset``: the window-by-window stat
vector, the ordered-tuple grouping the multiset walk replaces, and the
full scan the output-sensitive walk replaces.

``stat_vector_by_windows`` scores a tuple one window at a time through
``Weight.window``, with no prefix sums and none of the library's stat
helpers, which ``WeightTuple.stat_vector`` and ``build_poset`` share.
``build_poset`` walks part multisets and never orders the parts.
``classes_by_enumeration`` keeps the grouping it stands for: every
ordered tuple from ``enumerate_tuples``, one reference stat vector each,
then the sort, with the largest member of each class as its
representative.
``part_multisets_by_scan`` is the multiset walk before the band cut and
the box step: every part at or after the previous one is tried at every
level, and only a negative remainder cuts a branch.
"""

import itertools

from weyl_order import Weight, enumerate_tuples, windows
from weyl_order.posets import _tuple_sort_key


def stat_vector_by_windows(x):
    """r_{(i,j),ell} for every window (i, j) and ell = 1..k, in
    ``stat_labels`` order: the sum of the ell smallest part values
    ``Weight.window(i, j)``."""
    out = []
    for i, j in windows(x.rank):
        vals = sorted(x.window_values(i, j))
        acc = 0
        for ell in range(x.k):
            acc += vals[ell]
            out.append(acc)
    return tuple(out)


def classes_by_enumeration(lam, k):
    """(stat_vector, rep, members) per class, in stat-vector order."""
    by_stats = {}
    for tup in enumerate_tuples(lam, k):
        by_stats.setdefault(stat_vector_by_windows(tup), []).append(tup)
    classes = []
    for sv in sorted(by_stats):
        members = tuple(sorted(by_stats[sv], key=_tuple_sort_key))
        classes.append((sv, members[-1], members))
    return classes


def part_multisets_by_scan(lam: tuple[int, ...], k: int):
    """Yield each multiset of k dominant parts summing to lam, once.

    A multiset is a tuple of omega tuples weakly decreasing in epsilon-lex
    order, and they come in descending ``_tuple_sort_key`` order.  The
    parts are the dominant omega tuples <= lam coordinatewise, listed by
    descending epsilon-lex key; each part sits no earlier in that list
    than the one before it, a branch whose remainder goes negative is
    cut, and the last part is the remainder itself.
    """
    parts = sorted(itertools.product(*(range(m + 1) for m in lam)),
                   key=lambda p: Weight(p).eps(), reverse=True)
    position = {p: i for i, p in enumerate(parts)}

    def walk(start, rest, left, prefix):
        if left == 1:
            if position[rest] >= start:
                yield prefix + (rest,)
            return
        for i in range(start, len(parts)):
            p = parts[i]
            after = tuple(r - c for r, c in zip(rest, p))
            if min(after) >= 0:
                yield from walk(i, after, left - 1, prefix + (p,))
    return walk(0, tuple(lam), k, ())
