"""Reference routes for ``build_poset`` and ``enumerate_tuples``: the
window-by-window stat vector, the ordered-tuple grouping the multiset
walk replaces, the full scan the output-sensitive walk replaces, and the
recursive compositions that stars and bars replaces.

``stat_vector_by_windows`` scores a tuple one window at a time through
``weight_actions.window_values``, with no prefix sums and none of the
library's stat helpers, which ``WeightTuple.stat_vector`` and
``build_poset`` share.
``build_poset`` walks part multisets and never orders the parts.
``classes_by_enumeration`` keeps the grouping it stands for: every
ordered tuple from ``enumerate_tuples``, one reference stat vector each,
then the sort, with the largest member of each class as its
representative.
``part_multisets_by_scan`` is the multiset walk before the band cut and
the box step: every part at or after the previous one is tried at every
level, and only a negative remainder cuts a branch.
``members`` expands a class's part multisets into its ordered tuples,
sorted by ``tuple_sort_key``, the parts' epsilon tuples: the library
keeps the multisets alone.
"""

import itertools

from weyl_order import Weight, WeightTuple, enumerate_tuples, windows

from weight_actions import window_values


def tuple_sort_key(x):
    """A tuple's parts' epsilon tuples: build_poset walks the multisets
    in descending order of this key."""
    return tuple(p.eps() for p in x.parts)


def members(cls):
    """Every ordered tuple of an ``EquivClass``, in ``tuple_sort_key``
    order: each distinct ordering of each of its part multisets."""
    orderings = {order for ms in cls.multisets
                 for order in itertools.permutations(ms)}
    return tuple(sorted((WeightTuple(tuple(map(Weight, order)))
                         for order in orderings), key=tuple_sort_key))


def stat_vector_by_windows(x):
    """r_{(i,j),ell} for every window (i, j) and ell = 1..k, in
    ``stat_labels`` order: the sum of the ell smallest part values
    ``weight_actions.window(part, i, j)``."""
    out = []
    for i, j in windows(x.rank):
        vals = sorted(window_values(x, i, j))
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
        members = tuple(sorted(by_stats[sv], key=tuple_sort_key))
        classes.append((sv, members[-1], members))
    return classes


def part_multisets_by_scan(lam: tuple[int, ...], k: int):
    """Yield each multiset of k dominant parts summing to lam, once.

    A multiset is a tuple of omega tuples weakly decreasing in epsilon-lex
    order, and they come in descending ``tuple_sort_key`` order.  The
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


def compositions_by_recursion(total: int, k: int):
    """All k-part compositions of total into nonnegative integers, head
    first: one recursion level per part."""
    if k == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions_by_recursion(total - head, k - 1):
            yield (head,) + rest
