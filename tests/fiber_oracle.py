"""Reference grouping: the ordered-tuple route the multiset walk replaces.

``build_poset`` walks part multisets and never orders the parts.  This
fixture keeps the grouping it stands for: every ordered tuple from
``enumerate_tuples``, one ``stat_vector`` each, then the sort, with the
largest member of each class as its representative.
"""

from weyl_order import enumerate_tuples
from weyl_order.posets import _tuple_sort_key


def classes_by_enumeration(lam, k):
    """(stat_vector, rep, members) per class, in stat-vector order."""
    by_stats = {}
    for tup in enumerate_tuples(lam, k):
        by_stats.setdefault(tup.stat_vector, []).append(tup)
    classes = []
    for sv in sorted(by_stats):
        members = tuple(sorted(by_stats[sv], key=_tuple_sort_key))
        classes.append((sv, members[-1], members))
    return classes
