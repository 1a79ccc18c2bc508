"""Tuples of dominant weights compared through window statistics.

A ``WeightTuple`` is an ordered k-tuple of dominant weights of one rank.
For a window (i, j) with 1 <= i <= j <= n, each part contributes the sum
of its omega coordinates a_i + ... + a_j; the statistic r_{(i,j),l} is
the smallest total obtainable by picking l of the k parts, which equals
the sum of the l smallest per-part window values.

Collecting every statistic (all windows, all l = 1..k) gives the stat
vector.  Comparing stat vectors coordinatewise yields a partial order on
tuples with a common part-sum; tuples with identical stat vectors are
equivalent, and reordering the parts never changes the vector.

``compare_prec`` refines the same idea over an ambient root system: the
per-part window value is replaced by the pairing of the embedded part
against each positive coroot.

Both orders score a tuple by one rule, kept in one place: per column (a
window or a coroot), sort the parts' values and take running sums
(``_column_stats``), the columns' sums joined into the vector
(``_sorted_prefix_stats``).  ``_part_window_values`` is the one place
that reads a part's window values, off its omega prefix sums;
``WeightTuple.stat_vector`` and ``build_poset`` both go through it, and
``coroot_stat_vector`` feeds the coroot pairings to the same sums.
``build_poset`` hands ``_sorted_prefix_stats`` a memo of the column
rule keyed by the column tuple, so over one call each distinct column
is sorted and summed once; the memo is the caller's, dropped when its
call returns, and this module keeps none.  Without a memo the rule
itself scores each column.  The module holds no other route: the
window-by-window values, the subset-minimum statistic and the part
reorderings and projections live in the tests as references.
"""

from __future__ import annotations

import enum
from functools import cache, cached_property
from itertools import accumulate, chain

from .roots import RootSystem, base_rank, iota, pairing
from .weights import Weight, _Value


class OrderVerdict(enum.Enum):
    LESS = "less"
    EQUIV = "equiv"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


def _verdict_from_vectors(a, b) -> OrderVerdict:
    saw_lt = saw_gt = False
    for x, y in zip(a, b):
        if x < y:
            saw_lt = True
        elif x > y:
            saw_gt = True
        if saw_lt and saw_gt:
            return OrderVerdict.INCOMPARABLE
    if saw_lt:
        return OrderVerdict.LESS
    if saw_gt:
        return OrderVerdict.GREATER
    return OrderVerdict.EQUIV


def windows(rank: int):
    """All (i, j) index pairs, 1-based, in the fixed enumeration order."""
    return [(i, j) for i in range(1, rank + 1) for j in range(i, rank + 1)]


_window_spans = cache(windows)  # never mutated; a list per part doubled the cost


def _part_window_values(omega: tuple[int, ...]) -> tuple[int, ...]:
    """One part's window values a_i + ... + a_j, in ``windows`` order,
    read off its omega prefix sums."""
    prefix = (0, *accumulate(omega))
    return tuple(prefix[j] - prefix[i - 1] for i, j in _window_spans(len(omega)))


def _column_stats(column) -> tuple[int, ...]:
    """The column rule: one column's values sorted ascending, then their
    running sums."""
    return tuple(accumulate(sorted(column)))


def _sorted_prefix_stats(rows, column_stats=_column_stats) -> tuple[int, ...]:
    """The stat vector of per-part rows of column values: each column
    (a tuple, one value per part) scored by column_stats, the column rule
    or a caller's memo of it, and the scores joined."""
    return tuple(chain.from_iterable(map(column_stats, zip(*rows))))


class WeightTuple(_Value):
    _fields = ("parts",)

    def __init__(self, parts: tuple[Weight, ...]):
        # plain loops, one check at a time: no generator, set or list is
        # built for a valid tuple
        parts = tuple(parts)
        if not parts:
            raise ValueError("a weight tuple needs at least one part")
        for p in parts:
            if not isinstance(p, Weight):
                raise TypeError("parts must be Weight instances")
        rank = parts[0].rank
        for p in parts:
            if p.rank != rank:
                ranks = sorted({q.rank for q in parts})
                raise ValueError(f"parts have mixed ranks {ranks}")
        for p in parts:
            if not p.is_dominant:
                raise ValueError(f"non-dominant part {p}")
        vars(self).update(parts=parts)

    @property
    def k(self) -> int:
        return len(self.parts)

    @property
    def rank(self) -> int:
        return self.parts[0].rank

    @cached_property
    def lam(self) -> Weight:
        total = self.parts[0]
        for p in self.parts[1:]:
            total = total + p
        return total

    @cached_property
    def stat_vector(self) -> tuple[int, ...]:
        return _sorted_prefix_stats(_part_window_values(p.omega)
                                    for p in self.parts)

    def __str__(self) -> str:
        return "/".join(str(p) for p in self.parts)

    def to_json(self) -> dict:
        return {"k": self.k, "parts": [p.to_json() for p in self.parts]}

    @classmethod
    def from_json(cls, data: dict) -> "WeightTuple":
        parts = tuple(Weight.from_json(p) for p in data["parts"])
        tup = cls(parts)
        if tup.k != data.get("k", tup.k):
            raise ValueError("part count disagrees with recorded k")
        return tup


def stat_labels(rank: int, k: int) -> list[tuple[int, int, int]]:
    """(i, j, ell) label for each coordinate of the stat vector."""
    return [(i, j, ell) for i, j in windows(rank) for ell in range(1, k + 1)]


def _check_comparable(x: WeightTuple, y: WeightTuple):
    if x.k != y.k:
        raise ValueError(f"tuple lengths differ: {x.k} vs {y.k}")
    if x.rank != y.rank:
        raise ValueError(f"ranks differ: {x.rank} vs {y.rank}")
    if x.lam != y.lam:
        raise ValueError(f"part sums differ: {x.lam} vs {y.lam}")


def compare(x: WeightTuple, y: WeightTuple) -> OrderVerdict:
    """Coordinatewise comparison of the two stat vectors."""
    _check_comparable(x, y)
    return _verdict_from_vectors(x.stat_vector, y.stat_vector)


def coroot_stat_vector(x: WeightTuple, rs: RootSystem) -> tuple[int, ...]:
    """Stats with windows replaced by positive coroots of the ambient system."""
    embedded = [iota(p, rs) for p in x.parts]
    return _sorted_prefix_stats([pairing(e, h) for h in rs.coroots]
                                for e in embedded)


def compare_prec(x: WeightTuple, y: WeightTuple, rs: RootSystem) -> OrderVerdict:
    """Comparison over all positive coroots of rs (parts embedded via iota).

    Over a type-A ambient system the coroots are exactly the windows, so
    this agrees with ``compare``; for B/C/D the extra coroots can separate
    tuples the window order leaves equivalent or tied.
    """
    _check_comparable(x, y)
    if base_rank(rs) != x.rank:
        raise ValueError(f"{rs.name} does not embed rank {x.rank}")
    return _verdict_from_vectors(coroot_stat_vector(x, rs),
                                 coroot_stat_vector(y, rs))
