"""Tuples of dominant weights compared through window statistics.

A ``WeightTuple`` is an ordered k-tuple of dominant weights of one rank.
For a window (i, j) with 1 <= i <= j <= n, each part contributes the sum
of its epsilon coordinates b_i + ... + b_j; the statistic r_{(i,j),l} is
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
(``_sorted_prefix_stats``).  ``_part_window_values`` reads a part's
window values off its omega prefix sums; ``WeightTuple.stat_vector`` and
``build_poset`` both go through it, and ``coroot_stat_vector`` feeds the
coroot pairings to the same sums.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import cache, cached_property

from .roots import RootSystem, base_rank, iota, pairing
from .weights import Permutation, Weight


class OrderVerdict(enum.Enum):
    LESS = "less"
    EQUIV = "equiv"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"

    def flip(self) -> "OrderVerdict":
        if self is OrderVerdict.LESS:
            return OrderVerdict.GREATER
        if self is OrderVerdict.GREATER:
            return OrderVerdict.LESS
        return self


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
    prefix = (0, *itertools.accumulate(omega))
    return tuple(prefix[j] - prefix[i - 1] for i, j in _window_spans(len(omega)))


def _sorted_prefix_stats(rows) -> tuple[int, ...]:
    """The stat vector of per-part rows of column values: per column, the
    running sums of its values sorted ascending."""
    out = []
    for column in zip(*rows):
        out.extend(itertools.accumulate(sorted(column)))
    return tuple(out)


@dataclass(frozen=True)
class WeightTuple:
    parts: tuple[Weight, ...]

    def __post_init__(self):
        parts = tuple(self.parts)
        if not parts:
            raise ValueError("a weight tuple needs at least one part")
        if any(not isinstance(p, Weight) for p in parts):
            raise TypeError("parts must be Weight instances")
        ranks = {p.rank for p in parts}
        if len(ranks) != 1:
            raise ValueError(f"parts have mixed ranks {sorted(ranks)}")
        bad = [p for p in parts if not p.is_dominant]
        if bad:
            raise ValueError(f"non-dominant part {bad[0]}")
        object.__setattr__(self, "parts", parts)

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

    def window_values(self, i: int, j: int) -> tuple[int, ...]:
        """Per-part window sums, in part order (not sorted)."""
        if not (1 <= i <= j <= self.rank):
            raise ValueError(f"window ({i},{j}) out of range for rank {self.rank}")
        return tuple(p.window(i, j) for p in self.parts)

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


def sk_permute(x: WeightTuple, perm: Permutation) -> WeightTuple:
    """Reorder the parts; the stat vector is invariant under this."""
    if perm.degree != x.k:
        raise ValueError(f"permutation degree {perm.degree} != k={x.k}")
    return WeightTuple(tuple(perm.permute(list(x.parts))))


def canonical_form(x: WeightTuple) -> WeightTuple:
    """Parts rearranged into weakly decreasing epsilon-lex order, stably."""
    order = sorted(range(x.k), key=lambda p: (x.parts[p].eps(), -p), reverse=True)
    return WeightTuple(tuple(x.parts[p] for p in order))


def pi_project(x: WeightTuple, i: int, j: int) -> WeightTuple:
    """Collapse each part to its (i, j) window value, as a rank-1 tuple.

    The projected tuple's stats at window (1, 1) reproduce r_{(i,j),l}
    of the original for every l.
    """
    vals = x.window_values(i, j)
    return WeightTuple(tuple(Weight((v,)) for v in vals))


def r_stat_by_subsets(x: WeightTuple, i: int, j: int, ell: int) -> int:
    """Reference evaluation: explicit minimum over all ell-part subsets.

    Exponential in k; kept as a cross-check for the sorted-prefix fast path.
    """
    if not (1 <= ell <= x.k):
        raise ValueError(f"ell={ell} out of range for k={x.k}")
    vals = x.window_values(i, j)
    return min(sum(vals[p] for p in pick)
               for pick in itertools.combinations(range(x.k), ell))
