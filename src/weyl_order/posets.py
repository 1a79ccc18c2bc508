"""Posets of weight tuples with a fixed part-sum.

``enumerate_tuples`` walks every k-tuple of dominant weights summing to a
given dominant weight; ``build_poset`` groups them into equivalence
classes by stat vector and equips the quotient with the coordinatewise
order from :mod:`weyl_order.tuples`.

The quotient always has a unique bottom class, the one containing
(lam, 0, ..., 0), and a unique top class whose representative spreads
each epsilon coordinate as evenly as possible across the k parts.  Cover
edges of the k = 2 quotient carry a classification: a first kind where
one part surrenders a whole (permuted) fundamental-weight chunk to the
other, a second kind where the two new parts mix the old parts'
coordinates after a sorting change of frame, and an explicit
``UNCLASSIFIED`` fallback for anything else.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .tuples import OrderVerdict, WeightTuple, _verdict_from_vectors, canonical_form
from .weights import Permutation, Weight, act, sorting_permutation


class GuardExceeded(RuntimeError):
    """Raised before an enumeration that would exceed the tuple budget."""

    def __init__(self, estimate: int, guard: int):
        super().__init__(f"would enumerate {estimate} tuples (guard {guard})")
        self.estimate = estimate
        self.guard = guard


DEFAULT_GUARD = 10**6


def count_tuples(lam: Weight, k: int) -> int:
    """Number of ordered k-tuples of dominant weights summing to lam.

    Coordinates split independently, so this is a product of binomials.
    """
    if k < 1:
        raise ValueError("k must be positive")
    out = 1
    for m in lam.omega:
        out *= math.comb(m + k - 1, k - 1)
    return out


def compositions(total: int, k: int):
    """All k-part compositions of total into nonnegative integers."""
    if k == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, k - 1):
            yield (head,) + rest


def enumerate_tuples(lam: Weight, k: int, guard: int = DEFAULT_GUARD):
    """Yield every WeightTuple in the fiber over lam, guard-checked first."""
    if not lam.is_dominant:
        raise ValueError(f"{lam} is not dominant")
    estimate = count_tuples(lam, k)
    if estimate > guard:
        raise GuardExceeded(estimate, guard)
    per_coord = [list(compositions(m, k)) for m in lam.omega]
    for rows in itertools.product(*per_coord):
        parts = tuple(Weight(tuple(rows[i][p] for i in range(lam.rank)))
                      for p in range(k))
        yield WeightTuple(parts)


def minimal_element(lam: Weight, k: int) -> WeightTuple:
    """(lam, 0, ..., 0), the bottom of the quotient."""
    zero = Weight.zero(lam.rank)
    return WeightTuple((lam,) + (zero,) * (k - 1))


def maximal_element(lam: Weight, k: int) -> WeightTuple:
    """Top representative: epsilon coordinates split as evenly as possible.

    Writing b_i = p_i * k + r_i, part number j receives p_i + 1 in epsilon
    coordinate i when j <= r_i and p_i otherwise.  Dominance of each part
    follows from b being weakly decreasing.
    """
    eps = lam.eps()
    parts = []
    for j in range(1, k + 1):
        row = []
        for b in eps:
            p, r = divmod(b, k)
            row.append(p + 1 if j <= r else p)
        parts.append(Weight.from_eps(tuple(row)))
    return WeightTuple(tuple(parts))


@dataclass(frozen=True)
class EquivClass:
    rep: WeightTuple
    stat_vector: tuple[int, ...]
    members: tuple[WeightTuple, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def _tuple_sort_key(x: WeightTuple):
    return tuple(p.eps() for p in x.parts)


@dataclass(frozen=True)
class TuplePoset:
    lam: Weight
    k: int
    classes: tuple[EquivClass, ...]

    def __len__(self) -> int:
        return len(self.classes)

    def verdict(self, a: int, b: int) -> OrderVerdict:
        return _verdict_from_vectors(self.classes[a].stat_vector,
                                     self.classes[b].stat_vector)

    @cached_property
    def _strict_masks(self) -> tuple[list[int], list[int]]:
        """(below, above): below[c] has bit d set when class d < class c."""
        m = len(self.classes)
        below = [0] * m
        above = [0] * m
        for a in range(m):
            for b in range(a + 1, m):
                v = self.verdict(a, b)
                if v is OrderVerdict.LESS:
                    below[b] |= 1 << a
                    above[a] |= 1 << b
                elif v is OrderVerdict.GREATER:
                    below[a] |= 1 << b
                    above[b] |= 1 << a
        return below, above

    def strict_pairs(self):
        """Each (a, b) with class a below class b, in (a, b) order; a < b."""
        _, above = self._strict_masks
        for a, mask in enumerate(above):
            while mask:
                low = mask & -mask
                yield a, low.bit_length() - 1
                mask ^= low

    @cached_property
    def hasse_edges(self) -> tuple[tuple[int, int], ...]:
        """(low, high) pairs with nothing strictly between."""
        below, above = self._strict_masks
        return tuple((a, b) for a, b in self.strict_pairs()
                     if above[a] & below[b] == 0)

    @cached_property
    def cover_edges(self) -> tuple[CoverEdge, ...]:
        """The Hasse edges, each classified once (only k = 2 classifies)."""
        if self.k != 2:
            return tuple(CoverEdge(a, b, CoverKind.UNCLASSIFIED)
                         for a, b in self.hasse_edges)
        reps = [cls.rep for cls in self.classes]
        return tuple(CoverEdge(a, b, *classify_cover(reps[a], reps[b]))
                     for a, b in self.hasse_edges)

    def transitive_ok(self) -> bool:
        """Strict order must be transitive: above-sets closed under going up."""
        _, above = self._strict_masks
        return all(above[b] & ~above[a] == 0 for a, b in self.strict_pairs())

    @cached_property
    def bottom_index(self) -> int:
        below, _ = self._strict_masks
        mins = [c for c in range(len(self.classes)) if below[c] == 0]
        if len(mins) != 1:
            raise ValueError(f"expected a unique minimal class, found {mins}")
        return mins[0]

    @cached_property
    def top_index(self) -> int:
        _, above = self._strict_masks
        maxs = [c for c in range(len(self.classes)) if above[c] == 0]
        if len(maxs) != 1:
            raise ValueError(f"expected a unique maximal class, found {maxs}")
        return maxs[0]

    def class_of(self, x: WeightTuple) -> int:
        sv = x.stat_vector
        for c, cls in enumerate(self.classes):
            if cls.stat_vector == sv:
                return c
        raise ValueError(f"{x} does not belong to this poset")

    def to_json(self) -> dict:
        return {
            "lambda": list(self.lam.omega),
            "k": self.k,
            "num_classes": len(self.classes),
            "classes": [
                {"rep": cls.rep.to_json(),
                 "size": cls.size,
                 "stats": list(cls.stat_vector)}
                for cls in self.classes
            ],
            "hasse": [[e.low, e.high, e.kind.value] for e in self.cover_edges],
        }

    def to_dot(self) -> str:
        styles = {CoverKind.TYPE_I: "solid",
                  CoverKind.TYPE_II: "dashed",
                  CoverKind.UNCLASSIFIED: "dotted"}
        lines = ["digraph tuple_poset {", "  rankdir=BT;"]
        for c, cls in enumerate(self.classes):
            lines.append(f'  n{c} [label="{cls.rep}"];')
        for e in self.cover_edges:
            lines.append(f"  n{e.low} -> n{e.high} [style={styles[e.kind]}];")
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_poset(lam: Weight, k: int, guard: int = DEFAULT_GUARD) -> TuplePoset:
    by_stats: dict[tuple[int, ...], list[WeightTuple]] = {}
    for tup in enumerate_tuples(lam, k, guard):
        by_stats.setdefault(tup.stat_vector, []).append(tup)
    classes = []
    for sv in sorted(by_stats):
        members = tuple(sorted(by_stats[sv], key=_tuple_sort_key))
        # a class is closed under reordering parts, so its largest member
        # is sorted and is the largest canonical form
        classes.append(EquivClass(rep=members[-1], stat_vector=sv, members=members))
    return TuplePoset(lam=lam, k=k, classes=tuple(classes))


def poset_size_k2(lam: Weight) -> int:
    """Closed-form class count at k = 2.

    Unordered splittings of lam: half the ordered count, plus the
    self-paired splitting lam/2 when every coordinate is even.
    """
    ordered = count_tuples(lam, 2)
    selfpair = 1 if all(m % 2 == 0 for m in lam.omega) else 0
    return (ordered + selfpair) // 2


# -- cover classification (k = 2) ------------------------------------------

class CoverKind(enum.Enum):
    TYPE_I = "type_one"
    TYPE_II = "type_two"
    UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class CoverWitness:
    sigma: Permutation
    orientation: tuple[Weight, Weight]
    index: int | None = None          # fundamental-weight index, first kind
    reading: str | None = None        # "inverse" or "forward", first kind
    mix: tuple[int, ...] | None = None  # per-coordinate source part, second kind

    def describe(self) -> str:
        bits = [f"sigma={self.sigma.cycle_notation()}"]
        if self.index is not None:
            bits.append(f"i={self.index}")
            bits.append(f"reading={self.reading}")
        if self.mix is not None:
            bits.append("mix=" + "".join(str(s) for s in self.mix))
        return ", ".join(bits)


@dataclass(frozen=True)
class CoverEdge:
    low: int
    high: int
    kind: CoverKind
    witness: CoverWitness | None = None


def _sorting_coset(values: tuple[int, ...]) -> list[Permutation]:
    """All permutations arranging values weakly decreasing, identity-first.

    Ties in the sorted vector admit several sorters; they form a coset of
    the stabilizer, enumerated here in image-lex order so runs replay
    deterministically.
    """
    sigma = sorting_permutation(values)
    sorted_vals = sigma.permute(list(values))
    blocks: list[list[int]] = []
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
        coset.add(Permutation(tuple(stab_images)).compose(sigma))
    return sorted(coset, key=lambda p: p.images)


def _fundamental_chunk_witness(lam1: Weight, lam2: Weight, mu1: Weight, mu2: Weight,
                               sigma: Permutation) -> CoverWitness | None:
    """First-kind test for the oriented pair: the chunk lam1 - mu1 moving
    from part 1 to part 2 is rho * omega_i for rho = sigma^-1 ("inverse") or
    sigma ("forward"), positive at i on both sides in the sorted frame.  Its
    padded epsilon vector takes two values a step apart; i counts the raised
    slots, and each reading raises a known slot set."""
    chunk = lam1 - mu1
    padded = chunk.eps_padded()
    top = max(padded)
    if set(padded) != {top, top - 1}:
        return None
    raised = {p for p, b in enumerate(padded) if b == top}
    i = len(raised)
    drop, keep = act(sigma, chunk), act(sigma, mu1 - lam2)
    if drop.omega[i - 1] <= 0 or keep.omega[i - 1] <= 0:
        return None
    for reading, slots in (("inverse", {p for p in range(sigma.degree) if sigma(p) < i}),
                           ("forward", {sigma(t) for t in range(i)})):
        if raised == slots:
            return CoverWitness(sigma=sigma, orientation=(mu1, mu2),
                                index=i, reading=reading)
    return None


def _coordinate_mix_witness(lam1: Weight, lam2: Weight, mu1: Weight, mu2: Weight,
                            sigma: Permutation) -> CoverWitness | None:
    """Second-kind test: in the sorted frame, mu1 picks each fundamental
    coordinate from one of the two lower parts, part 1 wherever it fits
    (the first such mix in (1, 2)-product order)."""
    s1, s2, m = act(sigma, lam1).omega, act(sigma, lam2).omega, act(sigma, mu1).omega
    mix = tuple(1 if c == a else 2 if c == b else 0 for c, a, b in zip(m, s1, s2))
    if 0 in mix:
        return None
    return CoverWitness(sigma=sigma, orientation=(mu1, mu2), mix=mix)


def classify_cover(low: WeightTuple, high: WeightTuple) -> tuple[CoverKind, CoverWitness | None]:
    """Classify a k = 2 cover between class representatives.

    The lower pair is taken in canonical order (lam1, lam2); sigma ranges
    over the sorters of the padded epsilon vector of lam1 - lam2, and the
    upper pair over both orientations.  First-kind witnesses take
    precedence; tuples longer than 2 fall through to UNCLASSIFIED.
    """
    if low.k != 2 or high.k != 2:
        return CoverKind.UNCLASSIFIED, None
    lam1, lam2 = canonical_form(low).parts
    delta = lam1 - lam2
    padded = delta.eps_padded()
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


def covers_of(poset: TuplePoset, index: int) -> list[CoverEdge]:
    """Classified cover edges going up from one class."""
    return [e for e in poset.cover_edges if e.low == index]
