"""Posets of weight tuples with a fixed part-sum.

``enumerate_tuples`` walks every ordered k-tuple of dominant weights
summing to a given dominant weight; it is the reference route.
``build_poset`` never orders the parts: a stat vector does not depend on
their order, so it walks the multisets of parts as plain omega integer
tuples, scores each multiset through the one stat route of
:mod:`weyl_order.tuples` (window values off omega prefix sums, then
sorted-prefix sums), and groups the multisets into equivalence classes
by stat vector.  The walk is output-sensitive: at each level it tries
only the parts whose epsilon_1 lies in the band ceil(|rest| / left) ..
|rest| (a slice of the part list), and with two parts left it reads the
pairs off the box of parts below the remainder.  A class's size is the
sum of the multinomials k! / prod(mult!) of its multisets, the
multiplicities read as run lengths of equal adjacent parts; its
representative is the only ``WeightTuple`` built, from one shared
``Weight`` per distinct part, and its ordered members are expanded only
when asked for.  The quotient carries the coordinatewise order from
:mod:`weyl_order.tuples`.

The quotient always has a unique bottom class, the one containing
(lam, 0, ..., 0), and a unique top class whose representative spreads
each epsilon coordinate as evenly as possible across the k parts.  Cover
edges of the k = 2 quotient carry a classification: a first kind where
one part surrenders a whole (permuted) fundamental-weight chunk to the
other, a second kind where the two new parts mix the old parts'
coordinates after a sorting change of frame, and an explicit
``UNCLASSIFIED`` fallback for anything else.  ``classify_cover`` works on
padded epsilon integer tuples and walks the sorters lazily as image
tuples; only the witness it returns is built as objects.  Off k = 2 the
exporters read the Hasse edges directly, all unclassified.
``TuplePoset.json_text`` writes the poset JSON file as text, the bytes
``json.dumps(to_json(), sort_keys=True, indent=2)`` gives, through the
``json_array`` and ``json_object`` layout helpers.
"""

from __future__ import annotations

import bisect
import enum
import itertools
import json
import math
from dataclasses import dataclass
from functools import cache, cached_property

from .tuples import (OrderVerdict, WeightTuple, _part_window_values,
                     _sorted_prefix_stats, _verdict_from_vectors)
from .weights import Permutation, Weight


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
    A non-dominant lam or a k below 1 raises ValueError.
    """
    if not lam.is_dominant:
        raise ValueError(f"{lam} is not dominant")
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


def _check_fiber(lam: Weight, k: int, guard: int) -> None:
    """Reject a non-dominant lam, a k below 1, or a fiber whose ordered
    tuple count exceeds guard, before any work on it starts."""
    estimate = count_tuples(lam, k)
    if estimate > guard:
        raise GuardExceeded(estimate, guard)


def enumerate_tuples(lam: Weight, k: int, guard: int = DEFAULT_GUARD):
    """Yield every WeightTuple in the fiber over lam, guard-checked first."""
    _check_fiber(lam, k, guard)
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


Multiset = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class EquivClass:
    """One class of the fiber: the tuples sharing stat_vector.

    multisets lists the class's part multisets, each a tuple of omega
    tuples weakly decreasing in epsilon-lex order, the multisets in
    descending ``_tuple_sort_key`` order; rep is the first one, the
    largest member.  size counts ordered tuples, the sum over the
    multisets of k! / prod(mult!).
    """

    rep: WeightTuple
    stat_vector: tuple[int, ...]
    size: int
    multisets: tuple[Multiset, ...]

    @cached_property
    def members(self) -> tuple[WeightTuple, ...]:
        """Every ordered tuple of the class, in ``_tuple_sort_key`` order."""
        orderings = {order for ms in self.multisets
                     for order in itertools.permutations(ms)}
        return tuple(sorted((WeightTuple(tuple(Weight(p) for p in order))
                             for order in orderings), key=_tuple_sort_key))


def _tuple_sort_key(x: WeightTuple):
    return tuple(p.eps() for p in x.parts)


# -- JSON text, laid out as json.dumps(..., sort_keys=True, indent=2) -------

def json_array(items, indent: int) -> str:
    """A JSON array whose opening bracket sits indent spaces in.

    items are the element texts, already laid out for indent + 2; no
    element text is empty, so an empty join means [].
    """
    inner = "\n" + " " * (indent + 2)
    body = ("," + inner).join(items)
    return "[" + inner + body + "\n" + " " * indent + "]" if body else "[]"


def json_object(fields, indent: int) -> str:
    """A JSON object whose opening brace sits indent spaces in.

    fields are (key, value text) pairs, sorted by key; the keys are plain
    ASCII names of the schema, so quoting them is their JSON text.
    """
    inner = "\n" + " " * (indent + 2)
    body = ("," + inner).join(f'"{key}": {text}' for key, text in fields)
    return "{" + inner + body + "\n" + " " * indent + "}"


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
        """(below, above): below[c] has bit d set when class d < class c.

        Built from rank masks, one stat coordinate at a time: sorting the
        classes by that coordinate and walking its groups of equal values
        gives, for each class c, the mask of classes whose value is <= c's
        (the running OR through c's group) and the mask of those whose
        value is >= c's (the complement of the running OR before it).  ANDing
        these over all coordinates leaves le[c], the classes <= c, and
        ge[c], the classes >= c.  Distinct classes have distinct stat
        vectors, so removing c's own bit gives the strict masks.

        Classes are indexed in lex order of stat vectors, a linear
        extension of the order: every bit of below[c] is < c and every
        bit of above[c] is > c.
        """
        m = len(self.classes)
        full = (1 << m) - 1
        le = [full] * m
        ge = [full] * m
        for column in zip(*(cls.stat_vector for cls in self.classes)):
            value = column.__getitem__
            seen = 0  # classes met so far, walking this coordinate upwards
            for _, group in itertools.groupby(sorted(range(m), key=value), key=value):
                group = list(group)
                at_least = full ^ seen
                for c in group:
                    seen |= 1 << c
                for c in group:
                    le[c] &= seen
                    ge[c] &= at_least
        below = [mask ^ (1 << c) for c, mask in enumerate(le)]
        above = [mask ^ (1 << c) for c, mask in enumerate(ge)]
        return below, above

    @cached_property
    def hasse_edges(self) -> tuple[tuple[int, int], ...]:
        """(low, high) pairs with nothing strictly between, in (a, b) order.

        A cover walk: for each a, pop the lowest class b left in rest =
        above[a], emit (a, b), and drop above[b] from rest.  It relies on
        index order being a linear extension (see _strict_masks).  A class
        strictly between a and b has a smaller index than b, so it was
        either popped first, and then b lies above it and was dropped, or
        dropped itself as lying above an earlier pop, and then so was b.
        Hence every popped b is a cover; a cover is never above another
        class of above[a], so it is never dropped.  The cost is a few mask
        operations per cover, not one per strict pair.
        """
        _, above = self._strict_masks
        edges = []
        for a, rest in enumerate(above):
            while rest:
                low = rest & -rest
                b = low.bit_length() - 1
                edges.append((a, b))
                rest ^= low
                rest &= ~above[b]
        return tuple(edges)

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
        """The up-closure of the Hasse edges must equal the strict order.

        Built in decreasing order of a, up[a] holds the classes reached
        from a along covers (an edge with b <= a never matches above[a],
        whose bits are > a).  Reachability is transitive, so equality
        proves the order transitive and checks the cover walk against the
        masks, at one mask step per cover.
        """
        _, above = self._strict_masks
        up = [0] * len(above)
        for a, b in sorted(self.hasse_edges, reverse=True):
            up[a] |= 1 << b | up[b]
        return up == above

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

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """str(rep) of each class, for exporters and reports: the parts'
        strings joined by "/", each distinct part formatted once."""
        text = cache(str)
        return tuple("/".join(map(text, cls.rep.parts)) for cls in self.classes)

    @cached_property
    def _index_of(self) -> dict[tuple[int, ...], int]:
        return {cls.stat_vector: c for c, cls in enumerate(self.classes)}

    def class_of(self, x: WeightTuple) -> int:
        try:
            return self._index_of[x.stat_vector]
        except KeyError:
            raise ValueError(f"{x} does not belong to this poset") from None

    def _edge_kinds(self):
        """(low, high, kind) per Hasse edge for the exporters; off k = 2
        every kind is UNCLASSIFIED, so no CoverEdge is built for it."""
        if self.k != 2:
            return ((a, b, CoverKind.UNCLASSIFIED) for a, b in self.hasse_edges)
        return ((e.low, e.high, e.kind) for e in self.cover_edges)

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
            "hasse": [[a, b, kind.value] for a, b, kind in self._edge_kinds()],
        }

    def json_text(self) -> str:
        """The poset JSON file: the bytes of json.dumps(self.to_json(),
        sort_keys=True, indent=2) plus a newline, written straight from
        the classes without the dict tree.  Each distinct part is laid out
        once; kind values go through json.dumps."""
        @cache
        def part(w: Weight) -> str:
            return json_object((("omega", json_array(map(str, w.omega), 12)),
                                ("rank", str(w.rank))), 10)

        def entry(cls: EquivClass) -> str:
            rep = json_object((("k", str(self.k)),
                               ("parts", json_array(map(part, cls.rep.parts), 8))),
                              6)
            return json_object((("rep", rep), ("size", str(cls.size)),
                                ("stats", json_array(map(str, cls.stat_vector), 6))),
                               4)

        # an edge is json_array([a, b, kind], 4), spelled out: one format
        # per edge instead of two joins
        kind_text = {kind: json.dumps(kind.value) for kind in CoverKind}
        edges = (f"[\n      {a},\n      {b},\n      {kind_text[kind]}\n    ]"
                 for a, b, kind in self._edge_kinds())
        return json_object((
            ("classes", json_array(map(entry, self.classes), 2)),
            ("hasse", json_array(edges, 2)),
            ("k", str(self.k)),
            ("lambda", json_array(map(str, self.lam.omega), 2)),
            ("num_classes", str(len(self.classes))),
        ), 0) + "\n"

    def to_dot(self) -> str:
        styles = {CoverKind.TYPE_I: "solid",
                  CoverKind.TYPE_II: "dashed",
                  CoverKind.UNCLASSIFIED: "dotted"}
        lines = ["digraph tuple_poset {", "  rankdir=BT;"]
        for c, label in enumerate(self.labels):
            lines.append(f'  n{c} [label="{label}"];')
        for a, b, kind in self._edge_kinds():
            lines.append(f"  n{a} -> n{b} [style={styles[kind]}];")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _part_multisets(lam: tuple[int, ...], k: int):
    """Yield each multiset of k dominant parts summing to lam, once.

    A multiset is a tuple of omega tuples weakly decreasing in epsilon-lex
    order, and they come in descending ``_tuple_sort_key`` order.  The
    parts are the dominant omega tuples <= lam coordinatewise, listed by
    descending epsilon-lex key, and each part sits no earlier in that list
    than the one before it.  Only parts that can still fit are tried:

    * band cut: epsilon_1 (the omega sum) is non-increasing along the
      list, so with ``left`` parts still to place on the remainder
      ``rest``, the next part p has ceil(|rest| / left) <= epsilon_1(p)
      <= |rest| (the later parts are no larger in epsilon_1 and sum to
      rest); that band is a slice of the list, read from a table;
    * box step: with two parts left, p ranges over the box
      0 <= p <= rest, the last part is rest - p, and a pair is kept when
      start <= pos[p] <= pos[rest - p], in increasing pos[p].

    Both only drop branches that yield nothing, so the multisets and
    their order are those of scanning every part at every level.
    """
    parts = sorted(itertools.product(*(range(m + 1) for m in lam)),
                   key=lambda p: tuple(itertools.accumulate(reversed(p)))[::-1],
                   reverse=True)
    position = {p: i for i, p in enumerate(parts)}
    # upto[s]: the number of parts with epsilon_1 >= s, so the parts with
    # lo <= epsilon_1 <= hi are parts[upto[hi + 1]:upto[lo]]
    negated = [-sum(p) for p in parts]
    upto = [bisect.bisect_right(negated, -s) for s in range(sum(lam) + 2)]

    def walk(start, rest, left, prefix):
        if left == 1:
            if position[rest] >= start:
                yield prefix + (rest,)
            return
        if left == 2:
            pairs = []
            for p in itertools.product(*(range(r + 1) for r in rest)):
                i = position[p]
                if i >= start:
                    q = tuple(r - c for r, c in zip(rest, p))
                    if position[q] >= i:
                        pairs.append((i, p, q))
            pairs.sort()
            for _, p, q in pairs:
                yield prefix + (p, q)
            return
        size = sum(rest)
        for i in range(max(start, upto[size + 1]), upto[-(-size // left)]):
            p = parts[i]
            after = tuple(r - c for r, c in zip(rest, p))
            if min(after) >= 0:
                yield from walk(i, after, left - 1, prefix + (p,))
    return walk(0, tuple(lam), k, ())


def _orderings(ms: Multiset, k_orderings: int) -> int:
    """k! / prod(mult!) for a multiset: equal parts sit together in ms, so
    each run of length m multiplies the denominator by 2, 3, ..., m."""
    denominator = run = 1
    for a, b in zip(ms, ms[1:]):
        run = run + 1 if a == b else 1
        denominator *= run
    return k_orderings // denominator


def build_poset(lam: Weight, k: int, guard: int = DEFAULT_GUARD) -> TuplePoset:
    """Group the fiber over lam into classes, without ordering any parts.

    The multisets come from ``_part_multisets`` (band cut, box step).
    Each distinct part's window values are computed once, and a
    multiset's stat vector comes from them through the same two helpers
    of :mod:`weyl_order.tuples` that ``WeightTuple.stat_vector`` uses
    (``_part_window_values``, ``_sorted_prefix_stats``).  The walk runs in
    descending ``_tuple_sort_key`` order, so the first multiset of each
    class is its largest member, the representative.  A class's size sums
    k! / prod(mult!) over its multisets, the multiplicities read as run
    lengths of equal adjacent parts.  Each distinct part becomes one
    ``Weight``, shared by the representatives.  The guard still counts
    ordered tuples.
    """
    _check_fiber(lam, k, guard)
    window_values = cache(_part_window_values)
    by_stats: dict[tuple[int, ...], list[Multiset]] = {}
    for ms in _part_multisets(lam.omega, k):
        sv = _sorted_prefix_stats(map(window_values, ms))
        by_stats.setdefault(sv, []).append(ms)
    k_orderings = math.factorial(k)
    weight = cache(Weight)
    classes = []
    for sv in sorted(by_stats):
        multisets = tuple(by_stats[sv])
        size = sum(_orderings(ms, k_orderings) for ms in multisets)
        rep = WeightTuple(tuple(map(weight, multisets[0])))
        classes.append(EquivClass(rep=rep, stat_vector=sv, size=size,
                                  multisets=multisets))
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


def _sorting_coset(values: tuple[int, ...]):
    """Every permutation arranging values weakly decreasing, as image
    tuples, lazily, in image-lex order (identity first when values are
    already sorted).

    A sorter sends each slot to a slot holding the same value in the
    sorted vector; ties admit several, a coset of the stabilizer.  Each
    value keeps its list of target slots, and slot by slot the unused
    ones are tried in increasing order, so the sorters come out in
    image-lex order and runs replay deterministically.  Callers usually
    stop at the first sorter, so none is built ahead; each call returns a
    fresh iterator.
    """
    targets: dict[int, list[int]] = {}
    for slot, v in enumerate(sorted(values, reverse=True)):
        targets.setdefault(v, []).append(slot)
    choices = [targets[v] for v in values]
    n = len(values)
    used = [False] * n
    images = [0] * n

    def extend(p: int):
        if p == n:
            yield tuple(images)
            return
        for slot in choices[p]:
            if not used[slot]:
                used[slot] = True
                images[p] = slot
                yield from extend(p + 1)
                used[slot] = False
    return extend(0)


def _inverse(images: tuple[int, ...]) -> list[int]:
    q = [0] * len(images)
    for p, t in enumerate(images):
        q[t] = p
    return q


def _sorted_omega(x: tuple[int, ...], q: list[int]) -> list[int]:
    """Omega coordinates of the padded epsilon vector x in the sorted
    frame of the sorter whose inverse is q."""
    return [x[q[t]] - x[q[t + 1]] for t in range(len(q) - 1)]


def classify_cover(low: WeightTuple, high: WeightTuple) -> tuple[CoverKind, CoverWitness | None]:
    """Classify a k = 2 cover between class representatives.

    Everything is read off padded epsilon int tuples.  The lower pair is
    taken in canonical order (e1 >= e2); sigma ranges over the sorters of
    delta = e1 - e2 in image-lex order, and the upper pair (f1 for mu1)
    over both orientations.  With q = sigma^-1, slot t of the sorted frame
    holds x[q[t]], and its omega coordinate t is x[q[t]] - x[q[t + 1]].

    First kind: part 1 hands part 2 the chunk e1 - f1 and keeps f1 - e2.
    The chunk must take two values a step apart; i counts its raised
    slots.  It is rho * omega_i, positive at i on both sides in the sorted
    frame, when the raised slots are {q[t] : t < i} (rho = sigma^-1,
    "inverse") or {sigma(t) : t < i} (rho = sigma, "forward"), tried in
    that order.  Second kind: in the sorted frame mu1 picks each omega
    coordinate from one of the two lower parts, part 1 wherever it fits.
    First-kind witnesses take precedence over the whole coset; tuples
    longer than 2 fall through to UNCLASSIFIED.  Only the returned
    witness builds a Permutation.
    """
    if low.k != 2 or high.k != 2:
        return CoverKind.UNCLASSIFIED, None
    if low.rank != high.rank:
        raise ValueError(f"rank mismatch: {low.rank} vs {high.rank}")
    e1, e2 = sorted((p.eps_padded() for p in low.parts), reverse=True)
    delta = tuple(a - b for a, b in zip(e1, e2))
    h1, h2 = high.parts
    frames = [(h1, h2, h1.eps_padded())]
    if h1 != h2:
        frames.append((h2, h1, h2.eps_padded()))
    chunks = []
    for mu1, mu2, f1 in frames:
        chunk = [a - b for a, b in zip(e1, f1)]
        top = max(chunk)
        if set(chunk) == {top, top - 1}:
            keep = [a - b for a, b in zip(f1, e2)]
            raised = {p for p, b in enumerate(chunk) if b == top}
            chunks.append((chunk, keep, raised, mu1, mu2))
    if chunks:
        for images in _sorting_coset(delta):
            q = _inverse(images)
            for chunk, keep, raised, mu1, mu2 in chunks:
                i = len(raised)
                a, b = q[i - 1], q[i]
                if chunk[a] <= chunk[b] or keep[a] <= keep[b]:
                    continue
                for reading, slots in (("inverse", q[:i]), ("forward", images[:i])):
                    if raised == set(slots):
                        return CoverKind.TYPE_I, CoverWitness(
                            sigma=Permutation(images), orientation=(mu1, mu2),
                            index=i, reading=reading)
    for images in _sorting_coset(delta):
        q = _inverse(images)
        s1, s2 = _sorted_omega(e1, q), _sorted_omega(e2, q)
        for mu1, mu2, f1 in frames:
            mix = tuple(1 if c == a else 2 if c == b else 0
                        for c, a, b in zip(_sorted_omega(f1, q), s1, s2))
            if 0 not in mix:
                return CoverKind.TYPE_II, CoverWitness(
                    sigma=Permutation(images), orientation=(mu1, mu2), mix=mix)
    return CoverKind.UNCLASSIFIED, None


def covers_of(poset: TuplePoset, index: int) -> list[CoverEdge]:
    """Classified cover edges going up from one class."""
    return [e for e in poset.cover_edges if e.low == index]
