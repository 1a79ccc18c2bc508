"""Posets of weight tuples with a fixed part-sum.

The fiber over a dominant lam at k is every ordered k-tuple of dominant
weights summing to lam.  ``enumerate_tuples`` walks it, the reference
route, and ``count_tuples`` counts it; the guard checks the count before
any work starts (``_check_fiber``).  ``build_poset`` groups the fiber
into classes of equal stat vector (:mod:`weyl_order.tuples`) without
ordering any parts: it walks the multisets of parts as omega integer
tuples (``_part_multisets``, over the sorted box of ``_part_box``) and
scores each through memos local to the call.  A class holds integers
only; its representative ``WeightTuple`` is built when first read.

A ``TuplePoset`` holds the coordinatewise order of the stat vectors as
one list of strict-order bit masks (``_below``); the cover walk
(``cover_rows``) and both extremes are read off them.  The quotient
always has a unique bottom class, the one containing (lam, 0, ..., 0),
and a unique top class, whose representative spreads each epsilon
coordinate as evenly as possible across the k parts
(``minimal_element``, ``maximal_element``).

At k = 2 each cover edge carries a kind: a first kind where one part
surrenders a whole (permuted) fundamental-weight chunk to the other, a
second kind where the two new parts mix the old parts' coordinates after
a sorting change of frame, and an explicit ``UNCLASSIFIED`` fallback for
anything else.  ``_decide`` is the one place the rule is decided; it
tests the chunk shape (``_raised``) and the coordinate mix (``_mixed``)
on packed integers.  No sorter coset is walked: the first kind holds
only at a gap of at least 2 in the sorted difference of the lower parts,
where the first sorter decides the inverse reading and the forward
reading's sorter is built (``_forward_sorter``), and the first sorter
decides the second kind.  A poset decides each cover once, row by row as
readers ask: ``_decided`` is a ``_PerCall`` of ``_decide_row``, as
``_uppers`` is of the classes' packed frames, which are filled from the
omega integers of each class's first multiset; off k = 2 every decision
is unclassified.  No ``Weight`` is built to decide: a decision holds
omega and image tuples.  ``covers_of`` and ``cover_edges`` build edge
and witness objects from the decisions (``_witness``, where the
orientation's ``Weight``s are built), ``classify_cover`` wraps the rule
for one pair of tuples, the poset writers read the kinds alone, and
``covers_text`` words the witnesses straight from the decisions'
fields.

``json_chunks`` and ``dot_chunks`` yield the poset JSON file (the bytes
of ``json.dumps(to_json(), sort_keys=True, indent=2)`` plus a newline)
and the Graphviz file in pieces, for a writer to stream; ``covers_text``
gives the covers command's lines and file.  No JSON layout is spelled
out by hand: ``_layout`` runs json.dumps on a skeleton whose fields to
fill are a sentinel, and returns a %-template, filled per item or split
around the arrays that stream.  ``_file_chunks`` streams every
JSON file this way: the poset and covers files, and the verify report
and the other JSON files of :mod:`weyl_order.cli`.
"""

from __future__ import annotations

import bisect
import enum
import itertools
import json
import math
from functools import cache, cached_property, partial, reduce
from operator import and_, attrgetter, itemgetter, or_, sub
from typing import Callable

from .tuples import (OrderVerdict, WeightTuple, _column_stats,
                     _part_window_values, _sorted_prefix_stats,
                     _verdict_from_vectors)
from .weights import Permutation, Weight, _cycle_text, _omega_text, _Value


# Counts are computed exactly up to _COUNT_CAP, the largest integer of
# 4300 digits, CPython's default limit for int-to-str conversion; a larger
# count is reported as at least 10**4300, with no more of it computed.
_COUNT_DIGITS = 4300
_COUNT_CAP = 10**_COUNT_DIGITS - 1


class GuardExceeded(RuntimeError):
    """Raised before an enumeration that would exceed the tuple budget."""

    def __init__(self, estimate: int, guard: int):
        count = (estimate if estimate <= _COUNT_CAP
                 else f"at least 10**{_COUNT_DIGITS}")
        super().__init__(f"would enumerate {count} tuples (guard {guard})")
        self.estimate = estimate
        self.guard = guard


DEFAULT_GUARD = 10**6


def _check_lam_k(lam: Weight, k: int) -> None:
    """The fiber rule: a non-dominant lam or a k below 1 raises ValueError."""
    if not lam.is_dominant:
        raise ValueError(f"{lam} is not dominant")
    if k < 1:
        raise ValueError("k must be positive")


def count_tuples(lam: Weight, k: int) -> int:
    """Number of ordered k-tuples of dominant weights summing to lam.

    Coordinates split independently, so this is a product of binomials.
    A non-dominant lam or a k below 1 raises ValueError.
    """
    _check_lam_k(lam, k)
    out = 1
    for m in lam.omega:
        out *= math.comb(m + k - 1, k - 1)
    return out


def _capped_count(omega: tuple[int, ...], k: int, cap: int) -> int:
    """count_tuples's product for a dominant lam's omega and k >= 1 when
    it is at most cap, else the first running value past cap.  Coordinate
    m contributes C(n, t), n = m + k - 1, t = min(m, k - 1), built step by
    step as C(n, j + 1) = C(n, j) * (n - j) / (j + 1): each running value
    is the product so far times a binomial, so it is exact, and it grows,
    since j < t <= n / 2; a value past cap is no larger than the count."""
    out = 1
    for m in omega:
        n = m + k - 1
        for j in range(min(m, k - 1)):
            out = out * (n - j) // (j + 1)
            if out > cap:
                return out
    return out


def compositions(total: int, k: int):
    """All k-part compositions of total into nonnegative integers, in
    lexicographic order: stars and bars, the k - 1 bars placed among
    total + k - 1 slots, so no recursion and any k works."""
    slots = total + k - 1
    for bars in itertools.combinations(range(slots), k - 1):
        yield tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, slots)))


def _check_fiber(lam: Weight, k: int, guard: int) -> None:
    """Reject a non-dominant lam, a k below 1, or a fiber of more than
    guard ordered tuples, before any work on it starts.  The count stops
    past max(guard, _COUNT_CAP): it is exact wherever it prints in full."""
    _check_lam_k(lam, k)
    estimate = _capped_count(lam.omega, k, max(guard, _COUNT_CAP))
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
    """(lam, 0, ..., 0), the bottom of the quotient.

    A non-dominant lam or a k below 1 raises ValueError, as in
    ``count_tuples``.
    """
    _check_lam_k(lam, k)
    zero = Weight.zero(lam.rank)
    return WeightTuple((lam,) + (zero,) * (k - 1))


def maximal_element(lam: Weight, k: int) -> WeightTuple:
    """Top representative: epsilon coordinates split as evenly as possible.

    Writing b_i = p_i * k + r_i, part number j receives p_i + 1 in epsilon
    coordinate i when j <= r_i and p_i otherwise.  Dominance of each part
    follows from b being weakly decreasing.  A non-dominant lam or a k
    below 1 raises ValueError, as in ``count_tuples``.
    """
    _check_lam_k(lam, k)
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


class EquivClass(_Value):
    """One class of the fiber: the tuples sharing stat_vector.

    multisets lists the class's part multisets, each a tuple of omega
    tuples weakly decreasing in epsilon-lex order, the multisets in
    descending order of their parts' epsilon tuples.  size counts ordered
    tuples, the sum over the multisets of k! / prod(mult!).  rep, the first
    multiset as a ``WeightTuple``, is built on first read and kept; it
    stays behind when the class is pickled, and is rebuilt when read.
    """

    _fields = ("stat_vector", "size", "multisets")

    def __init__(self, stat_vector: tuple[int, ...], size: int,
                 multisets: tuple[Multiset, ...]):
        vars(self).update(stat_vector=stat_vector, size=size,
                          multisets=multisets)

    @cached_property
    def rep(self) -> WeightTuple:
        return WeightTuple(tuple(map(Weight, self.multisets[0])))


# -- JSON text, laid out as json.dumps(..., sort_keys=True, indent=2) -------

_SLOT = "\0"  # a skeleton's field to fill; json.dumps writes it "\u0000"

# the JSON text of a string, as json.dumps writes it under ensure_ascii
_quote = json.encoder.encode_basestring_ascii


def _layout(skeleton, indent: int) -> str:
    """skeleton as json.dumps(skeleton, sort_keys=True, indent=2) lays it
    out, with every line after the first indent spaces further in, as a
    %-template: each _SLOT field is a %s slot, in text order (an object's
    fields in sorted key order), and every other % is doubled.  Filled
    with the JSON texts of values laid out for their slots' lines, it is
    the text json.dumps gives the filled skeleton nested indent spaces in.
    No other string of the skeleton may hold _SLOT."""
    text = json.dumps(skeleton, sort_keys=True, indent=2)
    return (text.replace("%", "%%").replace("\n", "\n" + " " * indent)
            .replace(json.dumps(_SLOT), "%s"))


def _between(template: str) -> list[str]:
    """The texts around a template's slots, in order: n + 1 for n slots."""
    slots = template.replace("%%", "").count("%s")
    return (template % ((_SLOT,) * slots)).split(_SLOT)


def _separator(indent: int) -> str:
    """The text between two elements of an array indent spaces in."""
    return _between(_layout([_SLOT, _SLOT], indent))[1]


def _json_array_chunks(items, indent: int):
    """A JSON array whose opening bracket sits indent spaces in, in pieces:
    the opening bracket with the first element, each later element with
    its comma, then the closing bracket; an array with no element is the
    one piece [].  items are the element texts, laid out for indent + 2;
    the texts around them are ``_layout``'s."""
    head, sep, tail = _between(_layout([_SLOT, _SLOT], indent))
    for item in items:
        yield head + item
        head = sep
    yield tail if head is sep else _layout([], indent)


def _file_chunks(fields: dict, **arrays):
    """A JSON file in pieces, for a writer to stream: joined, the bytes
    json.dumps({**fields, **arrays}, sort_keys=True, indent=2) gives, plus
    a newline, where each array is given as an iterable of its element
    texts laid out for indent 4.  The file's fields are one ``_layout``
    template whose slots, the arrays in sorted key order, split it; the
    template is built on the call, the elements as a writer reads them."""
    texts = _between(_layout({**fields, **dict.fromkeys(arrays, _SLOT)}, 0))
    texts[-1] += "\n"
    pieces = [(texts[0],)]
    for name, text in zip(sorted(arrays), texts[1:]):
        pieces += _json_array_chunks(arrays[name], 2), (text,)
    return itertools.chain.from_iterable(pieces)


class TuplePoset(_Value):
    """The quotient of the fiber over lam at k: classes lists its classes
    in lex order of stat vectors, as build_poset builds them.  The strict
    order, the cover walk and class_of rely on that order."""

    _fields = ("lam", "k", "classes")

    def __init__(self, lam: Weight, k: int, classes: tuple[EquivClass, ...]):
        vars(self).update(lam=lam, k=k, classes=classes)

    def __len__(self) -> int:
        return len(self.classes)

    def verdict(self, a: int, b: int) -> OrderVerdict:
        return _verdict_from_vectors(self.classes[a].stat_vector,
                                     self.classes[b].stat_vector)

    @cached_property
    def _below(self) -> list[int]:
        """The strict order: below[c] has bit d set when class d < class c.

        Built from "at most" masks, one stat coordinate at a time: walking
        that coordinate's distinct values upwards with a running OR of
        their classes gives, per value v, the mask of classes whose value
        is <= v.  Distinct classes have distinct stat vectors, so the AND
        of c's masks over all coordinates is c and the classes below it;
        dropping c's own bit leaves below[c].

        A coordinate that holds one value over all classes is skipped: its
        one mask is full, so it would clear no bit.  Every l = k coordinate
        is such a column, since it sums the whole window of lam.

        Classes are indexed in lex order of stat vectors, a linear
        extension of the order: every bit of below[c] is < c.
        """
        m = len(self.classes)
        columns = []  # per non-constant coordinate, each class's at-most mask
        for column in zip(*(cls.stat_vector for cls in self.classes)):
            if column.count(column[0]) == m:
                continue
            at_most: dict[int, int] = {}
            for c, v in enumerate(column):
                at_most[v] = at_most.get(v, 0) | 1 << c
            seen = 0
            for v in sorted(at_most):
                seen = at_most[v] = seen | at_most[v]
            columns.append(map(at_most.__getitem__, column))
        if not columns:  # every coordinate constant: one class
            return [0] * m
        return [reduce(and_, masks) ^ 1 << c
                for c, masks in enumerate(zip(*columns))]

    @cached_property
    def cover_rows(self) -> tuple[tuple[int, ...], ...]:
        """Per class a, the classes covering a, in increasing order.

        A cover walk, class c by class c upwards: pop the highest class a
        left in rest = below[c], append c to a's row, and drop a and
        below[a] from rest.  Index order is a linear extension (see
        _below), so a class strictly between a and c would sit in rest
        above a: it was either popped first, and a dropped as lying below
        it, or itself dropped as lying below an earlier pop, and then so
        was a.  Hence every popped a is covered by c, and no cover is ever
        dropped.  The top bit is read with bit_length, which builds no
        integer, and rest only shrinks below it, so the cost is a few
        operations on at most c-bit masks per cover, not one per strict
        pair.  Rows fill in increasing c, so each comes out sorted.
        """
        below = self._below
        rows = [[] for _ in below]
        for c, rest in enumerate(below):
            while rest:
                a = rest.bit_length() - 1
                rows[a].append(c)
                rest ^= rest & below[a] | 1 << a
        for a, row in enumerate(rows):  # one row's list freed at a time
            rows[a] = tuple(row)
        return tuple(rows)

    @cached_property
    def hasse_edges(self) -> tuple[tuple[int, int], ...]:
        """(low, high) pairs with nothing strictly between, in (a, b)
        order: the cover rows flattened, for callers that want pairs."""
        return tuple((a, b) for a, row in enumerate(self.cover_rows)
                     for b in row)

    @cached_property
    def _packing(self) -> tuple[int, tuple]:
        """The field width of the poset's packed tuples, from |lam|, which
        bounds every epsilon coordinate of a part, and their layout
        (``_field_layout``)."""
        width = _field_width(sum(self.lam.omega))
        return width, _field_layout(self.lam.rank + 1, width)

    @cached_property
    def _uppers(self) -> _PerCall:
        """Per class, its frames (``_frames``), filled from its first
        multiset's omega tuples and packed on first lookup, once per
        poset, with no ``Weight`` built: a reader of one cover row fills
        its row's classes alone.  The table holds the classes, not the
        poset."""
        classes, width = self.classes, self._packing[0]
        return _PerCall(lambda b: _frames(*classes[b].multisets[0], width))

    @cached_property
    def _decided(self) -> _PerCall:
        """Per cover row, its edges' decisions (``_decide_row``), decided
        on first lookup: the one table that covers_of, cover_edges and the
        text writers read, so every Hasse edge is decided once, and a
        reader of one row decides that row alone."""
        return _PerCall(partial(_decide_row, self.k, self.cover_rows,
                                self._uppers, self._packing[1]))

    @property
    def _cover_decisions(self) -> list[tuple[tuple, ...]]:
        """Every cover row's decisions, each row decided once."""
        return list(map(self._decided.__getitem__, range(len(self.classes))))

    def _cover_row(self, a: int, weight=Weight) -> list[CoverEdge]:
        """Class a's cover edges in increasing high, each with its kind and
        witness read off the decision table, the orientation's Weights
        built by weight (``_witness``)."""
        return [CoverEdge(a, b, kind, _witness(*witness, weight))
                for b, (kind, *witness) in zip(self.cover_rows[a],
                                               self._decided[a])]

    @cached_property
    def cover_edges(self) -> tuple[CoverEdge, ...]:
        """The Hasse edges in (low, high) order: the cover rows joined,
        with one Weight per distinct part, shared by its witnesses and
        dropped from the memo when the call returns."""
        weight = _PerCall(Weight).__getitem__
        return tuple(itertools.chain.from_iterable(
            self._cover_row(a, weight) for a in range(len(self))))

    def transitive_ok(self) -> bool:
        """The down-closure of the cover rows must equal the strict order.

        Built in increasing a, down[c] holds the classes reached from c
        down along covers (an entry c <= a in a's row puts bit a into
        down[c], which below[c], whose bits are < c, never holds).
        Reachability is transitive, so equality proves the order transitive
        and checks the cover walk against the masks, at one step per cover.
        """
        below, rows = self._below, self.cover_rows
        down = [0] * len(below)
        for a, row in enumerate(rows):
            reached = 1 << a | down[a]
            for c in row:
                down[c] |= reached
        return down == below

    @cached_property
    def bottom_index(self) -> int:
        """The unique minimal class: the one with an empty below mask."""
        mins = [c for c, mask in enumerate(self._below) if mask == 0]
        if len(mins) != 1:
            raise ValueError(f"expected a unique minimal class, found {mins}")
        return mins[0]

    @cached_property
    def top_index(self) -> int:
        """The unique maximal class: the one bit set in no below mask."""
        has_above = reduce(or_, self._below, 0)
        maxs = [c for c in range(len(self.classes)) if not has_above >> c & 1]
        if len(maxs) != 1:
            raise ValueError(f"expected a unique maximal class, found {maxs}")
        return maxs[0]

    @cached_property
    def closed_form_bottom_index(self) -> int:
        """The class of minimal_element(lam, k), looked up once per poset."""
        return self.class_of(minimal_element(self.lam, self.k))

    @cached_property
    def closed_form_top_index(self) -> int:
        """The class of maximal_element(lam, k), looked up once per poset."""
        return self.class_of(maximal_element(self.lam, self.k))

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """str(rep) of each class, for exporters and reports, read off the
        omega tuples of its first multiset: the parts' texts joined by "/",
        each distinct omega formatted once, no ``Weight`` built."""
        text = cache(_omega_text)
        return tuple("/".join(map(text, cls.multisets[0]))
                     for cls in self.classes)

    def class_of(self, x: WeightTuple) -> int:
        """x's class, searched for in the classes, which are sorted by stat
        vector.  A tuple of another k raises; with equal k, equal stat
        vectors force the same rank and lam, so no other fiber matches."""
        if x.k == self.k:
            sv = x.stat_vector
            c = bisect.bisect_left(self.classes, sv,
                                   key=attrgetter("stat_vector"))
            if c < len(self.classes) and self.classes[c].stat_vector == sv:
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

    def _int_texts(self) -> list[str]:
        """str(i) for 0 <= i < n, n past every class index and stat value:
        a stat value sums window values of dominant parts, at most lam's
        window value, so it lies in 0 .. sum(lam.omega).  The writers
        format their integers through it, each integer once per call."""
        return list(map(str, range(max(len(self), sum(self.lam.omega) + 1))))

    def _edge_pieces(self, text: Callable[[int], str],
                     templates: dict[CoverKind, str], sep: str = ""):
        """The text writers' Hasse edges in pieces, edge (a, b) of kind K
        written templates[K] % (text(a), text(b)): the one place that skips
        the classifier off k = 2.  At k = 2 the kinds come straight off the
        decision table, one piece per edge, and no witness or edge object is
        built.  At any other k every edge is unclassified, and a nonempty
        cover row is one piece, one join over its upper indices with sep
        between edges.  The edges, and at k = 2 their decisions, are
        computed on the call."""
        if self.k == 2:
            rows = zip(self.cover_rows, self._cover_decisions)
            return (templates[decision[0]] % (text(a), text(b))
                    for a, (highs, row) in enumerate(rows)
                    for b, decision in zip(highs, row))
        head, mid, tail = _between(templates[CoverKind.UNCLASSIFIED])
        rows = ((head + text(a) + mid, highs)
                for a, highs in enumerate(self.cover_rows) if highs)
        return (low + (tail + sep + low).join(map(text, highs)) + tail
                for low, highs in rows)

    def json_chunks(self):
        """The poset JSON file in pieces, for a writer to stream: joined,
        the bytes of json.dumps(self.to_json(), sort_keys=True, indent=2)
        plus a newline, written from the classes without the dict tree.
        A part (slots: its omega), a class entry (its parts, size and
        stats, each array one slot) and an edge of each kind (its two
        indices) are each one ``_layout`` template; ``_file_chunks`` lays
        the file out around its two arrays.  The Hasse edges, and at
        k = 2 their kinds, are computed on the call, so a writer that calls
        this before opening its file leaves no half-written file when they
        raise."""
        rank = self.lam.rank
        part = cache(_layout({"omega": [_SLOT] * rank, "rank": rank}, 10)
                     .__mod__)
        # an entry's parts and stats arrays are one slot each, filled with
        # their elements joined (a slot per element formats slower); their
        # brackets sit 8 and 6 spaces in, and the parts 10
        entry = _layout({"rep": {"k": self.k, "parts": [_SLOT]},
                         "size": _SLOT, "stats": [_SLOT]}, 4)
        parts_sep, stats_sep = _separator(8), _separator(6)
        text = self._int_texts().__getitem__
        entries = (entry % (parts_sep.join(map(part, cls.multisets[0])),
                            cls.size,
                            stats_sep.join(map(text, cls.stat_vector)))
                   for cls in self.classes)
        edges = self._edge_pieces(
            text, {kind: _layout([_SLOT, _SLOT, kind.value], 4)
                   for kind in CoverKind}, _separator(2))
        return _file_chunks({"k": self.k, "lambda": list(self.lam.omega),
                             "num_classes": len(self)},
                            classes=entries, hasse=edges)

    def json_text(self) -> str:
        """The poset JSON file as one string: json_chunks joined."""
        return "".join(self.json_chunks())

    def dot_chunks(self):
        """The Graphviz file of the Hasse diagram in pieces: the head, one
        line per class, the edge pieces of _edge_pieces, each edge a line
        styled by its kind, and the tail.  The labels, the Hasse edges and
        at k = 2 their kinds are computed on the call, as in json_chunks."""
        labels, text = self.labels, self._int_texts().__getitem__
        edges = self._edge_pieces(text, {
            CoverKind.TYPE_I: "  n%s -> n%s [style=solid];\n",
            CoverKind.TYPE_II: "  n%s -> n%s [style=dashed];\n",
            CoverKind.UNCLASSIFIED: "  n%s -> n%s [style=dotted];\n"})
        return itertools.chain(
            ("digraph tuple_poset {\n  rankdir=BT;\n",),
            (f'  n{c} [label="{label}"];\n' for c, label in enumerate(labels)),
            edges,
            ("}\n",))

    def to_dot(self) -> str:
        """The Graphviz file as one string: dot_chunks joined."""
        return "".join(self.dot_chunks())

    def covers_text(self, with_json: bool):
        """The covers command's output, read off the cover rows and the
        decision table: the stdout text, one line per Hasse edge in (low,
        high) order, and with_json the covers JSON file in pieces
        (``_file_chunks``, its records laid out lazily), else None.  A
        witness is worded once per edge by ``_witness_text``, from the
        decision's fields, and the text serves its line and its record; a
        sorter's cycle notation is computed once per image tuple.  No edge
        or witness object is built.  Off k = 2 every edge is unclassified,
        and its witness is null.  The edges are decided on the call, so
        whatever can raise does so before a file is opened."""
        labels = self.labels
        cycles = _PerCall(_cycle_text)
        edges = []
        for a, (highs, row) in enumerate(zip(self.cover_rows,
                                              self._cover_decisions)):
            for b, (kind, images, _, index, reading, mix) in zip(highs, row):
                text = (None if images is None else
                        _witness_text(cycles[images], index, reading, mix))
                edges.append((a, b, kind, text))
        # each kind's tag formatted once: an Enum value is a property read
        tags = {kind: f" [{kind.value}]" for kind in CoverKind}
        out = "".join(
            f"{labels[a]} -> {labels[b]}{tags[kind]}\n" if text is None
            else f"{labels[a]} -> {labels[b]}{tags[kind]} ({text})\n"
            for a, b, kind, text in edges)
        if not with_json:
            return out, None
        # a record's slots in sorted key order; each label quoted once per
        # class, each kind once, a witness's text once per cover
        record = _layout(dict.fromkeys(("high", "kind", "low", "witness"),
                                       _SLOT), 4)
        quoted = list(map(_quote, labels))
        kinds = {kind: _quote(kind.value) for kind in CoverKind}
        records = (record % (quoted[b], kinds[kind], quoted[a],
                             "null" if text is None else _quote(text))
                   for a, b, kind, text in edges)
        return out, _file_chunks({"k": self.k, "lambda": list(self.lam.omega)},
                                 covers=records)


def _part_box(lam: tuple[int, ...]):
    """The box of omega tuples <= lam, every one a dominant part: the
    parts by descending epsilon-lex key, the code of each (its index in
    ``itertools.product`` order), and per code its position among the
    parts.

    The sort key is one integer per part, not a tuple: its epsilon tuple
    (epsilon_i = a_i + ... + a_n) read as digits in base |lam| + 1, most
    significant first.  No epsilon coordinate exceeds |lam|, so every
    digit is below the base and the integers order the parts as their
    epsilon tuples do.  The key is linear in the omega digits (a_j weighs
    base^(n-1) + ... + base^(n-j)), so the keys are built column by
    column in ``itertools.product`` order, as the walk builds its codes."""
    box = list(itertools.product(*(range(m + 1) for m in lam)))
    base = sum(lam) + 1
    keys = [0]
    for m, w in zip(lam, itertools.accumulate(
            base ** e for e in range(len(lam) - 1, -1, -1))):
        keys = [c + x for c in keys for x in range(0, (m + 1) * w, w)]
    code_of = sorted(range(len(box)), key=keys.__getitem__, reverse=True)
    parts = [box[c] for c in code_of]
    pos = [0] * len(box)
    for i, c in enumerate(code_of):
        pos[c] = i
    return parts, code_of, pos


def _part_multisets(lam: tuple[int, ...], k: int):
    """Yield each multiset of k dominant parts summing to lam, once.

    A multiset is a tuple of omega tuples weakly decreasing in epsilon-lex
    order, and they come in descending order of their parts' epsilon
    tuples.  The parts are the dominant omega tuples <= lam coordinatewise,
    listed by descending epsilon-lex key, and each part sits no earlier in
    that list than the one before it.  Only parts that can still fit are
    tried:

    * band cut: epsilon_1 (the omega sum) is non-increasing along the
      list, so with ``left`` parts still to place on the remainder
      ``rest``, the next part p has ceil(|rest| / left) <= epsilon_1(p)
      <= |rest| (the later parts are no larger in epsilon_1 and sum to
      rest); that band is a slice of the list, read from a table;
    * box step: with two parts left, p ranges over the box
      0 <= p <= rest, the last part is rest - p, and a pair is kept when
      start <= pos(p) <= pos(rest - p), in increasing pos(p);
    * zero cut: once rest is zero, only the zero part (last in the list)
      fits, so the walk is at most |lam| + 1 levels deep, whatever k is.

    The box step reads positions off integer codes, not tuples.  A part's
    code is its mixed-radix number, digit i in radix lam_i + 1 with the
    first coordinate most significant, which is its index in
    ``itertools.product`` order; ``pos[code]`` is its index in the part
    list.  The box's codes are built column by column, and rest - p is
    coded code(rest) - code(p), since p <= rest coordinatewise and no
    digit borrows.  The walk carries code(rest) next to rest, so the last
    part and the zero cut read it too.

    These only drop branches that yield nothing, so the multisets and
    their order are those of scanning every part at every level.  At
    k = 1 the one multiset (lam,) is returned before any part is listed.
    """
    if k == 1:
        return iter(((tuple(lam),),))
    parts, code_of, pos = _part_box(lam)
    place = [1]  # place[i]: the place value of digit i
    for m in reversed(lam[1:]):
        place.insert(0, place[0] * (m + 1))
    # upto[s]: the number of parts with epsilon_1 >= s, so the parts with
    # lo <= epsilon_1 <= hi are parts[upto[hi + 1]:upto[lo]]
    negated = [-sum(p) for p in parts]
    upto = [bisect.bisect_right(negated, -s) for s in range(sum(lam) + 2)]

    def walk(start, rest, code, left, prefix):
        if not code:  # only the zero part fits, and it sorts last
            yield prefix + (rest,) * left
            return
        if left == 1:
            if pos[code] >= start:
                yield prefix + (rest,)
            return
        if left == 2:
            codes = [0]
            for r, w in zip(rest, place):
                codes = [c + x for c in codes for x in range(0, (r + 1) * w, w)]
            pairs = []
            for x in codes:
                i = pos[x]
                if i >= start:
                    j = pos[code - x]
                    if j >= i:
                        pairs.append((i, j))
            pairs.sort()
            for i, j in pairs:
                yield prefix + (parts[i], parts[j])
            return
        size = sum(rest)
        for i in range(max(start, upto[size + 1]), upto[-(-size // left)]):
            p = parts[i]
            after = tuple(map(sub, rest, p))
            if min(after) >= 0:
                yield from walk(i, after, code - code_of[i], left - 1,
                                prefix + (p,))
    return walk(0, tuple(lam), len(pos) - 1, k, ())


def _orderings(ms: Multiset, k_orderings: int) -> int:
    """k! / prod(mult!) for a multiset: equal parts sit together in ms, so
    each run of length m multiplies the denominator by 2, 3, ..., m."""
    if len(set(ms)) == len(ms):  # no part repeats
        return k_orderings
    denominator = run = 1
    for a, b in zip(ms, ms[1:]):
        run = run + 1 if a == b else 1
        denominator *= run
    return k_orderings // denominator


class _PerCall(dict):
    """fn's values by argument, each computed on its first lookup: a hit
    is a plain dict lookup, cheaper than a cache wrapper.  Its owner, a
    call or a poset, drops it with itself, so no value outlives what it
    was computed for; fn must not hold its owner, or the two form a
    reference cycle."""

    def __init__(self, fn):
        self.fn = fn

    def __missing__(self, key):
        self[key] = value = self.fn(key)
        return value


def build_poset(lam: Weight, k: int, guard: int = DEFAULT_GUARD) -> TuplePoset:
    """Group the fiber over lam into classes, without ordering any parts.

    The multisets come from ``_part_multisets`` (band cut, box step).  A
    multiset's stat vector comes from the same helpers of
    :mod:`weyl_order.tuples` that ``WeightTuple.stat_vector`` uses
    (``_part_window_values``, then ``_sorted_prefix_stats`` with the
    column rule ``_column_stats``), each through a memo local to the
    call: each distinct part's window values are computed once, and each
    distinct column tuple is sorted and summed once.  Both memos are
    dropped when the call returns.  The walk runs in
    descending order of the parts' epsilon tuples, so the first multiset
    of each class is its largest member, the representative.  A class's
    size sums k! / prod(mult!) over its multisets, the multiplicities read
    as run lengths of equal adjacent parts, in one ``map`` per class.  No
    ``Weight`` or ``WeightTuple`` is built.  The guard still counts
    ordered tuples.
    """
    _check_fiber(lam, k, guard)
    window_values = _PerCall(_part_window_values).__getitem__
    column_stats = _PerCall(_column_stats).__getitem__
    by_stats: dict[tuple[int, ...], list[Multiset]] = {}
    for ms in _part_multisets(lam.omega, k):
        sv = _sorted_prefix_stats(map(window_values, ms), column_stats)
        by_stats.setdefault(sv, []).append(ms)
    k_orderings = itertools.repeat(math.factorial(k))  # k! per multiset
    classes = []
    for sv in sorted(by_stats):
        multisets = tuple(by_stats[sv])
        size = sum(map(_orderings, multisets, k_orderings))
        # positional: keywords cost about a quarter of the init
        classes.append(EquivClass(sv, size, multisets))
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

    # members are singletons and compare by identity; Enum's own __hash__
    # is Python code, run on every lookup of a table keyed by kind
    __hash__ = object.__hash__


class CoverWitness(_Value):
    _fields = ("sigma", "orientation", "index", "reading", "mix")

    def __init__(self, sigma: Permutation,
                 orientation: tuple[Weight, Weight],
                 index: int | None = None, reading: str | None = None,
                 mix: tuple[int, ...] | None = None):
        # first kind: index, the fundamental-weight index, and reading,
        # "inverse" or "forward"; second kind: mix, per coordinate the
        # source part
        vars(self).update(sigma=sigma, orientation=orientation, index=index,
                          reading=reading, mix=mix)

    def describe(self) -> str:
        return _witness_text(self.sigma.cycle_notation(), self.index,
                             self.reading, self.mix)


def _witness_text(cycles: str, index: int | None, reading: str | None,
                  mix: tuple[int, ...] | None) -> str:
    """A witness's text from its fields, sigma given by its cycle
    notation: the one place a witness is worded, for ``describe`` and for
    ``TuplePoset.covers_text``, which reads the fields off the decision
    table."""
    text = "sigma=" + cycles
    if index is not None:
        text += f", i={index}, reading={reading}"
    if mix is not None:
        text += ", mix=" + "".join(map(str, mix))
    return text


class CoverEdge(_Value):
    _fields = ("low", "high", "kind", "witness")

    def __init__(self, low: int, high: int, kind: CoverKind,
                 witness: CoverWitness | None = None):
        vars(self).update(low=low, high=high, kind=kind, witness=witness)


def _inverse(images) -> list[int]:
    q = [0] * len(images)
    for p, t in enumerate(images):
        q[t] = p
    return q


def _first_sorter(values: tuple[int, ...]) -> tuple[tuple[int, ...], list[int]]:
    """The image-lex first sorter of values and its inverse: each slot
    goes to the lowest free target slot of its value, so the inverse is
    the stable descending argsort (order[t], the slot sent to t)."""
    order = sorted(range(len(values)), key=values.__getitem__, reverse=True)
    return tuple(_inverse(order)), order


# A packed tuple is one integer holding value s of a padded epsilon tuple
# in field s, the width bits from s * width up; the first-kind chunk test
# reads a whole chunk off one subtraction of packed tuples, and the
# second-kind test compares neighbouring fields with one shift and XOR.

def _field_width(span: int) -> int:
    """The field width for packed tuples whose values lie in 0 .. span:
    the least multiple of 8 with span < 2**(width - 1), so each chunk
    entry e1[s] - f[s], in -span .. span, fits a field with its offset."""
    return 8 * (span.bit_length() // 8 + 1)


def _pack(values, width: int) -> int:
    """values, each in 0 .. 2**width - 1, as one packed integer, value s
    in field s: at width 8 the bytes of values read as one little-endian
    integer, at wider widths a shift-and-OR loop."""
    if width == 8:
        return int.from_bytes(bytes(values), "little")
    packed = 0
    for v in reversed(values):
        packed = packed << width | v
    return packed


def _field_layout(slots: int, width: int) -> tuple:
    """The packed layout of slots fields of width bits: (bits, OFF,
    OFF - LOW, outside, width), bits[s] the low bit of field s, LOW every
    low bit, OFF the value 2**(width - 1) in every field, outside every
    bit not in LOW (a negative integer)."""
    bits = [1 << width * s for s in range(slots)]
    low = sum(bits)
    off = low << width - 1
    return bits, off, off - low, ~low, width


def _raised(top: int, packed_f: int, fields: tuple) -> int:
    """The slots raised by the chunk e1 - f, as a packed mask, when the
    chunk takes two values a step apart, else 0; top is E1 + OFF and
    packed_f is F, both in the layout fields.

    A padded tuple ends in 0, so such a chunk takes the values 0/1 or
    -1/0, and its raised slots hold the larger one.  D = top - F holds
    e1[s] - f[s] + OFF in field s with no borrow, since |e1[s] - f[s]| <
    2**(width - 1).  The chunk is 0/1 exactly when X = D ^ OFF has no bit
    outside LOW (a field below OFF keeps its top bit), and X is then the
    raised mask.  It is -1/0 exactly when Y = D - (OFF - LOW), whose field
    digits are the chunk plus 1, has none either: those digits lie in
    -2**(width - 1) < c <= 2**(width - 1), a full set of residues, so the
    digits are unique, and one outside 0/1 sets a bit outside LOW or makes
    Y negative.  Y is then the raised mask.  The all-zero chunk gives X =
    0, so it is rejected without reaching Y."""
    _, off, shift, outside, _ = fields
    d = top - packed_f
    raised = d ^ off
    if raised & outside:
        raised = d - shift
        if raised & outside:
            return 0
    return raised


def _mixing(e1, e2, q: list[int], fields: tuple) -> tuple:
    """What the second-kind test (``_mixed``) reads for the lower pair
    (e1, e2) in the sorted frame of the sorter with inverse q, packed in
    the layout fields: (sort, width, U0, V0, OFF - LOW, HIGH).

    sort lays a vector out in the sorted frame, U0 is sort(e1) packed plus
    OFF and V0 is OFF minus sort(e2) packed, so that for a packed sorted
    frame H of f the fields of U0 - H and H + V0 are e1 - f and f - e2
    plus OFF, each in 1 .. 2**width - 1, with no borrow.  HIGH is the top
    bit of each field 0 .. n - 1, the fields that the n steps of a padded
    tuple of n + 1 slots compare: OFF without its last field."""
    _, off, shift, _, width = fields
    sort = itemgetter(*q)  # q has >= 2 slots: a tuple out
    return (sort, width, _pack(sort(e1), width) + off,
            off - _pack(sort(e2), width), shift, off >> width)


def _mixed(f, mixing: tuple) -> tuple[int, ...] | None:
    """The second-kind test of the upper padded tuple f against the lower
    pair of mixing (``_mixing``): the mix, 1 at each omega coordinate t of
    the sorted frame where f's step equals e1's and 2 where it equals only
    e2's, or None when some step equals neither.

    With h = sort(e1) - sort(f), f's step t equals e1's exactly when h[t]
    = h[t + 1], and equals e2's exactly when sort(f) - sort(e2) does the
    same.  U = U0 - H and V = H + V0 hold those two vectors plus OFF, so X
    = U ^ (U >> width) is zero in field t exactly when f's step t equals
    e1's, and likewise Y from V for e2.  A field's low bits plus OFF - LOW
    carry into its top bit exactly when they are not all zero, so
    ((X & (OFF - LOW)) + (OFF - LOW) | X) & HIGH has the top bit of each
    compared field that is not zero; the test passes when no field is set
    in both masks.  X's mask plus HIGH holds 2**(width - 1) or 2**width
    for each compared field, so shifted right by width - 1 it holds the
    mix, one value per field, read off the fields' low bytes."""
    sort, width, u0, v0, shift, high = mixing
    h = _pack(sort(f), width)
    u, v = u0 - h, h + v0
    x, y = u ^ u >> width, v ^ v >> width
    x = ((x & shift) + shift | x) & high
    if x & ((y & shift) + shift | y):
        return None
    mix = (x + high) >> (width - 1)
    return tuple(mix.to_bytes(high.bit_length() // 8, "little")[::width // 8])


def _padded(omega: tuple[int, ...]) -> tuple[int, ...]:
    """The padded epsilon tuple of the weight with these omega
    coordinates: their reversed running sums, reversed, after a 0 (the
    route ``Weight.eps_padded`` takes by way of ``Weight.eps``)."""
    return tuple(itertools.accumulate(reversed(omega), initial=0))[::-1]


def _frames(o1: tuple[int, ...], o2: tuple[int, ...], width: int) -> tuple:
    """The frames of the pair of parts with omega tuples (o1, o2), one per
    orientation: (mu1, mu2, f, F), mu1 and mu2 omega tuples, f the padded
    epsilon tuple of mu1 (``_padded``) and F it packed (``_pack``); one
    frame when the two parts are equal.  No ``Weight`` is built."""
    f1 = _padded(o1)
    first = (o1, o2, f1, _pack(f1, width))
    if o1 == o2:
        return (first,)
    f2 = _padded(o2)
    return first, (o2, o1, f2, _pack(f2, width))


class _LowerPair:
    """What a k = 2 lower class gives every cover above it: its parts'
    padded epsilon tuples in canonical order (e1 >= e2), delta = e1 - e2,
    the packed layout (``fields``, see ``_field_layout``) and top = E1 +
    OFF; the first sorter of delta (``_first_sorter``), its images and
    inverse q; ``gaps``, the first-kind masks (``build_gaps``), built when
    a chunk first reaches them; and ``mixing``, what the second-kind test
    reads (``_mixing``, in the first sorter's frame), built when a cover
    first reaches that test.  Built from the class's frames (``_frames``),
    one per cover row or per ``classify_cover`` call, and dropped with
    it."""

    __slots__ = ("e1", "e2", "delta", "fields", "top", "images", "q",
                 "gaps", "mixing")

    def __init__(self, frames: tuple, fields: tuple):
        (_, _, x, packed), (_, _, y, _) = frames[0], frames[-1]
        if x < y:
            x, y, packed = y, x, frames[-1][3]
        self.e1, self.e2 = x, y
        self.delta = tuple(map(sub, x, y))
        self.fields = fields
        self.top = packed + fields[1]
        self.images, self.q = _first_sorter(self.delta)
        self.gaps = self.mixing = None

    def build_gaps(self) -> list[int | None]:
        """gaps[i], for i = 1 .. n: the packed mask of the slots {q[t] :
        t < i} when delta sorted descending drops by at least 2 from
        position i - 1 to position i (the gap at i), else None; gaps[0] is
        None."""
        delta, q, bits = self.delta, self.q, self.fields[0]
        self.gaps = gaps = [None]
        mask = 0
        for a, b in zip(q, q[1:]):
            mask |= bits[a]
            gaps.append(mask if delta[a] - delta[b] >= 2 else None)
        return gaps


def _forward_sorter(pair: _LowerPair, raised: int,
                    i: int) -> tuple[int, ...] | None:
    """The image-lex first sorter sigma of the lower pair's delta at which
    the chunk with raised slots R (the packed mask raised) reads forward
    at i, as images, or None when no sorter does: {sigma(t) : t < i} = R,
    the slot sent to position i - 1 is in R and the one sent to position
    i is not.  The caller has found the gap at i (``_LowerPair.build_gaps``).

    A sorter sends the slots holding each value of delta onto that value's
    tie block of positions, each block on its own, so the image-lex first
    such sigma is the first one on every block: there the slots below i go
    onto the block's positions in R and the other slots onto the rest,
    each in increasing order (no sigma exists unless every block has as
    many slots below i as positions in R).  The gap puts position i - 1
    last in its block and position i first in the next.  Position i - 1
    goes to the largest slot in R that may take it, and position i to the
    smallest slot outside R that may take it; the other slots of their
    groups keep increasing order.  Any other choice gives an earlier slot
    a larger image."""
    delta, q = pair.delta, pair.q
    n = len(q)
    inside = [bool(raised & bit) for bit in pair.fields[0]]
    last = max((s for s in range(n) if delta[s] == delta[q[i - 1]]
                and (s < i) == inside[i - 1] and inside[s]), default=None)
    first = min((s for s in range(n) if delta[s] == delta[q[i]]
                 and (s < i) == inside[i] and not inside[s]), default=None)
    if last is None or first is None:
        return None
    slots = sorted(range(n), key=lambda s: (
        -delta[s], s >= i, (s == last) - (s == first), s))
    positions = sorted(range(n), key=lambda p: (-delta[q[p]], not inside[p], p))
    images = [0] * n
    for s, p in zip(slots, positions):
        if inside[p] != (s < i):
            return None
        images[s] = p
    return tuple(images)


# A decision is a plain tuple: the kind, then the witness fields with the
# sorter's image tuple in place of its Permutation and the orientation's
# omega tuples in place of its Weights (images, orientation, index,
# reading, mix), all None for an unclassified edge.
_UNCLASSIFIED = (CoverKind.UNCLASSIFIED, None, None, None, None, None)


def _decide(pair: _LowerPair, frames: tuple) -> tuple:
    """The k = 2 cover rule, the one place it is decided: the cover from
    the lower pair to the upper pair of the given frames (``_frames``).

    sigma ranges over the sorters of delta in image-lex order, and the
    upper pair (f for mu1) over its frames; the witness is the first one
    in that order, sorter-major.  With q = sigma^-1, slot t of the sorted
    frame holds x[q[t]], and its omega coordinate t is x[q[t]] -
    x[q[t + 1]].

    First kind: part 1 hands part 2 the chunk c = e1 - f and keeps f - e2.
    The chunk must take two values a step apart (``_raised``, on packed
    tuples); R is its raised slots and i counts them.  It is rho *
    omega_i, positive at i on both sides in the sorted frame, when R =
    {q[t] : t < i} (rho = sigma^-1, "inverse") or R = {sigma(t) : t < i}
    (rho = sigma, "forward"), inverse first, with a = q[i - 1] in R and b
    = q[i] not, which the inverse reading implies, and f[a] - e2[a] >
    f[b] - e2[b].  As f - e2 = delta - c and c is one higher on R than off
    it, that last test reads ranked[i - 1] - ranked[i] >= 2, ranked being
    delta sorted descending: the gap at i, the same for every sorter.  So
    a chunk without the gap is never first kind.  With it, the slots that
    any sorter sends below position i are those where delta is at least
    ranked[i - 1], so the inverse reading holds at every sorter or at
    none, and the first sorter decides it (``_LowerPair.build_gaps``).
    The forward reading's first sorter is built, not searched
    (``_forward_sorter``).  Among the chunks the witness has the least
    sorter images, then the first frame, then the inverse reading, as a
    walk over the sorters would meet them, so a witness at the first
    sorter ends the search.

    Second kind: in the sorted frame mu1 picks each omega coordinate from
    one of the two lower parts, part 1 wherever it fits (``_mixed``, on
    packed tuples).  Whether it can, and the mix, are the same for every
    sorter: a step t with delta[q[t]] = delta[q[t + 1]] fits either part
    only when h = e1 - f takes equal values on the two slots, so h is
    constant on each set of slots where delta takes one value, and every
    other step compares those constants, whose slot sets every sorter
    lays out in the same order.  So the first sorter decides it: its
    witness when a frame fits, else no sorter's.
    """
    top, fields = pair.top, pair.fields
    found = None
    for mu1, mu2, _, packed in frames:
        raised = _raised(top, packed, fields)
        if not raised:
            continue
        i = raised.bit_count()
        mask = (pair.gaps or pair.build_gaps())[i]
        if mask is None:
            continue
        if raised == mask:
            return (CoverKind.TYPE_I, pair.images, (mu1, mu2), i, "inverse",
                    None)
        images = _forward_sorter(pair, raised, i)
        if images is not None and (found is None or images < found[1]):
            found = (CoverKind.TYPE_I, images, (mu1, mu2), i, "forward", None)
            if images == pair.images:
                return found
    if found is not None:
        return found
    if pair.mixing is None:
        pair.mixing = _mixing(pair.e1, pair.e2, pair.q, fields)
    for mu1, mu2, f, _ in frames:
        mix = _mixed(f, pair.mixing)
        if mix is not None:
            return (CoverKind.TYPE_II, pair.images, (mu1, mu2), None, None,
                    mix)
    return _UNCLASSIFIED


def _witness(images: tuple[int, ...] | None, orientation, index, reading,
             mix, weight=Weight) -> CoverWitness | None:
    """A decision's witness, sigma built from the sorter's images and the
    orientation's ``Weight``s by weight from its omega tuples, or None for
    an unclassified edge."""
    if images is None:
        return None
    return CoverWitness(Permutation(images), tuple(map(weight, orientation)),
                        index, reading, mix)


def _decide_row(k: int, rows: tuple[tuple[int, ...], ...], uppers: _PerCall,
                fields: tuple, a: int) -> tuple[tuple, ...]:
    """The decisions of class a's cover row, rows[a], at k.

    Off k = 2 every edge is unclassified.  At k = 2 a nonempty row gets
    one local ``_LowerPair``, and each class's frames are read off the
    table uppers (a poset's ``_uppers``), packed in the layout fields, so
    no representative ``WeightTuple`` is built and each part's padded
    epsilon tuple is computed and packed once."""
    row = rows[a]
    if k != 2 or not row:
        return (_UNCLASSIFIED,) * len(row)
    pair = _LowerPair(uppers[a], fields)
    return tuple([_decide(pair, uppers[b]) for b in row])


def classify_cover(low: WeightTuple, high: WeightTuple) -> tuple[CoverKind, CoverWitness | None]:
    """Classify a k = 2 cover between class representatives.

    The rule is ``_decide``'s (see there): everything is read off the
    parts' padded epsilon int tuples, packed with a field width that holds
    every coordinate of the four parts, and the lower pair is taken in
    canonical order (e1 >= e2).  This wraps it for one pair of tuples and
    builds the witness; tuples longer than 2 fall through to
    UNCLASSIFIED.  Two pairs of another rank or part sum raise
    ValueError, as ``compare`` does.  Each call builds its own
    ``_LowerPair`` and keeps nothing, so no call leaves state on either
    tuple.  ``TuplePoset.cover_edges`` and the poset writers do not call
    this: they read one decision table, built row by row from the classes.
    """
    if low.k != 2 or high.k != 2:
        return CoverKind.UNCLASSIFIED, None
    if low.rank != high.rank:
        raise ValueError(f"rank mismatch: {low.rank} vs {high.rank}")
    # summed here: reading lam would leave it cached on the tuples
    low_sum, high_sum = (x.parts[0] + x.parts[1] for x in (low, high))
    if low_sum != high_sum:
        raise ValueError(f"part sums differ: {low_sum} vs {high_sum}")
    # dominant parts: a padded epsilon tuple peaks at its first slot, the
    # omega sum
    width = _field_width(max(sum(p.omega) for p in low.parts + high.parts))
    low_frames, high_frames = (
        _frames(*(p.omega for p in x.parts), width) for x in (low, high))
    pair = _LowerPair(low_frames, _field_layout(low.rank + 1, width))
    kind, *witness = _decide(pair, high_frames)
    return kind, _witness(*witness)


def covers_of(poset: TuplePoset, index: int) -> list[CoverEdge]:
    """Classified cover edges going up from one class: its cover row,
    decided and built alone, or [] for an index outside
    0 .. len(poset) - 1."""
    return poset._cover_row(index) if 0 <= index < len(poset) else []
