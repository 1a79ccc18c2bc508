"""Integer weight lattice of rank n in the fundamental-weight basis.

A weight is stored by its coordinates over the fundamental weights
(omega basis).  The epsilon basis is related by partial sums:

    eps_i coordinate  b_i = a_i + a_{i+1} + ... + a_n,

with inverse a_i = b_i - b_{i+1} (b_{n+1} = 0).  A weight is dominant
when every omega coordinate is non-negative.  Coordinates are integers:
each one is coerced with ``operator.index``, so a float or a string
raises ``TypeError`` instead of being truncated, and the rank check
reads the coerced tuple, so an empty iterable of any kind raises
``ValueError``.

The cover classifier of :mod:`weyl_order.posets` works in the extended
convention: pad the epsilon vector with a trailing zero, let S_{n+1}
permute it, and read weights modulo the all-ones vector (the sl_{n+1}
weight lattice).  Omega coordinates are consecutive differences of the
padded vector, so the uniform shift never matters.  A ``Weight`` caches
its dominance on first use; the cache is not a field, and a ``Weight``
pickles from omega alone.  A ``Permutation`` is the sorting witness the
classifier reports: it is validated, and it prints in cycle notation
(``_cycle_text``).  Equality, hashing, repr and pickling of both read
the coordinates or images alone.

``_Value`` is the base of every value class of the package, here and in
the other modules: each class's one constructor coerces, checks and
stores its fields.
"""

from __future__ import annotations

import operator
from functools import cached_property
from itertools import accumulate
from typing import Iterable


class _Value:
    """An immutable value with named fields: what a frozen dataclass is,
    written out, so that importing the package generates no code.

    A subclass lists its fields in constructor order in ``_fields`` and
    writes one ``__init__``, which coerces its arguments, checks the
    coerced values and then stores every field in one write of the
    instance ``__dict__`` (``vars(self).update``).  Two values are equal
    when they are of one class and their field tuples are equal, and a
    value hashes as its field tuple; its repr names each field, and it
    pickles through its constructor from the fields, so an unpickled
    value is checked again.  A ``cached_property`` keeps its value in the
    same ``__dict__``, outside the fields, so no cached value reaches any
    of these.  Assigning or deleting an attribute raises
    ``AttributeError``.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the field tuple, read by one attrgetter built once per class; a
        # one-field class's getter returns the bare value, so it is wrapped
        get = operator.attrgetter(*cls._fields)
        cls._values = staticmethod(
            get if len(cls._fields) > 1 else lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self._fields, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Weight(_Value):
    """Lattice element with omega-basis coordinates."""

    _fields = ("omega",)

    def __init__(self, omega: tuple[int, ...]):
        omega = tuple(map(operator.index, omega))
        if not omega:
            raise ValueError("weight needs rank >= 1")
        vars(self).update(omega=omega)

    @property
    def rank(self) -> int:
        return len(self.omega)

    @cached_property
    def is_dominant(self) -> bool:
        # cached: a part shared by many tuples is checked once per Weight
        # object
        return all(c >= 0 for c in self.omega)

    def eps(self) -> tuple[int, ...]:
        """Epsilon coordinates (partial sums), unpadded."""
        return tuple(accumulate(reversed(self.omega)))[::-1]

    def eps_padded(self) -> tuple[int, ...]:
        """Epsilon coordinates with a trailing zero."""
        return self.eps() + (0,)

    @classmethod
    def zero(cls, rank: int) -> "Weight":
        return cls((0,) * rank)

    @classmethod
    def fundamental(cls, i: int, rank: int) -> "Weight":
        if not 1 <= i <= rank:
            raise ValueError(f"omega_{i} undefined at rank {rank}")
        return cls(tuple(1 if t == i - 1 else 0 for t in range(rank)))

    @classmethod
    def from_eps(cls, coords: Iterable[int]) -> "Weight":
        """Inverse of eps(): consecutive differences with trailing zero."""
        b = list(coords) + [0]
        return cls(tuple(b[i] - b[i + 1] for i in range(len(b) - 1)))

    def __add__(self, other: "Weight") -> "Weight":
        self._check_rank(other)
        return Weight(tuple(x + y for x, y in zip(self.omega, other.omega)))

    def __sub__(self, other: "Weight") -> "Weight":
        self._check_rank(other)
        return Weight(tuple(x - y for x, y in zip(self.omega, other.omega)))

    def __neg__(self) -> "Weight":
        return Weight(tuple(-x for x in self.omega))

    def _check_rank(self, other: "Weight"):
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")

    def to_json(self) -> dict:
        return {"rank": self.rank, "omega": list(self.omega)}

    @classmethod
    def from_json(cls, data: dict) -> "Weight":
        w = cls(tuple(data["omega"]))
        if w.rank != data.get("rank", w.rank):
            raise ValueError("rank field disagrees with omega length")
        return w

    def __str__(self) -> str:
        return _omega_text(self.omega)


def _omega_text(omega: tuple[int, ...]) -> str:
    """A weight's text, read off its omega coordinates alone."""
    return "(" + ",".join(map(str, omega)) + ")"


class Permutation(_Value):
    """Permutation of {0, ..., m-1} stored as the image tuple."""

    _fields = ("images",)

    def __init__(self, images: tuple[int, ...]):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation: {images}")
        vars(self).update(images=images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def cycle_notation(self) -> str:
        """The cycles of length >= 2, 1-based, or "id"."""
        return _cycle_text(self.images)


def _cycle_text(images: tuple[int, ...]) -> str:
    """The cycle notation of the permutation with these images: its
    cycles of length >= 2, 1-based, or "id"."""
    seen, cycles = set(), []
    for start in range(len(images)):
        if start in seen:
            continue
        cur, cyc = start, [start]
        seen.add(start)
        while images[cur] != start:
            cur = images[cur]
            seen.add(cur)
            cyc.append(cur)
        if len(cyc) > 1:
            cycles.append("(" + " ".join(str(c + 1) for c in cyc) + ")")
    return "".join(cycles) or "id"
