"""Integer weight lattice of rank n in the fundamental-weight basis.

A weight is stored by its coordinates over the fundamental weights
(omega basis).  The epsilon basis is related by partial sums:

    eps_i coordinate  b_i = a_i + a_{i+1} + ... + a_n,

with inverse a_i = b_i - b_{i+1} (b_{n+1} = 0).  A weight is dominant
when every omega coordinate is non-negative.

The symmetric group acts by permuting epsilon coordinates.  Plain S_n
permutes the unpadded epsilon vector.  For normal forms we use the
extended convention: pad the epsilon vector with a trailing zero, act
with S_{n+1}, and read weights modulo the all-ones vector (the sl_{n+1}
weight lattice).  Omega coordinates are consecutive differences of the
padded vector, so the uniform shift never matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class Weight:
    """Lattice element with omega-basis coordinates."""

    omega: tuple[int, ...]

    def __post_init__(self):
        if not self.omega:
            raise ValueError("weight needs rank >= 1")
        object.__setattr__(self, "omega", tuple(int(c) for c in self.omega))

    @property
    def rank(self) -> int:
        return len(self.omega)

    @property
    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.omega)

    def eps(self) -> tuple[int, ...]:
        """Epsilon coordinates (partial sums), unpadded."""
        out, acc = [], 0
        for c in reversed(self.omega):
            acc += c
            out.append(acc)
        return tuple(reversed(out))

    def eps_padded(self) -> tuple[int, ...]:
        return self.eps() + (0,)

    def window(self, i: int, j: int) -> int:
        """Sum of omega coordinates a_i + ... + a_j, 1-based inclusive."""
        if not 1 <= i <= j <= self.rank:
            raise ValueError(f"window ({i},{j}) out of range for rank {self.rank}")
        return sum(self.omega[i - 1 : j])

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
        return "(" + ",".join(str(c) for c in self.omega) + ")"


@dataclass(frozen=True)
class Permutation:
    """Permutation of {0, ..., m-1} stored as the image tuple."""

    images: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a permutation: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self . other)(i) = self(other(i))."""
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Permutation(tuple(self.images[other.images[i]] for i in range(self.degree)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, img in enumerate(self.images):
            inv[img] = i
        return Permutation(tuple(inv))

    @property
    def is_identity(self) -> bool:
        return all(i == img for i, img in enumerate(self.images))

    def permute(self, values: tuple) -> tuple:
        """Move the entry at slot i to slot self(i)."""
        out = [None] * self.degree
        for i, v in enumerate(values):
            out[self.images[i]] = v
        return tuple(out)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(tuple(range(degree)))

    @classmethod
    def transposition(cls, i: int, degree: int) -> "Permutation":
        """Adjacent swap of positions i, i+1 (1-based i)."""
        if not 1 <= i < degree:
            raise ValueError(f"s_{i},{i + 1} undefined at degree {degree}")
        images = list(range(degree))
        images[i - 1], images[i] = images[i], images[i - 1]
        return cls(tuple(images))

    def cycle_notation(self) -> str:
        seen, cycles = set(), []
        for start in range(self.degree):
            if start in seen:
                continue
            cur, cyc = start, [start]
            seen.add(start)
            while self.images[cur] != start:
                cur = self.images[cur]
                seen.add(cur)
                cyc.append(cur)
            if len(cyc) > 1:
                cycles.append("(" + " ".join(str(c + 1) for c in cyc) + ")")
        return "".join(cycles) or "id"


def act(perm: Permutation, w: Weight) -> Weight:
    """Permute epsilon coordinates; degree n acts plainly, n+1 padded."""
    if perm.degree == w.rank:
        coords = perm.permute(w.eps())
        return Weight.from_eps(coords)
    if perm.degree == w.rank + 1:
        padded = perm.permute(w.eps_padded())
        # consecutive differences are shift invariant, so no renormalisation
        return Weight(tuple(padded[i] - padded[i + 1] for i in range(w.rank)))
    raise ValueError(f"degree {perm.degree} cannot act on rank {w.rank}")


def sorting_permutation(values: tuple[int, ...]) -> Permutation:
    """Stable permutation sending the vector to weakly decreasing order."""
    order = sorted(range(len(values)), key=lambda i: (-values[i], i))
    images = [0] * len(values)
    for new_pos, old_pos in enumerate(order):
        images[old_pos] = new_pos
    return Permutation(tuple(images))


def dominant_representative(w: Weight) -> tuple[Weight, Permutation]:
    """Dominant weight in the padded S_{n+1} orbit, plus the sorting witness.

    Sorting the padded epsilon vector into weakly decreasing order makes
    every consecutive difference non-negative, so the representative always
    exists and is unique as a multiset normal form.
    """
    sigma = sorting_permutation(w.eps_padded())
    rep = act(sigma, w)
    if not rep.is_dominant:
        raise ArithmeticError(f"sorting {w} gave the non-dominant {rep}")
    return rep, sigma
