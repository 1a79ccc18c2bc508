"""Classical root systems A/B/C/D described through their positive coroots.

Each positive coroot is stored by its coefficients over the simple coroots
h_1..h_N; for the classical families every coefficient lies in {0, 1, 2}.
A coroot with some coefficient equal to 2 is said to have height two, and
for those the doubled block starts right after an initial run of ones: the
pair (i, j) with the ones on [i, j-1] and the twos starting at j is its
window marker, and h_i + ... + h_{j-1} (when i < j) is its window partner.

Two constructions are kept side by side:

* a closed-form table of interval and doubled-interval patterns, and
* a generative closure from the Cartan matrix (positive roots of the dual
  system expressed over its simple roots).

The two are compared as sets; ``coroot_table_report`` surfaces any gap.
The validated list used everywhere else is the generated one.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property, lru_cache

from .weights import Weight, _Value

FAMILIES = ("A", "B", "C", "D")
_MIN_RANK = {"A": 1, "B": 2, "C": 1, "D": 3}
_SPIN_NODES = {"A": 0, "B": 1, "C": 0, "D": 2}


class Coroot(_Value):
    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        vars(self).update(coeffs=tuple(map(operator.index, coeffs)))

    @property
    def height(self) -> int:
        """2 when some coefficient equals 2, else 1."""
        return 2 if 2 in self.coeffs else 1

    @property
    def window(self) -> tuple[int, int] | None:
        """(i, j) marker of a height-two coroot, 1-based; None at height one."""
        if self.height != 2:
            return None
        first_nonzero = next(t for t, c in enumerate(self.coeffs) if c)
        first_two = self.coeffs.index(2)
        return (first_nonzero + 1, first_two + 1)

    def window_partner_coeffs(self) -> tuple[int, ...] | None:
        """Coefficients of the interval h_i+...+h_{j-1} below the doubled block.

        None when this coroot has height one, or when the doubled block
        starts immediately (i = j, no room for a partner).
        """
        w = self.window
        if w is None or w[0] == w[1]:
            return None
        i, j = w
        return tuple(1 if i <= t + 1 <= j - 1 else 0 for t in range(len(self.coeffs)))

    def __str__(self) -> str:
        terms = []
        for t, c in enumerate(self.coeffs):
            if c == 1:
                terms.append(f"h{t + 1}")
            elif c:
                terms.append(f"{c}h{t + 1}")
        return "+".join(terms) or "0"


class RootSystem(_Value):
    _fields = ("family", "rank", "coroots")

    def __init__(self, family: str, rank: int, coroots: tuple[Coroot, ...]):
        vars(self).update(family=family, rank=rank, coroots=coroots)

    @property
    def name(self) -> str:
        return f"{self.family}{self.rank}"

    @cached_property
    def _coroot_index(self) -> dict:
        return {h.coeffs: h for h in self.coroots}

    def coroot_by_coeffs(self, coeffs: tuple[int, ...]) -> Coroot | None:
        return self._coroot_index.get(tuple(coeffs))

    @cached_property
    def part_dims(self) -> dict[tuple[int, ...], int]:
        """Dimension of each embedded base weight met so far, keyed by its
        omega tuple; dimensions.tensor_dim and dimensions.member_dims fill
        it with weyl_dim values."""
        return {}

    @cached_property
    def part_brackets(self) -> dict[tuple[int, ...], tuple[int, ...]]:
        """Shifted pairings of each embedded base weight met so far against
        every coroot, in coroot order, keyed by its omega tuple;
        the ledger routes of dimensions fill it with bracket values."""
        return {}

    @cached_property
    def rho_product(self) -> int:
        """Product of rho(h) over the positive coroots, the denominator of
        the Weyl dimension formula."""
        return math.prod(rho_value(h) for h in self.coroots)

    @cached_property
    def ledger_plan(self) -> tuple[tuple[tuple[str, bool, bool], ...],
                                   tuple[tuple[str, int, int], ...]]:
        """The rows of every k = 2 coroot ledger over this system, less values.

        One (label, guaranteed, in_product) per coroot, in coroot order,
        then one (label, i, j) per grouped row, i and j the indices of the
        partner and of the doubled coroot.  Built once, from group_coroots.
        """
        solos, grouped = group_coroots(self)
        solo_set = {h.coeffs for h in solos}
        index = {h.coeffs: t for t, h in enumerate(self.coroots)}
        # intervals and partner-less doubled coroots stay weakly monotone on
        # their own; a partnered doubled coroot is covered only jointly
        coroot_rows = tuple(
            (str(h), h.height == 1 or h.window_partner_coeffs() is None,
             h.coeffs in solo_set) for h in self.coroots)
        grouped_rows = tuple((f"{partner} & {h}", index[partner.coeffs],
                              index[h.coeffs]) for partner, h in grouped)
        return coroot_rows, grouped_rows

    def __str__(self) -> str:
        return self.name


def group_coroots(rs: RootSystem) -> tuple[list[Coroot], list[tuple[Coroot, Coroot]]]:
    """Split the positive coroots into solo rows and partnered pairs.

    A height-two coroot whose doubled block leaves room for the interval
    below it is grouped with that interval; everything else (all the
    intervals not so consumed, plus partner-less height-two coroots)
    stands solo.
    """
    grouped = []
    consumed = set()
    for h in rs.coroots:
        pc = h.window_partner_coeffs()
        if pc is None:
            continue
        partner = rs.coroot_by_coeffs(pc)
        if partner is None:
            raise RuntimeError(f"window partner of {h} missing from {rs.name}")
        grouped.append((partner, h))
        consumed.add(partner.coeffs)
        consumed.add(h.coeffs)
    solos = [h for h in rs.coroots if h.coeffs not in consumed]
    return solos, grouped


def _check_family_rank(family: str, rank: int):
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if rank < _MIN_RANK[family]:
        raise ValueError(f"{family}{rank}: rank must be >= {_MIN_RANK[family]}")


def cartan_matrix(family: str, rank: int) -> list[list[int]]:
    """Cartan matrix with entry [i][j] = <alpha_j, h_i> (Bourbaki numbering)."""
    _check_family_rank(family, rank)
    a = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        a[i][i] = 2
    for i in range(rank - 1):
        a[i][i + 1] = a[i + 1][i] = -1
    if rank >= 2:
        if family == "B":
            a[rank - 1][rank - 2] = -2  # short alpha_n against long alpha_{n-1}
        elif family == "C":
            a[rank - 2][rank - 1] = -2
        elif family == "D":
            a[rank - 1][rank - 2] = a[rank - 2][rank - 1] = 0
            a[rank - 1][rank - 3] = a[rank - 3][rank - 1] = -1
    return a


def _positive_roots_from_cartan(a: list[list[int]]) -> set[tuple[int, ...]]:
    """Positive roots as simple-root coefficient vectors: the simple roots
    closed under the simple reflections s_i(c) = c - <c, h_i> alpha_i,
    keeping the nonnegative results.  Every positive root is reached: one
    of height above 1 pairs positively with some h_i, and s_i takes it to
    a lower positive root."""
    rank = len(a)
    roots = {tuple(int(t == i) for t in range(rank)) for i in range(rank)}
    frontier = list(roots)
    while frontier:
        c = frontier.pop()
        for i in range(rank):
            pair = sum(a[i][j] * c[j] for j in range(rank))
            image = c[:i] + (c[i] - pair,) + c[i + 1:]
            if image[i] >= 0 and image not in roots:  # only c[i] moved
                roots.add(image)
                frontier.append(image)
    return roots


def generated_positive_coroots(family: str, rank: int) -> set[tuple[int, ...]]:
    """Coroot coefficient vectors = positive roots of the dual system.

    The dual system's Cartan matrix is the transpose, so the closure runs
    on that.
    """
    a = cartan_matrix(family, rank)
    dual = [[a[j][i] for j in range(rank)] for i in range(rank)]
    return _positive_roots_from_cartan(dual)


def _ival(rank: int, i: int, j: int, two_from: int | None = None,
          extra: tuple[int, ...] = ()) -> tuple[int, ...]:
    """Ones on [i, j], optionally twos from two_from through j, plus extras."""
    v = [0] * rank
    for t in range(i, j + 1):
        v[t - 1] = 1
    if two_from is not None:
        for t in range(two_from, j + 1):
            v[t - 1] = 2
    for t in extra:
        v[t - 1] += 1
    return tuple(v)


def closed_form_coroot_table(family: str, rank: int) -> set[tuple[int, ...]]:
    """Literal interval/doubled-interval patterns, deduplicated as a set."""
    _check_family_rank(family, rank)
    n = rank
    table = {_ival(n, i, j) for i in range(1, n + 1) for j in range(i, n + 1)}
    if family == "C":
        # h_i+...+h_{j-1} + 2h_j+...+2h_n, strictly i < j
        table |= {_ival(n, i, n, two_from=j)
                  for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    elif family == "B":
        # h_i+...+h_{j-1} + 2h_j+...+2h_{n-1} + h_n, i <= j (j = n collapses
        # onto the plain interval, so the set union absorbs it)
        table |= {_ival(n, i, n - 1, two_from=j, extra=(n,))
                  for i in range(1, n + 1) for j in range(i, n + 1) if j <= n - 1}
        table |= {_ival(n, i, n) for i in range(1, n + 1)}  # the j = n rows
    elif family == "D":
        # h_i+...+h_{n-2} + h_n for i <= n-2
        table |= {_ival(n, i, n - 2, extra=(n,)) for i in range(1, n - 1)}
        # h_i+...+h_{j-1} + 2h_j+...+2h_{n-2} + h_{n-1} + h_n for i < j < n-1
        table |= {_ival(n, i, n - 2, two_from=j, extra=(n - 1, n))
                  for i in range(1, n - 1) for j in range(i + 1, n - 1)}
    return table


def coroot_table_report(family: str, rank: int) -> dict:
    """Set difference between the closed-form table and the generated list."""
    table = closed_form_coroot_table(family, rank)
    generated = generated_positive_coroots(family, rank)
    return {
        "family": family,
        "rank": rank,
        "extra_in_table": sorted(table - generated),
        "missing_from_table": sorted(generated - table),
    }


def expected_table_report(family: str, rank: int) -> dict:
    """The documented discrepancy: the D table carries one phantom entry.

    For D_n the interval h_{n-1} + h_n is listed by the closed form but the
    nodes n-1 and n are not adjacent, so it is not a coroot.  A/B/C tables
    agree with the generated sets exactly.
    """
    extra = []
    if family == "D":
        phantom = [0] * rank
        phantom[rank - 2] = phantom[rank - 1] = 1
        extra = [tuple(phantom)]
    return {
        "family": family,
        "rank": rank,
        "extra_in_table": extra,
        "missing_from_table": [],
    }


def parse_system_name(text: str) -> tuple[str, int]:
    """('C', 2) from 'C2', checked as root_system checks it, building nothing."""
    name = text.strip()
    if len(name) < 2 or name[0] not in FAMILIES or not name[1:].isdigit():
        raise ValueError(f"cannot parse root system {text!r}")
    family, rank = name[0], int(name[1:])
    _check_family_rank(family, rank)
    return family, rank


@lru_cache(maxsize=None)
def root_system(family: str, rank: int | None = None) -> RootSystem:
    """Build a root system, accepting root_system('C', 2) or root_system('C2').

    Both spellings return the one cached system, with its tables."""
    if rank is None:
        return root_system(*parse_system_name(family))
    _check_family_rank(family, rank)
    coeffs = sorted(generated_positive_coroots(family, rank),
                    key=lambda c: (sum(c), c))
    return RootSystem(family, rank, tuple(Coroot(c) for c in coeffs))


# -- embedding of the rank-n base lattice ---------------------------------

def spin_nodes(family: str) -> int:
    """Nodes of the family's diagram left out of the embedded base lattice:
    a system's rank is its base rank plus this."""
    return _SPIN_NODES[family]


def base_rank(rs: RootSystem) -> int:
    """Rank of the base lattice embedded into rs (spin nodes excluded)."""
    return rs.rank - spin_nodes(rs.family)


def check_admissible(w: Weight, family: str, rank: int):
    """Raise ValueError unless w lives on the base lattice of family+rank."""
    base = rank - spin_nodes(family)
    if base != w.rank:
        raise ValueError(f"rank-{w.rank} weight is not admissible for "
                         f"{family}{rank} (expected base rank {base})")


class EmbeddedWeight(_Value):
    """Weight of a root system, coordinates over all fundamental weights."""

    _fields = ("system", "coords")

    def __init__(self, system: RootSystem, coords: tuple[int, ...]):
        coords = tuple(map(operator.index, coords))
        if len(coords) != system.rank:
            raise ValueError("coordinate length disagrees with rank")
        vars(self).update(system=system, coords=coords)

    @property
    def is_dominant(self) -> bool:
        return all(c >= 0 for c in self.coords)

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"


def iota(w: Weight, rs: RootSystem) -> EmbeddedWeight:
    """Embed a base-lattice weight, zero on the spin nodes."""
    check_admissible(w, rs.family, rs.rank)
    return EmbeddedWeight(rs, w.omega + (0,) * (rs.rank - w.rank))


def pairing(w: EmbeddedWeight, h: Coroot) -> int:
    """Evaluation w(h) = sum of coordinates against coroot coefficients."""
    if len(h.coeffs) != w.system.rank:
        raise ValueError("coroot does not belong to this system")
    return sum(c * k for c, k in zip(w.coords, h.coeffs))


def rho(rs: RootSystem) -> EmbeddedWeight:
    """Half-sum of positive roots: the all-ones weight."""
    return EmbeddedWeight(rs, (1,) * rs.rank)


def rho_value(h: Coroot) -> int:
    """rho(h) is simply the coefficient sum."""
    return sum(h.coeffs)
