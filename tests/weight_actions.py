"""The S_{n+1} action algebra and the reference tuple transforms.

The package decides part order and the sorting frame in one place each
(the order of ``posets._part_multisets``, ``posets._first_sorter`` and
the sort inside ``classify_cover``), and window and stat values in one place
each (``tuples._part_window_values``, ``tuples._sorted_prefix_stats``).
This module keeps the second routes those decisions stand for, as plain
functions over the package's ``Permutation``, ``Weight``,
``WeightTuple`` and ``OrderVerdict``:

- permutation algebra: ``compose``, ``inverse``, ``is_identity``,
  ``identity``, ``transposition`` and ``permute``;
- the symmetric group acting on epsilon coordinates: ``act`` (plain S_n,
  or S_{n+1} on the padded vector), ``sorting_permutation`` and
  ``dominant_representative``;
- window values one window at a time: ``window`` and ``window_values``;
- tuple transforms: ``sk_permute``, ``canonical_form``, ``pi_project``,
  and ``r_stat_by_subsets``, the explicit minimum over part subsets;
- ``flip``, the verdict of the swapped comparison.

The cover oracles build on them, and the paper-property tests (group
action, part-permutation invariance, window projection) run through
them.
"""

import itertools

from weyl_order import OrderVerdict, Permutation, Weight, WeightTuple


# -- permutation algebra ----------------------------------------------------

def compose(p: Permutation, q: Permutation) -> Permutation:
    """p after q: compose(p, q)(i) = p(q(i))."""
    if p.degree != q.degree:
        raise ValueError("degree mismatch")
    return Permutation(tuple(p.images[q.images[i]] for i in range(p.degree)))


def inverse(p: Permutation) -> Permutation:
    inv = [0] * p.degree
    for i, img in enumerate(p.images):
        inv[img] = i
    return Permutation(tuple(inv))


def is_identity(p: Permutation) -> bool:
    return all(i == img for i, img in enumerate(p.images))


def identity(degree: int) -> Permutation:
    return Permutation(tuple(range(degree)))


def transposition(i: int, degree: int) -> Permutation:
    """Adjacent swap of positions i, i+1 (1-based i)."""
    if not 1 <= i < degree:
        raise ValueError(f"s_{i},{i + 1} undefined at degree {degree}")
    images = list(range(degree))
    images[i - 1], images[i] = images[i], images[i - 1]
    return Permutation(tuple(images))


def permute(p: Permutation, values) -> tuple:
    """Move the entry at slot i to slot p(i)."""
    out = [None] * p.degree
    for i, v in enumerate(values):
        out[p.images[i]] = v
    return tuple(out)


# -- the action on epsilon coordinates --------------------------------------

def act(perm: Permutation, w: Weight) -> Weight:
    """Permute epsilon coordinates; degree n acts plainly, n+1 padded."""
    if perm.degree == w.rank:
        return Weight.from_eps(permute(perm, w.eps()))
    if perm.degree == w.rank + 1:
        padded = permute(perm, w.eps_padded())
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


# -- window values ----------------------------------------------------------

def window(w: Weight, i: int, j: int) -> int:
    """Sum of omega coordinates a_i + ... + a_j, 1-based inclusive."""
    if not 1 <= i <= j <= w.rank:
        raise ValueError(f"window ({i},{j}) out of range for rank {w.rank}")
    return sum(w.omega[i - 1 : j])


def window_values(x: WeightTuple, i: int, j: int) -> tuple[int, ...]:
    """Per-part window sums, in part order (not sorted)."""
    return tuple(window(p, i, j) for p in x.parts)


# -- tuple transforms -------------------------------------------------------

def sk_permute(x: WeightTuple, perm: Permutation) -> WeightTuple:
    """Reorder the parts; the stat vector is invariant under this."""
    if perm.degree != x.k:
        raise ValueError(f"permutation degree {perm.degree} != k={x.k}")
    return WeightTuple(permute(perm, x.parts))


def canonical_form(x: WeightTuple) -> WeightTuple:
    """Parts rearranged into weakly decreasing epsilon-lex order, stably."""
    order = sorted(range(x.k), key=lambda p: (x.parts[p].eps(), -p), reverse=True)
    return WeightTuple(tuple(x.parts[p] for p in order))


def pi_project(x: WeightTuple, i: int, j: int) -> WeightTuple:
    """Collapse each part to its (i, j) window value, as a rank-1 tuple.

    The projected tuple's stats at window (1, 1) reproduce r_{(i,j),l}
    of the original for every l.
    """
    return WeightTuple(tuple(Weight((v,)) for v in window_values(x, i, j)))


def r_stat_by_subsets(x: WeightTuple, i: int, j: int, ell: int) -> int:
    """r_{(i,j),ell} as an explicit minimum over all ell-part subsets.

    Exponential in k; a cross-check for the sorted-prefix route.
    """
    if not 1 <= ell <= x.k:
        raise ValueError(f"ell={ell} out of range for k={x.k}")
    vals = window_values(x, i, j)
    return min(sum(vals[p] for p in pick)
               for pick in itertools.combinations(range(x.k), ell))


def flip(v: OrderVerdict) -> OrderVerdict:
    """The verdict of the comparison with its arguments swapped."""
    if v is OrderVerdict.LESS:
        return OrderVerdict.GREATER
    if v is OrderVerdict.GREATER:
        return OrderVerdict.LESS
    return v
