"""Read single window statistics off a tuple's stat vector.

``WeightTuple.stat_vector`` lists r_{(i,j),ell} for every label of
``stat_labels``; the tests that name one statistic look it up here.
"""

from weyl_order import stat_labels


def r_stat(x, i, j, ell):
    """r_{(i,j),ell} of x: the smallest sum of ell parts' (i, j) window values."""
    return x.stat_vector[stat_labels(x.rank, x.k).index((i, j, ell))]
