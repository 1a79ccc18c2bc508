"""Exact-arithmetic orders on tuples of dominant weights.

The package builds quotient posets of weight tuples with a fixed sum,
classifies their cover edges at k = 2, embeds the tuples into the
classical root systems and checks that dimension products respect the
order.  Everything runs on plain integers.
"""

from .weights import Weight, Permutation
from .tuples import (OrderVerdict, WeightTuple, compare, compare_prec,
                     coroot_stat_vector, stat_labels, windows)
from .roots import (Coroot, EmbeddedWeight, RootSystem, base_rank,
                    cartan_matrix, closed_form_coroot_table,
                    coroot_table_report, expected_table_report,
                    generated_positive_coroots, group_coroots, iota,
                    pairing, rho, rho_value, root_system)
from .posets import (CoverEdge, CoverKind, CoverWitness, DEFAULT_GUARD,
                     EquivClass, GuardExceeded, TuplePoset, build_poset,
                     classify_cover, count_tuples, covers_of,
                     enumerate_tuples, maximal_element, minimal_element,
                     poset_size_k2)
from .dimensions import (LedgerRow, RebalanceVerdict, bracket,
                         four_factor_rebalance, grand_product_identity,
                         pair_ledger, rebalance_gain, tensor_dim,
                         verify_coroot_inequalities_k2, verify_max_dim,
                         verify_monotone_k2, weyl_dim)

__version__ = "0.1.0"

__all__ = [
    "Weight", "Permutation",
    "OrderVerdict", "WeightTuple", "compare", "compare_prec",
    "coroot_stat_vector", "stat_labels", "windows",
    "Coroot", "EmbeddedWeight", "RootSystem", "base_rank", "cartan_matrix",
    "closed_form_coroot_table", "coroot_table_report",
    "expected_table_report", "generated_positive_coroots", "group_coroots",
    "iota", "pairing", "rho", "rho_value", "root_system",
    "CoverEdge", "CoverKind", "CoverWitness", "DEFAULT_GUARD", "EquivClass",
    "GuardExceeded", "TuplePoset", "build_poset", "classify_cover",
    "count_tuples", "covers_of", "enumerate_tuples", "maximal_element",
    "minimal_element", "poset_size_k2",
    "LedgerRow", "RebalanceVerdict", "bracket",
    "four_factor_rebalance", "grand_product_identity", "pair_ledger",
    "rebalance_gain", "tensor_dim",
    "verify_coroot_inequalities_k2", "verify_max_dim", "verify_monotone_k2",
    "weyl_dim",
]
