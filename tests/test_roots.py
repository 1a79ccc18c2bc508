"""Root system data: closed-form tables against two independent routes.

The library generates coroot coefficient vectors over the transposed
Cartan matrix, closing the simple roots under the simple reflections.  Here they are checked a second way,
from the coordinate realizations in the recursion oracle: for each
positive root beta the coroot coefficients are c_i = 2 (omega_i, beta) /
(beta, beta), which never touches the library's Cartan code.
"""

from fractions import Fraction

import pytest

import freudenthal_oracle as fo
from weyl_order import (
    Coroot,
    EmbeddedWeight,
    Weight,
    base_rank,
    cartan_matrix,
    closed_form_coroot_table,
    coroot_table_report,
    expected_table_report,
    generated_positive_coroots,
    iota,
    pairing,
    rho,
    rho_value,
    root_system,
)

from weight_actions import window

ALL_SYSTEMS = [("A", n) for n in (2, 3, 4)] + \
              [("B", n) for n in (2, 3, 4)] + \
              [("C", n) for n in (2, 3, 4)] + \
              [("D", n) for n in (3, 4, 5)]


def oracle_coroot_vectors(family: str, rank: int) -> set:
    _, omegas, *_ = fo._tables(family, rank)
    out = set()
    for beta in fo._positive_roots(family, rank):
        norm = fo._dot(beta, beta)
        coeffs = tuple(2 * fo._dot(om, beta) / norm for om in omegas)
        assert all(c.denominator == 1 for c in map(Fraction, coeffs))
        out.add(tuple(int(c) for c in coeffs))
    return out


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_generated_coroots_match_realization_route(family, rank):
    assert generated_positive_coroots(family, rank) == \
        oracle_coroot_vectors(family, rank)


@pytest.mark.parametrize("family,rank,count", [
    ("A", 1, 1), ("A", 2, 3), ("A", 3, 6), ("A", 4, 10),
    ("B", 2, 4), ("B", 3, 9), ("B", 4, 16),
    ("C", 1, 1), ("C", 2, 4), ("C", 3, 9), ("C", 4, 16),
    ("D", 3, 6), ("D", 4, 12), ("D", 5, 20),
    # through rank 8: n(n+1)/2 in type A, n^2 in B and C, n(n-1) in D
    ("A", 5, 15), ("A", 6, 21), ("A", 7, 28), ("A", 8, 36),
    ("B", 5, 25), ("B", 6, 36), ("B", 7, 49), ("B", 8, 64),
    ("C", 5, 25), ("C", 6, 36), ("C", 7, 49), ("C", 8, 64),
    ("D", 6, 30), ("D", 7, 42), ("D", 8, 56),
])
def test_coroot_counts(family, rank, count):
    assert len(generated_positive_coroots(family, rank)) == count


def test_frozen_small_systems():
    assert generated_positive_coroots("A", 2) == {(1, 0), (0, 1), (1, 1)}
    assert generated_positive_coroots("C", 2) == \
        {(1, 0), (0, 1), (1, 1), (1, 2)}
    assert generated_positive_coroots("B", 3) == {
        (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1), (1, 1, 1),
        (2, 2, 1), (1, 2, 1), (0, 2, 1)}


@pytest.mark.parametrize("family,rank", ALL_SYSTEMS)
def test_table_report_matches_documented_discrepancy(family, rank):
    got = coroot_table_report(family, rank)
    want = expected_table_report(family, rank)
    assert got["extra_in_table"] == want["extra_in_table"]
    assert got["missing_from_table"] == want["missing_from_table"]
    if family != "D":
        assert got["extra_in_table"] == [] and got["missing_from_table"] == []


def test_d_family_phantom_entry():
    # the literal pattern list carries one interval the diagram does not
    # support: the last two nodes are not adjacent
    report = coroot_table_report("D", 4)
    assert report["extra_in_table"] == [(0, 0, 1, 1)]
    assert report["missing_from_table"] == []
    assert (0, 0, 1, 1) in closed_form_coroot_table("D", 4)
    assert (0, 0, 1, 1) not in generated_positive_coroots("D", 4)


class TestCorootShape:
    def test_height(self):
        assert Coroot((1, 1, 0)).height == 1
        assert Coroot((1, 2, 2)).height == 2

    def test_window_marker(self):
        assert Coroot((1, 1, 0)).window is None
        assert Coroot((1, 2, 2)).window == (1, 2)
        assert Coroot((2, 2, 1)).window == (1, 1)
        assert Coroot((0, 1, 2)).window == (2, 3)

    def test_window_partner(self):
        assert Coroot((1, 2, 2)).window_partner_coeffs() == (1, 0, 0)
        assert Coroot((0, 1, 2)).window_partner_coeffs() == (0, 1, 0)
        assert Coroot((2, 2, 1)).window_partner_coeffs() is None  # i = j
        assert Coroot((1, 1, 1)).window_partner_coeffs() is None  # height 1

    def test_coefficients_must_be_integers(self):
        for bad in ((1.5, 2, 2), ("1", 2, 2)):
            with pytest.raises(TypeError):
                Coroot(bad)

    def test_str(self):
        assert str(Coroot((1, 2, 2))) == "h1+2h2+2h3"
        assert str(Coroot((0, 1, 0))) == "h2"
        assert str(Coroot((0, 0, 0))) == "0"


class TestRootSystemObject:
    def test_parsing_and_cache_identity(self):
        assert root_system("C2") == root_system("C", 2)
        assert root_system("C2") is root_system("C2")  # cached
        # both spellings share one system, so each table is filled once
        assert root_system("C2") is root_system("C", 2)
        assert root_system(" C2 ") is root_system("C", 2)
        assert root_system("C2").part_dims is root_system("C", 2).part_dims
        assert root_system("C2").name == "C2"
        with pytest.raises(ValueError):
            root_system("E8")
        with pytest.raises(ValueError):
            root_system("Cx")
        with pytest.raises(ValueError):
            root_system("B", 1)
        with pytest.raises(ValueError):
            root_system("D", 2)

    def test_coroots_sorted_by_height_then_coeffs(self):
        C2 = root_system("C2")
        assert [h.coeffs for h in C2.coroots] == \
            [(0, 1), (1, 0), (1, 1), (1, 2)]

    def test_coroot_lookup(self):
        C2 = root_system("C2")
        assert C2.coroot_by_coeffs((1, 2)) is C2.coroots[3]
        assert C2.coroot_by_coeffs((2, 1)) is None

    def test_coroot_lookup_stays_within_its_system(self):
        # both spellings build equal systems; each lookup answers from its own
        for rs in (root_system("C", 2), root_system("C2")):
            assert rs.coroot_by_coeffs((1, 2)) is rs.coroots[3]

    def test_base_rank(self):
        assert base_rank(root_system("A3")) == 3
        assert base_rank(root_system("C3")) == 3
        assert base_rank(root_system("B3")) == 2
        assert base_rank(root_system("D4")) == 2


class TestCartan:
    def test_frozen_matrices(self):
        assert cartan_matrix("A", 1) == [[2]]
        assert cartan_matrix("C", 2) == [[2, -2], [-1, 2]]
        assert cartan_matrix("B", 2) == [[2, -1], [-2, 2]]
        assert cartan_matrix("D", 4) == [
            [2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]]

    def test_agrees_with_realizations(self):
        for family, rank in ALL_SYSTEMS:
            alphas = fo._simple_roots(family, rank)
            want = fo._cartan_from_roots(alphas)
            got = cartan_matrix(family, rank)
            # realization convention: entry (i, j) = <alpha_j, alpha_i^vee>
            assert all(Fraction(got[i][j]) == want[i][j]
                       for i in range(rank) for j in range(rank))


class TestEmbedding:
    def test_iota_pads_spin_nodes(self):
        B3 = root_system("B3")
        assert iota(Weight((2, 1)), B3).coords == (2, 1, 0)
        D4 = root_system("D4")
        assert iota(Weight((2, 1)), D4).coords == (2, 1, 0, 0)
        assert iota(Weight((1, 0, 2)), root_system("C3")).coords == (1, 0, 2)

    def test_iota_rank_check(self):
        with pytest.raises(ValueError):
            iota(Weight((1, 0, 0)), root_system("B3"))

    def test_coordinates_must_be_integers(self):
        C2 = root_system("C2")
        for bad in ((1.5, 2), ("1", 2)):
            with pytest.raises(TypeError):
                EmbeddedWeight(C2, bad)

    def test_coordinate_length_is_read_off_the_coerced_tuple(self):
        C2 = root_system("C2")
        assert EmbeddedWeight(C2, iter([1, 2])) == EmbeddedWeight(C2, (1, 2))
        for short in ((1,), iter([1]), iter([1, 2, 3])):
            with pytest.raises(ValueError, match="^coordinate length "):
                EmbeddedWeight(C2, short)

    def test_dominance_flag(self):
        B3 = root_system("B3")
        assert iota(Weight((2, 0)), B3).is_dominant

    def test_pairing_frozen(self):
        B3 = root_system("B3")
        h = B3.coroot_by_coeffs((1, 2, 1))
        assert pairing(iota(Weight((2, 1)), B3), h) == 4

    def test_pairing_linearity(self):
        C3 = root_system("C3")
        a, b = Weight((2, 0, 1)), Weight((0, 3, 1))
        for h in C3.coroots:
            assert pairing(iota(a + b, C3), h) == \
                pairing(iota(a, C3), h) + pairing(iota(b, C3), h)

    def test_pairing_rejects_foreign_coroot(self):
        C2, C3 = root_system("C2"), root_system("C3")
        with pytest.raises(ValueError):
            pairing(iota(Weight((1, 0)), C2), C3.coroots[0])

    def test_doubling_rows_in_type_b(self):
        # rows whose doubled block starts at the front evaluate admissible
        # weights to twice a window sum
        B3 = root_system("B3")
        w = Weight((2, 1))
        assert pairing(iota(w, B3), B3.coroot_by_coeffs((2, 2, 1))) == \
            2 * window(w, 1, 2)
        assert pairing(iota(w, B3), B3.coroot_by_coeffs((0, 2, 1))) == \
            2 * window(w, 2, 2)

    def test_rho(self):
        C2 = root_system("C2")
        assert rho(C2).coords == (1, 1)
        assert rho_value(C2.coroot_by_coeffs((1, 2))) == 3
        for h in C2.coroots:
            assert pairing(rho(C2), h) == rho_value(h)
