from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from affine_fock import equivariant as eq
from affine_fock import core_quotient as cq
from affine_fock import partitions as pt
from conftest import levels, partitions


def test_fixed_point_char_frozen():
    assert eq.fixed_point_char((2, 1)) == pt.LaurentPoly({-1: 1, 0: 1, 1: 1})
    assert eq.fixed_point_char(()) == pt.LaurentPoly.zero()


def test_tangent_char_frozen():
    assert eq.tangent_char_point((1,), 2) == pt.LaurentPoly.zero()
    assert eq.tangent_char_point((3,), 3) == pt.LaurentPoly({3: 1, -3: 1})
    assert eq.tangent_char_formula((3,), 3) == pt.LaurentPoly({3: 1, -3: 1})


@given(partitions(max_size=10), st.integers(min_value=2, max_value=4))
def test_tangent_two_routes_agree(lam, l):
    assert eq.tangent_char_formula(lam, l) == eq.tangent_char_point(lam, l)


@given(partitions(max_size=10), st.integers(min_value=2, max_value=4))
def test_tangent_dimension_is_twice_hook_count(lam, l):
    _, q = cq.core_and_quotient(lam, l)
    assert eq.tangent_char_point(lam, l).at_one() == 2 * sum(pt.size(part) for part in q)


@given(partitions(max_size=10), st.integers(min_value=2, max_value=4))
def test_hook_pairs_gap_multiset(lam, l):
    gaps = sorted(int(y - x) for x, y in eq.hook_pairs(lam, l))
    hooks = sorted(h for h in pt.hook_lengths(lam).values() if h % l == 0)
    assert gaps == hooks


def test_hook_pairs_frozen():
    assert eq.hook_pairs((2,), 2) == [(Fraction(-3, 2), Fraction(1, 2))]
    assert eq.hook_pairs((1,), 2) == []


def test_chamber_char_frozen():
    want = pt.LaurentPoly({-1: 1, 0: 1})
    assert eq.infinity_chamber_char((0, 0), ((1,), ()), 2) == want
    assert eq.fixed_point_char((2,)) == want
    with pytest.raises(ValueError):
        eq.infinity_chamber_char((1, 0), ((), ()), 2)


@given(partitions(max_size=12), levels)
def test_chamber_chars_agree(lam, l):
    c, q = cq.core_and_quotient(lam, l)
    assert eq.infinity_chamber_char(c, q, l) == eq.fixed_point_char(lam)


def test_points_vector_frozen():
    assert eq.points_vector((1, -1), 0, 2) == (1, 0)
    assert eq.points_vector((0, 0), 2, 2) == (2, 2)
    assert eq.points_vector((0, -1, 1), 1, 3) == (2, 2, 3)
    with pytest.raises(ValueError):
        eq.points_vector((1, 0), 0, 2)
    with pytest.raises(ValueError):
        eq.points_vector((1, -1), -1, 2)


def test_points_vector_refuses_non_integer_core():
    with pytest.raises(ValueError, match="must be ints"):
        eq.points_vector((1.7, -1.7), 0, 2)
    with pytest.raises(ValueError, match="must be ints"):
        eq.points_vector((0.5, -0.5, 0), 1, 3)


@given(partitions(max_size=12), levels)
def test_points_vector_matches_residue_counts(lam, l):
    c, q = cq.core_and_quotient(lam, l)
    n = sum(pt.size(part) for part in q)
    assert eq.points_vector(c, n, l) == pt.residue_counts(lam, l)


def test_euler_pairing_frozen():
    assert eq.euler_pairing_diag((1,), 2) == 1
    assert eq.euler_pairing_diag((3,), 3) == -9
    assert eq.euler_pairing_diag((2,), 2) == -4
    assert eq.normalization((3,), 3) == -3
    assert eq.normalization((), 2) == 1


@given(partitions(max_size=10), st.integers(min_value=2, max_value=4))
def test_normalization_squares_to_euler_pairing(lam, l):
    hooks = sum(1 for h in pt.hook_lengths(lam).values() if h % l == 0)
    n = eq.normalization(lam, l)
    assert n * n == (-1) ** hooks * eq.euler_pairing_diag(lam, l)


def test_normal_char_frozen():
    assert eq.normal_char((1,), (2,), 1, 2) == pt.LaurentPoly({-2: 1})
    with pytest.raises(ValueError):
        eq.normal_char((1,), (3,), 0, 2)  # two nodes apart
    with pytest.raises(ValueError):
        eq.normal_char((1,), (2,), 0, 2)  # wrong residue class


@given(partitions(max_size=8), st.integers(min_value=2, max_value=3))
def test_normal_char_node_identity(lam, l):
    """normal_char differs from the tangent character of the smaller shape
    by one weight per matching boundary node."""
    for i in range(l):
        for x in pt.removable_of_residue(lam, i, l):
            mu = pt.remove_node(lam, x)
            cx = pt.content(x)
            delta: dict = {}
            for a in pt.addable_of_residue(lam, i, l):
                e = cx - pt.content(a)
                delta[e] = delta.get(e, 0) + 1
            for r in pt.removable_of_residue(mu, i, l):
                e = cx - pt.content(r)
                delta[e] = delta.get(e, 0) - 1
            lhs = eq.normal_char(mu, lam, i, l) - eq.tangent_char_formula(mu, l)
            assert lhs == pt.LaurentPoly(delta)


def test_geometric_e_frozen():
    assert eq.geometric_e(0, (1,), (), 2) == 1
    assert eq.geometric_e(1, (2,), (1,), 2) == 2
    assert eq.geometric_e(1, (2, 1), (2,), 3) == -3
    # wrong residue class, and not a one-node removal
    assert eq.geometric_e(0, (2,), (1,), 2) == 0
    assert eq.geometric_e(0, (1,), (1,), 2) == 0


def removed_node_by_sets(lam, mu):
    """Oracle for eq._removed_node: the one node of lam missing from mu,
    read off both node sets, or None."""
    big, small = set(pt.nodes(lam)), set(pt.nodes(mu))
    if small <= big and len(big) - len(small) == 1:
        (x,) = big - small
        return x
    return None


@given(partitions(max_size=10), partitions(max_size=10))
def test_removed_node_matches_its_set_oracle(lam, mu):
    """Reading the first row where lam and mu differ finds the same node as
    the node sets, on random pairs and on every removal from lam."""
    removals = [pt.remove_node(lam, (a, p - 1)) for a, p in enumerate(lam)
                if a + 1 == len(lam) or lam[a + 1] < p]
    for other in [mu, lam, *removals]:
        assert eq._removed_node(lam, other) == removed_node_by_sets(lam, other)
        assert eq._removed_node(other, lam) == removed_node_by_sets(other, lam)


@given(partitions(max_size=8), st.integers(min_value=2, max_value=3))
def test_normalization_ratio_from_boundary_contents(lam, l):
    """The ratio of weight-product normalizations across a one-node removal
    equals a signed product of content gaps to the matching boundary nodes."""
    for i in range(l):
        for x in pt.removable_of_residue(lam, i, l):
            mu = pt.remove_node(lam, x)
            cx = pt.content(x)
            ratio = Fraction(eq.normalization(lam, l), eq.normalization(mu, l))
            want = Fraction(1)
            for a in pt.addable_of_residue(lam, i, l):
                want *= -abs(cx - pt.content(a))
            for r in pt.removable_of_residue(mu, i, l):
                want /= -abs(cx - pt.content(r))
            assert ratio == want


def test_fixed_point_suite():
    report = eq.verify_fixed_points(3, 8)
    assert report["status"] == "ok"
    assert report["failures"] == []
    with pytest.raises(ValueError):
        eq.verify_fixed_points(3, -1)


def test_geometric_match_suite():
    for l, degree in ((2, 5), (3, 6)):
        assert eq.verify_geometric_match(l, degree)["status"] == "ok"
    with pytest.raises(ValueError):
        eq.verify_geometric_match(2, -1)
