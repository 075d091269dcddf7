from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from affine_fock import partitions as pt
from affine_fock.partitions import LaurentPoly
from conftest import levels, partitions


def test_as_partition_validates():
    assert pt.as_partition([3, 1]) == (3, 1)
    assert pt.as_partition(()) == ()
    with pytest.raises(ValueError):
        pt.as_partition([1, 2])
    with pytest.raises(ValueError):
        pt.as_partition([2, 0])
    with pytest.raises(ValueError):
        pt.as_partition([-1])


def test_nodes_and_contents():
    assert list(pt.nodes((2, 1))) == [(0, 0), (0, 1), (1, 0)]
    assert [pt.content(x) for x in pt.nodes((2, 1))] == [0, -1, 1]
    assert pt.contains((2, 1), (0, 1))
    assert not pt.contains((2, 1), (1, 1))


def test_transpose_frozen():
    assert pt.transpose(()) == ()
    assert pt.transpose((2,)) == (1, 1)
    assert pt.transpose((2, 1)) == (2, 1)
    assert pt.transpose((4, 2, 1)) == (3, 2, 1, 1)


@given(partitions())
def test_transpose_involution(lam):
    assert pt.transpose(pt.transpose(lam)) == lam
    assert pt.size(pt.transpose(lam)) == pt.size(lam)


def test_diagonal_char_frozen():
    assert pt.diagonal_char(()) == LaurentPoly.zero()
    assert pt.diagonal_char((1,)) == LaurentPoly({0: 1})
    assert pt.diagonal_char((2, 1)) == LaurentPoly({-1: 1, 0: 1, 1: 1})


@given(partitions())
def test_diagonal_char_counts_nodes(lam):
    char = pt.diagonal_char(lam)
    assert char.at_one() == pt.size(lam)
    # transposing mirrors every content
    assert pt.diagonal_char(pt.transpose(lam)) == char.compose_power(-1)


@given(partitions(), levels)
def test_residue_counts_split_the_size(lam, l):
    counts = pt.residue_counts(lam, l)
    assert len(counts) == l
    assert sum(counts) == pt.size(lam)
    char = pt.diagonal_char(lam)
    assert counts == tuple(char.keep_residue(l, r).at_one() for r in range(l))


def test_addable_removable_frozen():
    assert pt.addable_nodes(()) == [(0, 0)]
    assert pt.removable_nodes(()) == []
    assert pt.addable_nodes((2, 1)) == [(0, 2), (1, 1), (2, 0)]
    assert pt.removable_nodes((2, 1)) == [(0, 1), (1, 0)]


@given(partitions())
def test_one_more_addable_than_removable(lam):
    assert len(pt.addable_nodes(lam)) == len(pt.removable_nodes(lam)) + 1


@given(partitions(), levels)
def test_boundary_nodes_merge(lam, l):
    merged = pt.boundary_nodes(lam)
    assert sorted(x for x, tag in merged if tag == "addable") == sorted(
        pt.addable_nodes(lam)
    )
    contents = [pt.content(x) for x, _ in merged]
    assert contents == sorted(contents)
    for i in range(l):
        chosen = pt.boundary_nodes(lam, l, i)
        assert all(pt.content(x) % l == i for x, _ in chosen)


@given(partitions())
def test_add_remove_round_trip(lam):
    for x in pt.removable_nodes(lam):
        assert pt.add_node(pt.remove_node(lam, x), x) == lam
    for x in pt.addable_nodes(lam):
        assert pt.remove_node(pt.add_node(lam, x), x) == lam


def test_add_remove_reject_bad_nodes():
    with pytest.raises(ValueError):
        pt.add_node((2, 1), (0, 1))
    with pytest.raises(ValueError):
        pt.remove_node((2, 1), (0, 0))


def test_hook_lengths_frozen():
    assert pt.hook_lengths((2, 1)) == {(0, 0): 3, (0, 1): 1, (1, 0): 1}
    assert pt.hook_lengths((3,)) == {(0, 0): 3, (0, 1): 2, (0, 2): 1}


@given(partitions())
def test_hook_multiset_transpose_invariant(lam):
    hooks = sorted(pt.hook_lengths(lam).values())
    assert sorted(pt.hook_lengths(pt.transpose(lam)).values()) == hooks


def test_eta_frozen():
    # residue-1 boundary of (2,1) at l=2 holds two removables, at contents
    # -1 and 1; scanning from the content-1 node sees one removable left
    assert pt.eta((2, 1), 1, (1, 0), 2, "left") == -1
    assert pt.eta((2, 1), 1, (1, 0), 2, "right") == 0
    assert pt.eta((2, 1), 1, (0, 1), 2, "left") == 0
    assert pt.eta((2, 1), 1, (0, 1), 2, "right") == -1
    with pytest.raises(ValueError):
        pt.eta((2, 1), 1, (1, 0), 2, "up")


@given(partitions(), levels)
def test_eta_scan_bookkeeping(lam, l):
    """Both one-sided scans around a boundary node add up to the addable
    minus removable count, off by one with the sign of the node's kind."""
    for i in range(l):
        n_add = len(pt.addable_of_residue(lam, i, l))
        n_rem = len(pt.removable_of_residue(lam, i, l))
        for x in pt.removable_of_residue(lam, i, l):
            both = pt.eta(lam, i, x, l, "left") + pt.eta(lam, i, x, l, "right")
            assert both == n_add - n_rem + 1
        for x in pt.addable_of_residue(lam, i, l):
            both = pt.eta(lam, i, x, l, "left") + pt.eta(lam, i, x, l, "right")
            assert both == n_add - n_rem - 1


laurent_dicts = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=6,
)


@given(laurent_dicts)
def test_laurent_json_round_trip(coeffs):
    poly = LaurentPoly(coeffs)
    assert LaurentPoly.from_json(poly.to_json()) == poly


@given(laurent_dicts, laurent_dicts)
def test_laurent_arithmetic(c1, c2):
    p, q = LaurentPoly(c1), LaurentPoly(c2)
    assert (p + q).at_one() == p.at_one() + q.at_one()
    assert (p * q).at_one() == p.at_one() * q.at_one()
    assert p - p == LaurentPoly.zero()
    assert p.compose_power(-1).compose_power(-1) == p
    assert p.shift(3).shift(-3) == p


@given(laurent_dicts, levels)
def test_laurent_residue_classes_partition(coeffs, l):
    poly = LaurentPoly(coeffs)
    total = LaurentPoly.zero()
    for r in range(l):
        total = total + poly.keep_residue(l, r)
    assert total == poly


def test_laurent_fraction_coefficients():
    poly = LaurentPoly({2: Fraction(1, 3)})
    assert (3 * poly).coeff(2) == 1
    assert LaurentPoly.from_json(poly.to_json()) == poly


def test_enumeration_counts_and_order():
    sizes = [len(pt.enumerate_partitions(n)) for n in range(11)]
    assert sizes == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert pt.partitions_up_to(3) == [
        (),
        (1,),
        (2,),
        (1, 1),
        (3,),
        (2, 1),
        (1, 1, 1),
    ]
    assert pt.partitions_up_to(0) == [()]
    with pytest.raises(ValueError):
        pt.partitions_up_to(-1)


@given(st.integers(min_value=0, max_value=10))
def test_enumeration_is_exact(n):
    parts = pt.enumerate_partitions(n)
    assert len(set(parts)) == len(parts)
    assert all(pt.size(lam) == n for lam in parts)
