import pytest
from hypothesis import given

from affine_fock import core_quotient as cq
from affine_fock import maya
from affine_fock import partitions as pt
from conftest import levels, partitions

# small decompositions computed by hand on the bead diagram
FROZEN = [
    ((), 2, (0, 0), ((), ())),
    ((1,), 2, (1, -1), ((), ())),
    ((2,), 2, (0, 0), ((1,), ())),
    ((1, 1), 2, (0, 0), ((), (1,))),
    ((3,), 2, (1, -1), ((), (1,))),
    ((2, 1), 2, (-1, 1), ((), ())),
    ((4,), 2, (0, 0), ((2,), ())),
    ((3, 1), 2, (0, 0), ((), (2,))),
    ((2, 2), 2, (0, 0), ((1,), (1,))),
    ((1, 1, 1), 2, (1, -1), ((1,), ())),
    ((2,), 3, (1, -1, 0), ((), (), ())),
    ((2, 1), 3, (0, 0, 0), ((), (1,), ())),
]


@pytest.mark.parametrize("lam,l,c,q", FROZEN)
def test_frozen_decompositions(lam, l, c, q):
    assert cq.core_and_quotient(lam, l) == (c, q)
    assert cq.cq_inverse(c, q, l) == lam


def maya_core_and_quotient(lam, l):
    """Oracle for the abacus: read the Maya diagram strand by strand."""
    m = maya.from_partition(lam)
    c, q = [], []
    for k in maya.strand_positions(l):
        charge, shape = maya.to_charge_partition(maya.strand(m, l, k))
        c.append(-charge)
        q.append(shape)
    return tuple(c), tuple(q)


def maya_cq_inverse(c, q, l):
    """Oracle for the abacus inverse: interleave the strand diagrams."""
    strands = [maya.from_charge_partition(-ck, qk) for ck, qk in zip(c, q)]
    charge, lam = maya.to_charge_partition(maya.assemble_strands(strands, l))
    assert charge == 0
    return lam


@pytest.mark.parametrize("l", range(2, 7))
def test_abacus_matches_maya_strands(l):
    """Every |lam| <= 12, both directions, against the strand route."""
    for lam in pt.partitions_up_to(12):
        c, q = cq.core_and_quotient(lam, l)
        assert (c, q) == maya_core_and_quotient(lam, l)
        assert cq.cq_inverse(c, q, l) == maya_cq_inverse(c, q, l) == lam


@pytest.mark.parametrize("l", [0, -1])
def test_nonpositive_strand_count_rejected(l):
    for call in (
        lambda: cq.core_and_quotient((2, 1), l),
        lambda: cq.cq_inverse((), (), l),
        lambda: cq.core_partition((), l),
        lambda: cq.quotient_char_rhs((), (), l),
    ):
        with pytest.raises(ValueError, match="number of strands must be positive"):
            call()


def test_frozen_inverse_cases():
    assert cq.cq_inverse((1, -1), ((1,), ()), 2) == (1, 1, 1)
    assert cq.cq_inverse((1, -1), ((), (1,)), 2) == (3,)


def test_core_vector_validation():
    with pytest.raises(ValueError):
        cq.check_core_vector((1, 0), 2)
    with pytest.raises(ValueError):
        cq.check_core_vector((1, -1, 0), 2)
    with pytest.raises(ValueError):
        cq.cq_inverse((1, -1), ((),), 2)


@given(partitions(), levels)
def test_round_trip_and_size_law(lam, l):
    c, q = cq.core_and_quotient(lam, l)
    assert sum(c) == 0
    assert cq.cq_inverse(c, q, l) == lam
    total, core, hooks = cq.size_decomposition(lam, l)
    assert total == pt.size(lam)
    assert hooks == sum(pt.size(part) for part in q)
    assert total == core + l * hooks


@given(partitions(), levels)
def test_core_partition_is_a_core(lam, l):
    c, _ = cq.core_and_quotient(lam, l)
    core = cq.core_partition(c, l)
    assert cq.is_l_core(core, l)
    assert cq.core_and_quotient(core, l) == (c, ((),) * l)


@given(partitions(), levels)
def test_hook_count_matches_quotient_size(lam, l):
    divisible = sum(1 for h in pt.hook_lengths(lam).values() if h % l == 0)
    _, q = cq.core_and_quotient(lam, l)
    assert divisible == sum(pt.size(part) for part in q)


@given(partitions(), levels)
def test_quotient_character_identity(lam, l):
    lhs, rhs = cq.quotient_char_identity(lam, l)
    assert lhs == pt.diagonal_char(lam)
    assert lhs == rhs


def test_quotient_char_frozen():
    # single inflated block: core 0, one box on the first strand
    char = cq.quotient_char_rhs((0, 0), ((1,), ()), 2)
    assert char == pt.LaurentPoly({-1: 1, 0: 1})
    assert char == pt.diagonal_char(cq.cq_inverse((0, 0), ((1,), ()), 2))
