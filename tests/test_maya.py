from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given

from affine_fock import maya
from affine_fock import partitions as pt
from affine_fock.maya import HALF, Maya
from conftest import levels, partitions

charges = st.integers(min_value=-3, max_value=3)


def test_vacuum_sea():
    # the sea fills the large positive positions
    m = Maya()
    assert maya.evaluate(m, -HALF) == -1
    assert maya.evaluate(m, HALF) == 1
    assert maya.charge(m) == 0


def test_constructor_validates():
    with pytest.raises(ValueError):
        Maya(particles_below=[HALF])
    with pytest.raises(ValueError):
        Maya(holes_above=[-HALF])
    with pytest.raises(ValueError):
        Maya(particles_below=[1])  # not a half-integer


def test_bead_is_the_integer_position():
    for n in range(-15, 17, 2):
        h = Fraction(n, 2)
        assert maya.bead(h) == int(maya._check_half_integer(h) - HALF)
        assert type(maya.bead(h)) is int
    assert maya.bead("-3/2") == -2
    for bad in (1, Fraction(1, 3), "1"):
        with pytest.raises(ValueError) as want:
            maya._check_half_integer(bad)
        with pytest.raises(ValueError) as got:
            maya.bead(bad)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("position must be a half-integer: ")


def test_from_partition_particles():
    # particle positions of a partition are j - 1/2 - lam_j
    m = maya.from_partition((2, 1))
    got = []
    for p in maya.particle_positions(m):
        got.append(p)
        if len(got) == 4:
            break
    assert got == [
        Fraction(-3, 2),
        Fraction(1, 2),
        Fraction(5, 2),
        Fraction(7, 2),
    ]
    assert maya.charge(m) == 0


@given(partitions())
def test_charge_partition_round_trip(lam):
    m = maya.from_partition(lam)
    assert maya.to_charge_partition(m) == (0, lam)


@given(charges, partitions())
def test_charged_round_trip(c, lam):
    m = maya.from_charge_partition(c, lam)
    assert maya.to_charge_partition(m) == (c, lam)
    assert maya.charge(m) == c


@given(charges, partitions(), st.integers(min_value=-3, max_value=3))
def test_shift_translates_evaluation(c, lam, s):
    m = maya.from_charge_partition(c, lam)
    moved = maya.shift(m, s)
    assert maya.charge(moved) == c - s
    for h in [-HALF - 4, -HALF, HALF, HALF + 4]:
        assert maya.evaluate(moved, h) == maya.evaluate(m, h - s)


@given(partitions())
def test_node_patterns_match_diagram(lam):
    """Hole-then-particle around j flags an addable node of content j,
    particle-then-hole a removable one."""
    m = maya.from_partition(lam)
    got_addable = [j for j, tag in maya.node_patterns(m) if tag == "addable"]
    got_removable = [j for j, tag in maya.node_patterns(m) if tag == "removable"]
    assert got_addable == sorted(pt.content(x) for x in pt.addable_nodes(lam))
    assert got_removable == sorted(pt.content(x) for x in pt.removable_nodes(lam))


def test_strand_positions():
    assert maya.strand_positions(2) == (HALF, Fraction(3, 2))
    with pytest.raises(ValueError):
        maya.strand(Maya(), 2, Fraction(5, 2))


@given(charges, partitions(), levels)
def test_strand_assembly_round_trip(c, lam, l):
    m = maya.from_charge_partition(c, lam)
    strands = [maya.strand(m, l, k) for k in maya.strand_positions(l)]
    assert maya.assemble_strands(strands, l) == m
    assert sum(maya.charge(s) for s in strands) == c

