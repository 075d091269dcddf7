import re
from fractions import Fraction
from math import factorial

import hypothesis.strategies as st
import pytest
from hypothesis import given

from affine_fock import fock
from affine_fock.fock import (
    Vec,
    fermion_field_coeff,
    fock_labels,
    gamma_coeff,
    heis,
    operator_matrix,
    psi,
    psi_star,
    vacuum,
    vec_json,
)
from affine_fock.maya import HALF
from affine_fock.partitions import enumerate_partitions, partitions_up_to
from conftest import partitions


def test_vec_algebra():
    v = Vec.basis("a") + 2 * Vec.basis("b")
    assert v.coeff("a") == 1
    assert v.coeff("b") == 2
    assert v - v == Vec.zero()
    assert not Vec.zero()
    assert (Fraction(1, 2) * v).coeff("b") == 1


def test_fermion_frozen_actions():
    assert psi_star(-HALF, vacuum()) == Vec.basis((1, ()))
    assert psi(HALF, vacuum()) == Vec.basis((-1, ()))
    assert psi_star(-HALF - 1, vacuum()) == Vec.basis((1, (1,)))
    # occupied / empty positions kill the state
    assert psi(-HALF, vacuum()) == Vec.zero()
    assert psi_star(HALF, vacuum()) == Vec.zero()
    # insertions at ordered positions anticommute
    w = psi_star(-HALF, psi_star(-HALF - 1, vacuum()))
    assert w == -Vec.basis((2, ()))
    assert psi_star(-HALF - 1, psi_star(-HALF, vacuum())) == Vec.basis((2, ()))


def clifford_check(positions, states) -> list:
    """Anticommutator defects of the fermions on the given basis states.

    Returns a list of (relation, position pair, label) triples that fail;
    empty means psi/psi_star satisfy the Clifford relations there.
    """
    bad = []
    for label in states:
        v = Vec.basis(label)
        for x in positions:
            for y in positions:
                lhs = psi(x, psi_star(y, v)) + psi_star(y, psi(x, v))
                rhs = v if x == y else Vec.zero()
                if lhs != rhs:
                    bad.append(("psi psi* + psi* psi", (x, y), label))
                if psi(x, psi(y, v)) + psi(y, psi(x, v)):
                    bad.append(("psi psi + psi psi", (x, y), label))
                if psi_star(x, psi_star(y, v)) + psi_star(y, psi_star(x, v)):
                    bad.append(("psi* psi* + psi* psi*", (x, y), label))
    return bad


def charge_shift(v: Vec, s: int) -> Vec:
    return Vec({(c + s, lam): coeff for (c, lam), coeff in v.terms.items()})


def test_clifford_relations_small_window():
    positions = [HALF + k for k in range(-3, 3)]
    assert clifford_check(positions, fock_labels(3, (-1, 0, 1))) == []


def test_heisenberg_frozen_actions():
    assert heis(-1, vacuum()) == Vec.basis((0, (1,)))
    assert heis(-2, vacuum()) == Vec.basis((0, (2,))) - Vec.basis((0, (1, 1)))
    assert heis(2, heis(-2, vacuum())) == 2 * vacuum()
    assert heis(1, vacuum()) == Vec.zero()
    with pytest.raises(ValueError):
        heis(0, vacuum())


modes = st.integers(min_value=-3, max_value=3).filter(bool)


@given(modes, modes, partitions(max_size=4))
def test_heisenberg_commutator(m, n, lam):
    """[heis(m), heis(n)] = m delta(m+n) on every basis vector."""
    v = Vec.basis((0, lam))
    lhs = heis(m, heis(n, v)) - heis(n, heis(m, v))
    rhs = m * v if m + n == 0 else Vec.zero()
    assert lhs == rhs


def test_heisenberg_charge_blind():
    lhs = heis(-2, Vec.basis((3, (1,))))
    rhs = charge_shift(heis(-2, Vec.basis((0, (1,)))), 3)
    assert lhs == rhs


def test_gamma_frozen_coefficients():
    # z^d coefficient of the raising kernel on the vacuum is one row,
    # its inverse one column
    assert gamma_coeff(1, 2, vacuum()) == Vec.basis((0, (2,)))
    assert gamma_coeff(1, 2, vacuum(), inverse=True) == Vec.basis((0, (1, 1)))
    assert gamma_coeff(-1, 1, Vec.basis((0, (2,)))) == Vec.basis((0, (1,)))
    assert gamma_coeff(-1, 1, vacuum()) == Vec.zero()
    assert gamma_coeff(1, 0, vacuum()) == vacuum()
    with pytest.raises(ValueError):
        gamma_coeff(2, 1, vacuum())
    with pytest.raises(ValueError):
        gamma_coeff(1, -1, vacuum())


@pytest.mark.parametrize("inverse", ["no", 0, 1, None])
def test_gamma_coeff_refuses_a_non_bool_inverse(inverse):
    """inverse used to be read by truthiness: "no" applied the inverse
    kernel, and each distinct value filled its own strip-memo entry."""
    fock._gamma_on_shape.cache_clear()
    with pytest.raises(ValueError, match=re.escape(f"inverse must be a bool: {inverse!r}")):
        gamma_coeff(1, 2, vacuum(), inverse=inverse)
    assert fock._gamma_on_shape.cache_info().misses == 0


def exponential_kernel(sign, d, inverse, lam):
    """Oracle for fock._gamma_on_shape: the z^(sign*d) coefficient of
    exp(+-sum_m z^(sign*m) heis(-sign*m)/m), expanded over partitions nu of
    d with weights 1/z_nu and one heis per part."""
    total = Vec.zero()
    for nu in enumerate_partitions(d):
        coeff = Fraction(1)
        for part in set(nu):
            k = nu.count(part)
            coeff /= part**k * factorial(k)
        if inverse and len(nu) % 2:
            coeff = -coeff
        layer = Vec({(0, lam): coeff})
        for part in nu:
            layer = heis(-sign * part, layer)
        total = total + layer
    return {shape: coeff for (_, shape), coeff in total.terms.items()}


def test_strip_kernel_matches_exponential_expansion():
    """The Pieri strip rules, raising and lowering, equal the power-sum
    exponential on every |lam| <= 6, d <= 6, and stay integral."""
    for lam in partitions_up_to(6):
        for d in range(7):
            for sign in (1, -1):
                for inverse in (False, True):
                    got = fock._gamma_on_shape(sign, d, inverse, lam)
                    assert len(dict(got)) == len(got)
                    assert dict(got) == exponential_kernel(sign, d, inverse, lam)
                    assert all(type(c) is int for _, c in got)


@given(partitions(max_size=4), st.integers(min_value=1, max_value=3))
def test_gamma_inverse_is_inverse(lam, d):
    """The degree-d coefficient of G G^-1 vanishes for d > 0."""
    v = Vec.basis((0, lam))
    total = Vec.zero()
    for b in range(d + 1):
        total = total + gamma_coeff(1, d - b, gamma_coeff(1, b, v, inverse=True))
    assert total == Vec.zero()


def test_kernel_field_matches_fermions_on_spots():
    for j in (HALF, -HALF, HALF + 2):
        assert fermion_field_coeff("psi", j, vacuum()) == psi(j, vacuum())
        assert fermion_field_coeff("psi_star", j, vacuum()) == psi_star(j, vacuum())
    with pytest.raises(ValueError):
        fermion_field_coeff("phi", HALF, vacuum())


def field_oracle(a, target, lam):
    """Oracle for the memoised fock._field_on_shape: its sum over the degree
    b that the Gminus part removes, unmemoised, with the cancelled sums
    dropped. The Gminus part is inverted when a < 0, the Gplus part when
    a > 0."""
    out = {}
    for b in range(max(0, -target), sum(lam) + 1):
        for mid, c1 in fock._gamma_on_shape(-1, b, a < 0, lam):
            for mu, c2 in fock._gamma_on_shape(1, target + b, a > 0, mid):
                out[mu] = out.get(mu, 0) + c1 * c2
    return {mu: c for mu, c in out.items() if c}


def test_field_kernel_matches_its_sum_over_b():
    """The cached rank-one field kernel keeps exactly the nonzero terms of
    the sum it replaces, in an immutable tuple, for both signs of a, every
    |lam| <= 7 and every target within |lam| + 2."""
    for lam in partitions_up_to(7):
        n = sum(lam)
        for a in (1, -1):
            for target in range(-n - 2, n + 3):
                got = fock._field_on_shape(a, target, lam)
                assert type(got) is tuple
                assert all(c for _, c in got)
                assert len(dict(got)) == len(got)
                assert dict(got) == field_oracle(a, target, lam)


def test_field_kernel_removes_no_strip_larger_than_the_shape_can_lose(monkeypatch):
    """A horizontal strip has at most one node per column and a vertical
    one at most one per row, so no removal the field kernel asks of the
    strip kernel is larger than lam[0] or len(lam)."""
    plain, asked = fock._gamma_on_shape, []

    def recorded(sign, d, inverse, lam):
        if sign == -1:
            asked.append((d, inverse, lam))
        return plain(sign, d, inverse, lam)

    fock._field_on_shape.cache_clear()
    fock._gamma_on_shape.cache_clear()
    monkeypatch.setattr(fock, "_gamma_on_shape", recorded)
    for lam in partitions_up_to(7):
        n = sum(lam)
        for a in (1, -1):
            for target in range(-n - 2, n + 3):
                fock._field_on_shape(a, target, lam)
    fock._field_on_shape.cache_clear()
    assert any(d for d, _, _ in asked)
    for d, inverse, lam in asked:
        assert d <= (len(lam) if inverse else max(lam, default=0))


def test_fermion_on_label_is_the_direct_fermion():
    """The boson-fermion suite compares the per-label pairs as a dict, so
    that dict must be the terms of the lifted direct fermion."""
    for label in fock_labels(6, range(-2, 3)):
        for a in (1, -1):
            for b in range(-10, 10):
                want = fock._fermion(a, b, Vec.basis(label)).terms
                assert dict(fock._fermion_on_label(a, b, label)) == want


def test_shape_kernels_return_tuples_of_pairs():
    """Each memoised kernel returns an immutable tuple of (shape, int)
    pairs, with no label twice and no zero coefficient."""
    results = [fock._hop_on_shape(n, l, 0, lam)
               for lam in partitions_up_to(5) for n in (2, -1) for l in (1, 3)]
    results += [fock._gamma_on_shape(sign, d, inverse, lam)
                for lam in partitions_up_to(5) for sign in (1, -1)
                for d in range(4) for inverse in (False, True)]
    results += [fock._field_on_shape(a, target, lam)
                for lam in partitions_up_to(5) for a in (1, -1) for target in range(-3, 4)]
    assert any(results)
    for got in results:
        assert type(got) is tuple
        assert all(type(mu) is tuple and type(c) is int and c for mu, c in got)
        assert len(dict(got)) == len(got)


def test_a_held_hop_result_cannot_change_later_answers():
    """A caller holding the cached hop cannot clear it: the memo's answer,
    and so heis(-1) on (1,), stays (1,1) + (2,)."""
    held = fock._hop_on_shape(-1, 1, 0, (1,))
    with pytest.raises(AttributeError):
        held.clear()
    want = Vec({(0, (1, 1)): 1, (0, (2,)): 1})
    assert fock.heis(-1, Vec.basis((0, (1,)))) == want


def test_boson_fermion_suite_small():
    report = fock.verify_boson_fermion(max_degree=4, max_charge=1)
    assert report["status"] == "ok"
    assert report["failures"] == []


def test_boson_fermion_suite_rejects_negative_bounds():
    with pytest.raises(ValueError):
        fock.verify_boson_fermion(max_degree=-1)
    with pytest.raises(ValueError):
        fock.verify_boson_fermion(max_degree=2, max_charge=-1)


def test_labels_and_json_are_deterministic():
    labels = fock_labels(2, (0, 1))
    assert labels == [
        (0, ()),
        (1, ()),
        (0, (1,)),
        (1, (1,)),
        (0, (2,)),
        (0, (1, 1)),
        (1, (2,)),
        (1, (1, 1)),
    ]
    v = Vec.basis((0, (1, 1))) - Vec.basis((0, (2,)))
    assert vec_json(v) == [
        {"coeff": "-1", "label": {"charge": 0, "partition": [2]}},
        {"coeff": "1", "label": {"charge": 0, "partition": [1, 1]}},
    ]


def test_operator_matrix_shape():
    labels = [(0, ()), (0, (1,))]
    rows, cols, entries = operator_matrix(
        lambda lab: heis(-1, Vec.basis(lab)), labels, fock.label_sort_key
    )
    assert cols == labels
    assert rows == [(0, (1,)), (0, (2,)), (0, (1, 1))]
    assert entries == {
        (0, 0): 1,
        (1, 1): 1,
        (2, 1): 1,
    }
