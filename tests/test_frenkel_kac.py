import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial

import hypothesis.strategies as st
import pytest
from hypothesis import given

from affine_fock import frenkel_kac as fk
from affine_fock.fock import Vec
from affine_fock.partitions import enumerate_partitions, partitions_up_to
from conftest import partitions


def shape_terms(v: Vec) -> dict:
    return {lam: coeff for lam, coeff in v.terms.items()}


# independently recomputed one-step actions, checked on both realizations
FROZEN_ACTIONS = [
    ("e_0", (1,), 2, {(): 1}),
    ("e_1", (2,), 2, {(1,): -1}),
    ("e_1", (1, 1), 2, {(1,): 1}),
    ("e_1", (2, 1), 2, {(1, 1): 1, (2,): -1}),
    ("e_0", (4,), 2, {}),
    ("e_1", (3, 1), 2, {(3,): 1}),
    ("e_0", (2, 2), 2, {(2, 1): 1}),
    ("f_0", (), 2, {(1,): 1}),
    ("f_1", (1,), 2, {(2,): -1, (1, 1): 1}),
    ("f_0", (1,), 2, {}),
    ("f_1", (), 2, {}),
    ("f_0", (2, 1), 2, {(3, 1): -1, (2, 1, 1): -1, (2, 2): 1}),
    ("f_0", (1, 1), 2, {(1, 1, 1): 1}),
    ("f_0", (2,), 2, {(3,): 1}),
    ("h_0", (1,), 2, {(1,): -1}),
    ("h_1", (1,), 2, {(1,): 2}),
    ("p_0(-1)", (), 2, {(1, 1): 1, (2,): -1}),
    ("p_1(-1)", (), 2, {(2,): 1, (1, 1): -1}),
    ("p_1(1)", (2,), 2, {(): 1}),
    ("e_0", (1,), 3, {(): 1}),
    ("e_1", (2, 1), 3, {(2,): 1}),
    ("h_0", (2, 1), 3, {(2, 1): 1}),
]


@pytest.mark.parametrize("g,lam,l,expected", FROZEN_ACTIONS)
def test_frozen_action_explicit_route(g, lam, l, expected):
    got = fk.explicit_action(g, Vec.basis(lam), l)
    assert shape_terms(got) == expected


@pytest.mark.parametrize("g,lam,l,expected", FROZEN_ACTIONS)
def test_frozen_action_vertex_route(g, lam, l, expected):
    moved = fk.fk_action(g, fk.transport(Vec.basis(lam), l), l)
    got = fk.transport_inverse(moved, l)
    assert shape_terms(got) == expected


def test_parse_generator():
    assert fk.parse_generator("e_0") == ("e", 0, None)
    assert fk.parse_generator("p_2(-3)") == ("p", 2, -3)
    for bad in ("q_1", "e", "p_0(0)", "e_x", "p_1(2"):
        with pytest.raises(ValueError):
            fk.parse_generator(bad)


def test_lattice_frozen():
    assert fk.theta(3) == (1, 0, -1)
    assert fk.simple_root(1, 3) == (1, -1, 0)
    assert fk.simple_root(2, 3) == (0, 1, -1)
    assert fk.cartan_matrix(2) == [[2, -2], [-2, 2]]
    assert fk.cartan_matrix(3) == [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
    assert fk.epsilon(fk.theta(2), fk.theta(2), 2) == -1
    assert fk.epsilon(fk.theta(3), fk.theta(3), 3) == -1
    with pytest.raises(ValueError):
        fk.simple_root(0, 3)
    with pytest.raises(ValueError):
        fk.check_lattice_vector((1, 0), 2)


@st.composite
def vector_pairs(draw):
    l = draw(st.integers(min_value=2, max_value=4))
    heads = st.lists(
        st.integers(min_value=-3, max_value=3), min_size=l - 1, max_size=l - 1
    )
    alpha = tuple(draw(heads))
    beta = tuple(draw(heads))
    return alpha + (-sum(alpha),), beta + (-sum(beta),), l


@given(vector_pairs())
def test_epsilon_cocycle_laws(abl):
    alpha, beta, l = abl
    assert fk.epsilon(alpha, beta, l) * fk.epsilon(beta, alpha, l) == (-1) ** fk.pairing(
        alpha, beta
    )
    gamma = tuple(a + b for a, b in zip(alpha, beta))
    probe = fk.theta(l)
    assert fk.epsilon(gamma, probe, l) == fk.epsilon(alpha, probe, l) * fk.epsilon(
        beta, probe, l
    )
    assert fk.epsilon(probe, gamma, l) == fk.epsilon(probe, alpha, l) * fk.epsilon(
        probe, beta, l
    )


@given(partitions(max_size=8), st.integers(min_value=2, max_value=4))
def test_transport_round_trip(lam, l):
    v = Vec.basis(lam)
    assert fk.transport_inverse(fk.transport(v, l), l) == v


def test_transport_frozen():
    assert fk.transport(Vec.basis(()), 2) == Vec.basis(((0, 0), ((), ())))
    assert fk.transport(Vec.basis((1,)), 2) == Vec.basis(((1, -1), ((), ())))
    assert fk.transport(Vec.basis((2,)), 2) == Vec.basis(((0, 0), ((1,), ())))


@given(
    partitions(max_size=3),
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=-2, max_value=2),
)
def test_vertex_exponential_vs_bilinear(lam, l, n):
    """Same vertex operator mode from the boson exponentials and from the
    paired strand fermion sum."""
    for i in range(1, l):
        v = fk.transport(Vec.basis(lam), l)
        root = fk.simple_root(i, l)
        assert fk.vertex_bilinear(i, n, v, l) == fk.vertex_coeff(root, n, v, l)


@lru_cache(maxsize=None)
def alpha_mode(alpha, n, shapes):
    """alpha(n) = sum_k alpha_k times the twisted strand boson on shape k."""
    out = {}
    for k, weight in enumerate(alpha):
        for mu, coeff in fk._twisted_heis_on_shape(n, shapes[k]).items():
            new = shapes[:k] + (mu,) + shapes[k + 1 :]
            out[new] = out.get(new, 0) + weight * coeff
    return out


def power_sum_exponential(alpha, sign, d, mus):
    """Oracle for fk._exp_coeff_on_shapes: expand exp(sum_n z^n alpha(-n)/n)
    (sign=+1) or exp(-sum_n z^-n alpha(n)/n) (sign=-1) over partitions nu of
    d with weights 1/z_nu. The sum is kept as an integer multiple of 1/d!,
    d!/z_nu being the number of permutations of cycle type nu."""
    total = {}
    for nu in enumerate_partitions(d):
        coeff = factorial(d)
        for part in set(nu):
            k = nu.count(part)
            coeff //= part**k * factorial(k)
        if sign == -1 and len(nu) % 2:
            coeff = -coeff
        layer = {mus: coeff}
        for part in nu:
            nxt = {}
            for shapes, c0 in layer.items():
                for new, c1 in alpha_mode(alpha, -sign * part, shapes).items():
                    nxt[new] = nxt.get(new, 0) + c0 * c1
            layer = nxt
        for shapes, c0 in layer.items():
            total[shapes] = total.get(shapes, 0) + c0
    return {
        shapes: Fraction(coeff, factorial(d)) for shapes, coeff in total.items() if coeff
    }


@pytest.mark.parametrize("l", [2, 3, 4])
def test_strand_kernel_matches_power_sum_exponential(l):
    """The product of strand strip kernels equals the power-sum expansion on
    every quotient tuple of total size <= 4, d <= 4, both signs, for the
    roots +-alpha_i, +-theta and a vector with a +-2 coordinate."""
    roots = [fk.simple_root(i, l) for i in range(1, l)] + [fk.theta(l)]
    roots.append((2, -2) if l == 2 else (2, -1) + (0,) * (l - 3) + (-1,))
    alphas = roots + [tuple(-x for x in root) for root in roots]
    tuples = [
        mus
        for mus in itertools.product(partitions_up_to(4), repeat=l)
        if sum(map(sum, mus)) <= 4
    ]
    for alpha in alphas:
        for mus in tuples:
            for d in range(5):
                for sign in (1, -1):
                    got = fk._exp_coeff_on_shapes(alpha, sign, d, mus)
                    assert got == power_sum_exponential(alpha, sign, d, mus)
                    assert all(type(c) is int for c in got.values())


def test_h_is_diagonal_with_node_counts():
    from affine_fock.partitions import addable_of_residue, removable_of_residue

    for l in (2, 3):
        for lam in ((), (1,), (2, 1), (3, 1, 1)):
            for i in range(l):
                want = len(addable_of_residue(lam, i, l)) - len(
                    removable_of_residue(lam, i, l)
                )
                assert fk.explicit_h(i, Vec.basis(lam), l) == want * Vec.basis(lam)


def test_default_generators():
    gens = fk.default_generators(2)
    assert len(gens) == 14
    assert gens[:6] == ["e_0", "e_1", "f_0", "f_1", "h_0", "h_1"]
    assert fk.default_generators(2, include_p=False) == gens[:6]


def test_intertwining_suite_small():
    for l in (2, 3):
        report = fk.verify_intertwining(l, 4)
        assert report["status"] == "ok"
        assert report["failures"] == []
    with pytest.raises(ValueError):
        fk.verify_intertwining(2, -1)


def test_relations_suite_small():
    report = fk.verify_relations(2, 4)
    assert report["status"] == "ok"
    assert report["failures"] == []
    with pytest.raises(ValueError):
        fk.verify_relations(2, -1)
