import itertools
import re
import time
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

import hypothesis.strategies as st
import pytest
from hypothesis import given

from affine_fock import fock, maya
from affine_fock import frenkel_kac as fk
from affine_fock import partitions as pt
from affine_fock.fock import Vec
from affine_fock.maya import HALF
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
    # (kind, p, q, mode): the runner pair p = (i - 1) mod l, q = i, which
    # at i = 0 wraps to p = l - 1
    assert fk.parse_generator("e_0", 3) == ("e", 2, 0, None)
    assert fk.parse_generator(" f_1 ", 3) == ("f", 0, 1, None)
    assert fk.parse_generator("h_3", 4) == ("h", 2, 3, None)
    assert fk.parse_generator("p_2(-3)", 3) == ("p", 1, 2, -3)
    assert fk.parse_generator("p_0(1)", 2) == ("p", 1, 0, 1)
    for bad in ("q_1", "e", "p_0(0)", "e_x", "p_1(2", "e_3", "p_1"):
        with pytest.raises(ValueError):
            fk.parse_generator(bad, 3)


@pytest.mark.parametrize("l", [1, 0, 2.5, 3.0, True])
@pytest.mark.parametrize("g", ["f_0", "h_1", "p_0(1)"])
@pytest.mark.parametrize("entry", [fk.explicit_action, fk.fk_action], ids=lambda f: f.__name__)
def test_both_entries_refuse_a_bad_l(entry, g, l):
    """parse_generator checks l before it reads the name. Before, l = 1
    ran (explicit f_0 on (1,) gave (1,1) + (2,), fk p_0(1) gave 0 since
    p = q = 0) and l = 3.0 ended in a TypeError from a tuple index."""
    with pytest.raises(ValueError) as want:
        pt.check_l(l)
    v = Vec.basis(((0, 0, 0), ((), (1,), ()))) if entry is fk.fk_action else Vec.basis((1,))
    with pytest.raises(ValueError, match=re.escape(str(want.value))):
        entry(g, v, l)


_STRANDS = Vec.basis(((0, 0, 0), ((), (1,), ())))


@pytest.mark.parametrize(
    "call, value",
    [
        # the strand slice wrapped round at -1 into six quotient components
        (lambda: fk.heis_tensor(-1, -1, _STRANDS), -1),
        (lambda: fk.heis_tensor(-1, True, _STRANDS), True),  # acted on strand 1
        (lambda: fk.heis_tensor(-1, 3, _STRANDS), 3),  # was an IndexError
        (lambda: fk.root(True, 0, 3), True),  # was (-1, 1, 0)
        (lambda: fk.root(0, True, 3), True),
        (lambda: fk.vertex_coeff((1, -1, 0), True, _STRANDS, 3), True),  # ran as m = 1
        (lambda: fk.vertex_coeff((1, -1, 0), 1.0, _STRANDS, 3), 1.0),  # was a TypeError
    ],
    ids=["heis_tensor-negative", "heis_tensor-bool", "heis_tensor-past-l", "root-bool-p",
         "root-bool-q", "vertex_coeff-bool", "vertex_coeff-float"],
)
def test_vertex_route_inputs_keep_the_int_rule(call, value):
    """A strand index, a root's strands and a vertex mode are ints in
    range; anything else is a ValueError that names it."""
    with pytest.raises(ValueError, match=re.escape(repr(value))):
        call()


def test_lattice_frozen():
    assert fk.root(0, 1, 3) == (1, -1, 0)
    assert fk.root(2, 0, 3) == (-1, 0, 1)
    for l in (2, 3):
        theta = fk.root(0, l - 1, l)
        assert fk.epsilon(theta, theta, l) == -1
    for p, q in ((1, 1), (0, 3), (-1, 0)):
        with pytest.raises(ValueError):
            fk.root(p, q, 3)


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
    pairing = sum(a * b for a, b in zip(alpha, beta))
    assert fk.epsilon(alpha, beta, l) * fk.epsilon(beta, alpha, l) == (-1) ** pairing
    gamma = tuple(a + b for a, b in zip(alpha, beta))
    probe = fk.root(0, l - 1, l)
    assert fk.epsilon(gamma, probe, l) == fk.epsilon(alpha, probe, l) * fk.epsilon(
        beta, probe, l
    )
    assert fk.epsilon(probe, gamma, l) == fk.epsilon(probe, alpha, l) * fk.epsilon(
        probe, beta, l
    )


def epsilon_by_pairs(alpha, beta, l):
    """The cocycle sign by its definition: -1 to the sum of n_alpha[i] *
    n_beta[j] over every pair of simple-root indices whose difference j - i
    lies in fk.EPSILON_NEG_OFFSETS, n the partial sums of the coordinates.
    The oracle of fk.epsilon, which sums over the table's offsets only."""
    n_alpha = [sum(alpha[:i]) for i in range(1, l)]
    n_beta = [sum(beta[:i]) for i in range(1, l)]
    exponent = 0
    for i in range(1, l):
        for j in range(1, l):
            if (j - i) in fk.EPSILON_NEG_OFFSETS:
                exponent += n_alpha[i - 1] * n_beta[j - 1]
    return -1 if exponent % 2 else 1


@st.composite
def lattice_pairs(draw):
    l = draw(st.integers(min_value=2, max_value=6))
    heads = st.lists(st.integers(min_value=-4, max_value=4), min_size=l - 1, max_size=l - 1)
    alpha, beta = tuple(draw(heads)), tuple(draw(heads))
    return alpha + (-sum(alpha),), beta + (-sum(beta),), l


@pytest.mark.parametrize("table", [None, (0,), (1,), (-1, 0), (0, 1, 2)])
@given(abl=lattice_pairs())
def test_epsilon_matches_the_pairwise_oracle(table, abl):
    """Under the default table and under patched ones, so the offset sum
    reads the table at call time with both signs of offset."""
    alpha, beta, l = abl
    with pytest.MonkeyPatch.context() as patch:
        if table is not None:
            patch.setattr(fk, "EPSILON_NEG_OFFSETS", table)
        assert fk.epsilon(alpha, beta, l) == epsilon_by_pairs(alpha, beta, l)


def test_epsilon_cost_is_linear_in_l():
    """One call at l = 3000 sums over the table's offsets, not over all
    (l - 1)^2 index pairs: about a millisecond, where the pairwise loop
    takes close to a second."""
    l = 3000
    alpha, beta = fk.root(0, l - 1, l), fk.root(5, 7, l)
    start = time.perf_counter()
    fk.epsilon(alpha, beta, l)
    assert time.perf_counter() - start < 0.1


@given(partitions(max_size=8), st.integers(min_value=2, max_value=4))
def test_transport_round_trip(lam, l):
    v = Vec.basis(lam)
    assert fk.transport_inverse(fk.transport(v, l), l) == v


def test_transport_frozen():
    assert fk.transport(Vec.basis(()), 2) == Vec.basis(((0, 0), ((), ())))
    assert fk.transport(Vec.basis((1,)), 2) == Vec.basis(((1, -1), ((), ())))
    assert fk.transport(Vec.basis((2,)), 2) == Vec.basis(((0, 0), ((1,), ())))


def twisted_gamma(sign: int, d: int, inverse: bool, lam) -> dict:
    """Half-vertex of the twisted strand boson: the plain strip kernel
    conjugated by shape transposition, built here independently of
    fock's field kernel."""
    flipped = fock._gamma_on_shape(sign, d, inverse, pt.transpose(lam))
    return {pt.transpose(mu): coeff for mu, coeff in flipped}


def test_transposition_flips_inverse_and_twists_by_degree():
    """The twist behind vertex_coeff's (-1)^target: conjugating the plain
    kernel by transposition flips `inverse` and multiplies by (-1)^d."""
    cases = 0
    for lam in partitions_up_to(9):
        for d in range(7):
            twist = -1 if d % 2 else 1
            for sign in (1, -1):
                for inverse in (False, True):
                    plain = fock._gamma_on_shape(sign, d, not inverse, lam)
                    want = {mu: twist * coeff for mu, coeff in plain}
                    assert twisted_gamma(sign, d, inverse, lam) == want
                    cases += 1
    assert cases == 2716


def strand_field_coeff(kind: str, j, k_index: int, v: Vec) -> Vec:
    """Modes of the paired strand fermion fields on the lattice Fock space.

    kind="psi" is the z^(j-1/2) coefficient of
    Gplus_k(z) Gminus_k(z)^{-1} [beta_k += 1] z^{+beta_k}; kind="psi_star"
    the z^(-j-1/2) coefficient of Gplus_k(z)^{-1} Gminus_k(z)
    [beta_k -= 1] z^{-beta_k}. Pairing them reassembles X(alpha_i, z):
        X_n(alpha_i) = sum_h psi(n+h on strand i-1/2) psi_star(h on i+1/2)
    and the pair needs no cross-strand sign.
    """
    j = maya._check_half_integer(j)
    if kind not in ("psi", "psi_star"):
        raise ValueError(f"kind must be 'psi' or 'psi_star', got {kind!r}")
    total: dict = {}
    for label, coeff in v.terms.items():
        beta, mus = label
        shape = mus[k_index]
        if kind == "psi":
            target = j - HALF - beta[k_index]
            delta = 1
            plus_inverse, minus_inverse = False, True
        else:
            target = beta[k_index] - j - HALF
            delta = -1
            plus_inverse, minus_inverse = True, False
        out_beta = tuple(
            b + (delta if k == k_index else 0) for k, b in enumerate(beta)
        )
        for b in range(sum(shape) + 1):
            a = target + b
            if a < 0 or a != int(a):
                continue
            for mid, c1 in twisted_gamma(-1, b, minus_inverse, shape).items():
                for mu, c2 in twisted_gamma(1, int(a), plus_inverse, mid).items():
                    new = mus[:k_index] + (mu,) + mus[k_index + 1 :]
                    key = (out_beta, new)
                    total[key] = total.get(key, 0) + coeff * c1 * c2
    return Vec(total)


def vertex_bilinear(i: int, n: int, v: Vec, l: int) -> Vec:
    """X_n(alpha_i) rebuilt from the paired strand fermion modes: the
    fermionic form of the Frenkel-Kac construction, kept as the oracle for
    vertex_coeff."""
    if not 1 <= i <= l - 1:
        raise ValueError(f"simple root index must be 1..{l - 1}: {i}")
    total = Vec.zero()
    for label, coeff in v.terms.items():
        beta, mus = label
        # The insertion factor on strand index i is zero above
        # beta_i + |mu_i| - 1/2, and the deletion factor on strand index
        # i-1 (which the first factor never touches) is zero once its mode
        # drops below beta_{i-1} + 1/2 - |mu_{i-1}|. The range is exact.
        hi = beta[i] + sum(mus[i]) - HALF
        lo = beta[i - 1] + HALF - sum(mus[i - 1]) - n
        h = lo
        while h <= hi:
            w = strand_field_coeff("psi_star", h, i, Vec({label: coeff}))
            if w:
                w = strand_field_coeff("psi", n + h, i - 1, w)
                total = total + w
            h += 1
    return total


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
        alpha = fk.root(i - 1, i, l)
        assert vertex_bilinear(i, n, v, l) == fk.vertex_coeff(alpha, n, v, l)


@lru_cache(maxsize=None)
def alpha_mode(alpha, n, shapes):
    """alpha(n) = sum_k alpha_k times the twisted strand boson on shape k."""
    out = {}
    for k, weight in enumerate(alpha):
        for mu, coeff in fock._hop_on_shape(n, 1, 0, shapes[k]):
            new = shapes[:k] + (mu,) + shapes[k + 1 :]
            out[new] = out.get(new, 0) + weight * coeff
    return out


@lru_cache(maxsize=None)
def power_sum_exponential(alpha, sign, d, mus):
    """Oracle for the exponentials of vertex_coeff: expand exp(sum_n z^n
    alpha(-n)/n) (sign=+1) or exp(-sum_n z^-n alpha(n)/n) (sign=-1), alpha(n)
    the twisted strand boson, over partitions nu of d with weights 1/z_nu.
    The sum is kept as an integer multiple of 1/d!, d!/z_nu being the number
    of permutations of cycle type nu."""
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
    """The product of the two strand fields in vertex_coeff equals the
    twisted power-sum expansion: on [0] x mus the z^(t+1) mode of X(alpha, z)
    is sum_b Eminus_(t+b) Eplus_(-b), moved to the label [alpha]. Checked for
    the roots +-alpha_i and +-theta, every quotient tuple of total size
    <= 4 and t in [-|mus| - 1, 4 - |mus|]; every coefficient is an int."""
    roots = [fk.root(i - 1, i, l) for i in range(1, l)] + [fk.root(0, l - 1, l)]
    alphas = roots + [tuple(-x for x in root) for root in roots]
    tuples = [
        mus
        for mus in itertools.product(partitions_up_to(4), repeat=l)
        if sum(map(sum, mus)) <= 4
    ]
    zero = (0,) * l
    cases = 0
    for alpha in alphas:
        for mus in tuples:
            w = sum(map(sum, mus))
            for t in range(-w - 1, 5 - w):
                want = {}
                for b in range(max(0, -t), w + 1):
                    for mid, c1 in power_sum_exponential(alpha, -1, b, mus).items():
                        for out, c2 in power_sum_exponential(alpha, 1, t + b, mid).items():
                            want[out] = want.get(out, 0) + c1 * c2
                got = fk.vertex_coeff(alpha, t + 1, Vec.basis((zero, mus)), l)
                assert got.terms == {(alpha, out): c for out, c in want.items() if c}
                assert all(type(c) is int for c in got.terms.values())
                cases += 1
    assert cases == {2: 912, 3: 3096, 4: 7872}[l]


def test_vertex_coeff_refuses_what_is_not_a_root():
    """vertex_coeff takes only the roots e_p - e_q of the sum-zero lattice."""
    for alpha, l in (
        ((2, -2, 0), 3),
        ((1, 1, -2), 3),
        ((0, 0, 0), 3),
        ((1, -1, 1, -1), 4),
    ):
        with pytest.raises(ValueError, match="not a root"):
            fk.vertex_coeff(alpha, 0, Vec.basis(((0,) * l, ((),) * l)), l)


def test_h_is_diagonal_with_node_counts():
    for l in (2, 3, 4, 5):
        for lam in partitions_up_to(12):
            for i in range(l):
                want = len(pt.addable_of_residue(lam, i, l)) - len(
                    pt.removable_of_residue(lam, i, l)
                )
                assert fk.explicit_action(f"h_{i}", Vec.basis(lam), l) == want * Vec.basis(lam)


def test_default_generators():
    gens = fk.default_generators(2)
    assert len(gens) == 14
    assert gens[:6] == ["e_0", "e_1", "f_0", "f_1", "h_0", "h_1"]


def test_intertwining_suite_small():
    # residue 0 reads the strand pair (l - 1, 0); a larger l puts more
    # strands between the two
    for l in (2, 3, 4, 5):
        report = fk.verify_intertwining(l, 4)
        assert report["status"] == "ok"
        assert report["failures"] == []
    with pytest.raises(ValueError):
        fk.verify_intertwining(2, -1)


def test_intertwining_failures_smallest_shape_first(monkeypatch):
    # e_0 broken on shapes of size 3 fails in the first generator sweep,
    # f_1 and h_1 broken on size 1 only in later sweeps, yet (1,) comes
    # first, its two failures in generator order
    plain = fk.explicit_action

    def broken(g, v, l):
        out = plain(g, v, l)
        (lam,) = v.terms
        return -out if (g, sum(lam)) in (("e_0", 3), ("f_1", 1), ("h_1", 1)) else out

    monkeypatch.setattr(fk, "explicit_action", broken)
    failures = fk.verify_intertwining(2, 4)["failures"]
    keys = [fk.shape_sort_key(f["lambda"]["partition"]) for f in failures]
    assert keys == sorted(keys)
    assert {k[0] for k in keys} == {1, 3}
    assert [(f["generator"], f["lambda"]) for f in failures[:2]] == [
        ("f_1", {"partition": [1]}),
        ("h_1", {"partition": [1]}),
    ]
    gens = fk.default_generators(2)
    for a, b in zip(failures, failures[1:]):
        if a["lambda"] == b["lambda"]:
            assert gens.index(a["generator"]) < gens.index(b["generator"])


def test_relations_suite_small():
    report = fk.verify_relations(2, 4)
    assert report["status"] == "ok"
    assert report["failures"] == []
    with pytest.raises(ValueError):
        fk.verify_relations(2, -1)


def node_walk_action(step, i, lam, l, side):
    """e_i (step -1) or f_i (step +1) on b_lam from the node-walking
    helpers: the explicit route as it was before the one-pass scan."""
    counts = pt.residue_counts(lam, l)
    odd = (counts[(i - 1) % l] + counts[i]) % 2
    prefactor = -step if odd else step
    if step > 0:
        moves = [(x, pt.add_node(lam, x)) for x in pt.addable_of_residue(lam, i, l)]
    else:
        moves = [
            (x, pt.remove_node(lam, x)) for x in pt.removable_of_residue(lam, i, l)
        ]
    out = {}
    for x, shape in moves:
        sign = -1 if pt.eta(lam, i, x, l, side) % 2 else 1
        out[shape] = prefactor * sign
    return Vec(out)


@pytest.mark.parametrize("side", ["left", "right"])
def test_explicit_scan_matches_node_walk(monkeypatch, side):
    monkeypatch.setattr(fk, "ETA_SCAN_SIDE", side)
    for l in (2, 3, 4, 5):
        for lam in partitions_up_to(10):
            b = Vec.basis(lam)
            for i in range(l):
                want_e = node_walk_action(-1, i, lam, l, side)
                assert fk.explicit_action(f"e_{i}", b, l) == want_e
                assert fk.explicit_action(f"f_{i}", b, l) == node_walk_action(1, i, lam, l, side)


@pytest.mark.parametrize("l, want", [(2, 628), (3, 1413)])
def test_relations_witness_one_eq_per_commutator(monkeypatch, l, want):
    """The image memo leaves one Vec.__eq__ per commutator check: [h,e] on
    every shape, [h,f] and [e,f] on those with room to grow, per (i, j)."""
    calls = []
    plain_eq = Vec.__eq__

    def counting_eq(self, other):
        calls.append(1)
        return plain_eq(self, other)

    monkeypatch.setattr(Vec, "__eq__", counting_eq)
    assert fk.verify_relations(l, 8)["status"] == "ok"
    checks = len(partitions_up_to(8)) + 2 * len(partitions_up_to(7))
    assert len(calls) == want == l * l * checks


def test_relations_images_do_not_outlive_the_call(monkeypatch):
    # each image is computed once per call, and again by the next call
    images = []
    plain = fk.explicit_action

    def recording(g, v, l):
        images.append((g, tuple(v.terms)))
        return plain(g, v, l)

    monkeypatch.setattr(fk, "explicit_action", recording)
    assert fk.verify_relations(3, 6)["status"] == "ok"
    first = len(images)
    assert first == len(set(images)) > 0
    assert fk.verify_relations(3, 6)["status"] == "ok"
    assert images[first:] == images[:first]
    b = Vec.basis((2, 1))
    before = fk.explicit_action("e_1", b, 3)
    monkeypatch.setattr(fk, "ETA_SCAN_SIDE", "right")
    assert fk.explicit_action("e_1", b, 3) == -before
    assert fk.verify_intertwining(2, 4)["status"] == "mismatch"


def test_relations_failures_smallest_shape_first(monkeypatch):
    # h_0 broken on shapes of size 4 fails in the i = 0 sweep, h_1 broken
    # on size 1 only in the later i = 1 sweep, yet its shapes come first
    plain = fk.explicit_action

    def broken(g, v, l):
        out = plain(g, v, l)
        (lam,) = v.terms
        return -out if (g, sum(lam)) in (("h_0", 4), ("h_1", 1)) else out

    monkeypatch.setattr(fk, "explicit_action", broken)
    failures = fk.verify_relations(2, 5)["failures"]
    keys = [fk.shape_sort_key(f["lambda"]["partition"]) for f in failures]
    assert keys == sorted(keys)
    assert failures[0]["generator"] == "[h_1,f_0]"
    assert failures[0]["lambda"] == {"partition": []}
    assert any(f["generator"].startswith("[h_0,") for f in failures)
    assert {k[0] for k in keys} >= {0, 4}
    for a, b in zip(failures, failures[1:]):
        if a["lambda"] == b["lambda"]:
            ij_a = [int(n) for n in re.findall(r"\d+", a["generator"])]
            ij_b = [int(n) for n in re.findall(r"\d+", b["generator"])]
            assert ij_a <= ij_b


def vec_level_relations(l, max_degree):
    """The relations suite composed on Vecs, one Vec.apply per generator
    step and a Vec difference per bracket: the oracle of the suite's
    composition on term dicts."""
    failures = []
    # the affine Cartan matrix of the cyclic quiver, built dense
    cartan = [[0] * l for _ in range(l)]
    for i in range(l):
        cartan[i][i] = 2
        cartan[i][(i + 1) % l] -= 1
        cartan[i][(i - 1) % l] -= 1
    images = {}

    def image(g, lam):
        out = images.get((g, lam))
        if out is None:
            out = images[(g, lam)] = fk.explicit_action(g, Vec.basis(lam), l)
        return out

    def apply_word(word, v):
        for g in reversed(word):
            v = v.apply(lambda lam: image(g, lam).terms.items())
            if not v:
                break
        return v

    def bracket(x, y, v):
        return apply_word((x, y), v) - apply_word((y, x), v)

    def record(name, lam, lhs, rhs):
        failures.append({
            "generator": name,
            "lambda": fk.shape_label_json(lam),
            "lhs": fk.shape_vec_json(lhs),
            "rhs": fk.shape_vec_json(rhs),
        })

    for lam in partitions_up_to(max_degree):
        v = Vec.basis(lam)
        room = max_degree - sum(lam)
        for i in range(l):
            for j in range(l):
                lhs = bracket(f"h_{i}", f"e_{j}", v)
                rhs = cartan[i][j] * image(f"e_{j}", lam)
                if lhs != rhs:
                    record(f"[h_{i},e_{j}]", lam, lhs, rhs)
                if room >= 1:
                    lhs = bracket(f"h_{i}", f"f_{j}", v)
                    rhs = -cartan[i][j] * image(f"f_{j}", lam)
                    if lhs != rhs:
                        record(f"[h_{i},f_{j}]", lam, lhs, rhs)
                    lhs = bracket(f"e_{i}", f"f_{j}", v)
                    rhs = image(f"h_{i}", lam) if i == j else Vec.zero()
                    if lhs != rhs:
                        record(f"[e_{i},f_{j}]", lam, lhs, rhs)
                if i != j:
                    power = 1 - cartan[i][j]
                    for kind, need in (("e", 0), ("f", power + 1)):
                        if room < need:
                            continue
                        x, y = f"{kind}_{i}", f"{kind}_{j}"
                        lhs = Vec.zero()
                        for k in range(power + 1):
                            sign = -1 if k % 2 else 1
                            word = (x,) * (power - k) + (y,) + (x,) * k
                            lhs = lhs + sign * comb(power, k) * apply_word(word, v)
                        if lhs:
                            record(f"serre {x},{y}", lam, lhs, Vec.zero())
    status = "mismatch" if failures else "ok"
    return {"status": status, "l": l, "degree": max_degree, "failures": failures}


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_relations_match_the_vec_level_oracle(monkeypatch, l, side):
    monkeypatch.setattr(fk, "ETA_SCAN_SIDE", side)
    want = vec_level_relations(l, 7)
    assert want["status"] == "ok"
    assert fk.verify_relations(l, 7) == want


@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_relations_match_the_oracle_on_a_broken_sign(monkeypatch, l):
    # the failures list, in order, is the oracle's
    plain = fk.explicit_action

    def broken(g, v, l):
        out = plain(g, v, l)
        (lam,) = v.terms
        return -out if (g, sum(lam)) in (("h_0", 4), ("h_1", 1), ("f_1", 2)) else out

    monkeypatch.setattr(fk, "explicit_action", broken)
    want = vec_level_relations(l, 7)
    assert want["status"] == "mismatch" and len(want["failures"]) > 1
    assert fk.verify_relations(l, 7) == want
