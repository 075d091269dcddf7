"""Level-1 action of affine type A on partitions, two independent ways.

Explicit route: the Chevalley generators act on the partition basis b_lam by
adding or removing nodes of a fixed content class mod l, with signs read off
the diagram boundary (a global prefactor from residue counts and a local
sign counting boundary nodes of the same class at smaller content). One
pass over the rows of lam (partitions.residue_boundary) yields all of it:
the parity of the residue counts at i - 1 and i, and the residue-i
addable and removable nodes in content order with their prefix counts, in
O(rows) per shape. verify_relations computes each generator's image of
each shape once per call and composes its words on those images' terms.

Vertex route: partitions transport through the l-core/l-quotient bijection
to the lattice Fock space C[Q] x B^l, where Q is the sum-zero sublattice of
Z^l. The generators become coefficients of vertex operators

    X(alpha, z) = Eminus(z) Eplus(z) Z0(alpha, z)

with Z0 [beta] x b = z^{(alpha,alpha)/2 + (alpha,beta)} [beta+alpha] x b,
Eplus(z) = exp(-sum_n z^-n alpha(n)/n), Eminus(z) = exp(sum_n z^n
alpha(-n)/n), and alpha(n) the strand Heisenberg weighted by alpha. The
strand boson is the particle-hole twist of the plain one: mode n carries an
extra (-1)^(|n|-1), which is the plain mode conjugated by shape
transposition; without the twist the two routes already disagree on
partitions of 4. Conjugating the plain half-vertex Gplus_k(z) by
transposition gives Gplus_k(-z)^-1, and likewise for Gminus_k. For a
root alpha = e_p - e_q this makes Eminus(z) Eplus(z) the product of two
commuting rank-one fields of fock at -z,

    [Gplus_p(-z)^-1 Gminus_p(-z)] [Gplus_q(-z) Gminus_q(-z)^-1],

the field of Psi = X(+1, z) on strand p and that of Psi_star = X(-1, z)
on strand q. On [beta] x b the z^m coefficient is therefore (-1)^target
times the sum over t of the strand-p field's z^t coefficient times the
strand-q field's z^(target - t) one, target = m - 1 - (alpha,beta), all
in integers. A two-cocycle sign eps(., .) on the lattice
makes the relations close: e-type generators are dressed by eps(alpha,
beta) on [beta], f-type by eps(alpha, alpha) eps(alpha, beta).

Every generator of residue i is read off one runner pair, p = (i - 1) mod l
and q = i, which at i = 0 wraps from strand l - 1 to strand 0. Each route
has one entry, explicit_action and fk_action, and both take p and q from
one parse_generator; on the explicit route p_i(m) hops beads on the same
two abacus runners.

verify_intertwining checks that the transport intertwines the two routes;
verify_relations checks the Chevalley-Serre relations degreewise.
"""

from __future__ import annotations

import re
from functools import cache
from math import comb

from . import core_quotient, fock
from .partitions import (
    Vec,
    add_node,
    check_l,
    check_residue,
    partitions_up_to,
    remove_node,
    residue_boundary,
)

# Which side of a boundary node the explicit-action sign scans: "left"
# counts boundary nodes of strictly smaller content. Flipping it breaks the
# intertwining suite in degree <= 2.
ETA_SCAN_SIDE = "left"

# Cocycle table on simple roots: eps(alpha_i, alpha_j) = -1 exactly when
# j - i lies in this set (literal difference, not mod l). Changing the set
# breaks the intertwining suite in degree <= 2.
EPSILON_NEG_OFFSETS = (0, 1)


# ---------------------------------------------------------------- lattice

def root(p: int, q: int, l: int) -> tuple[int, ...]:
    """The root e_p - e_q, for two distinct int strands p, q in 0..l-1 (a
    bool is refused)."""
    if type(p) is not int or type(q) is not int or p == q or not (0 <= p < l and 0 <= q < l):
        raise ValueError(f"a root needs two distinct strands in 0..{l - 1}: {p!r}, {q!r}")
    return tuple((k == p) - (k == q) for k in range(l))


def pairing(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def epsilon(alpha, beta, l: int) -> int:
    """Bimultiplicative cocycle sign on the sum-zero lattice.

    Expanding both arguments in simple roots, alpha = sum n_i alpha_i with
    n_i the partial sums of the coordinates; the sign multiplies the table
    entries t[i][j] over all pairs with multiplicity.
    """
    alpha = core_quotient.check_core_vector(alpha, l)
    beta = core_quotient.check_core_vector(beta, l)
    n_alpha = [sum(alpha[:i]) for i in range(1, l)]
    n_beta = [sum(beta[:i]) for i in range(1, l)]
    exponent = 0
    for i in range(1, l):
        for j in range(1, l):
            if (j - i) in EPSILON_NEG_OFFSETS:
                exponent += n_alpha[i - 1] * n_beta[j - 1]
    return -1 if exponent % 2 else 1


def cartan_matrix(l: int) -> list[list[int]]:
    """Affine Cartan matrix on the residues 0..l-1 (cyclic)."""
    l = check_l(l)
    a = [[0] * l for _ in range(l)]
    for i in range(l):
        a[i][i] = 2
        a[i][(i + 1) % l] -= 1
        a[i][(i - 1) % l] -= 1
    return a


# ------------------------------------------------------------- transport

def fk_label_sort_key(label):
    beta, mus = label
    return (
        sum(sum(mu) for mu in mus),
        beta,
        tuple(tuple(-p for p in mu) for mu in mus),
    )


def fk_label_json(label) -> dict:
    beta, mus = label
    return {"beta": list(beta), "mus": [list(mu) for mu in mus]}


def shape_label_json(lam) -> dict:
    return {"partition": list(lam)}


def shape_sort_key(lam):
    return (sum(lam), tuple(-p for p in lam))


def transport(v: Vec, l: int) -> Vec:
    """Send b_lam to [core vector] x (quotient components)."""

    def on_basis(lam) -> Vec:
        c, q = core_quotient.core_and_quotient(lam, l)
        return Vec.basis((c, q))

    return v.apply(on_basis)


def transport_inverse(v: Vec, l: int) -> Vec:
    def on_basis(label) -> Vec:
        beta, mus = label
        return Vec.basis(core_quotient.cq_inverse(beta, mus, l))

    return v.apply(on_basis)


# ------------------------------------------------- strand Heisenberg part

def heis_tensor(n: int, k_index: int, v: Vec) -> Vec:
    """Strand boson mode n acting on quotient component k_index.

    It is the bead hop by n with the holes-between sign: the plain mode
    times (-1)^(|n|-1), which is the plain mode conjugated by shape
    transposition. k_index is an int strand in 0..l-1, checked per label.
    """
    n = fock.check_mode(n)

    def on_basis(label) -> Vec:
        beta, mus = label
        check_residue(k_index, len(mus))
        out = {}
        for mu, coeff in fock._hop_on_shape(n, 1, 0, mus[k_index]).items():
            new = mus[:k_index] + (mu,) + mus[k_index + 1 :]
            out[(beta, new)] = coeff
        return Vec(out)

    return v.apply(on_basis)


# --------------------------------------------------------- vertex operator

def vertex_coeff(alpha, m: int, v: Vec, l: int) -> Vec:
    """Coefficient of z^m in X(alpha, z) applied to v, for a root
    alpha = e_p - e_q.

    Applied right to left: the lattice part Z0 (monomial and translation),
    then the annihilation exponential, then the creation exponential. The
    lowest nonzero mode on [beta] x b is 1 + (alpha,beta); the exponentials
    are fock's rank-one field with a = +1 on quotient shape p times the one
    with a = -1 on shape q, times (-1)^target, the strand boson's
    transposition twist. The mode m is an int (a float or bool is refused).
    """
    if type(m) is not int:
        raise ValueError(f"the vertex mode must be an int: {m!r}")
    alpha = core_quotient.check_core_vector(alpha, l)
    if sorted(alpha) != [-1] + [0] * (l - 2) + [1]:
        raise ValueError(f"not a root: {alpha}")
    p, q = alpha.index(1), alpha.index(-1)
    total: dict = {}
    for (beta, mus), coeff in v.terms.items():
        target = m - 1 - pairing(alpha, beta)
        out_beta = tuple(b + a for b, a in zip(beta, alpha))
        sign = -coeff if target % 2 else coeff
        for t in range(-sum(mus[p]), target + sum(mus[q]) + 1):
            for mu_p, c_p in fock._field_on_shape(1, t, mus[p]):
                for mu_q, c_q in fock._field_on_shape(-1, target - t, mus[q]):
                    shapes = list(mus)
                    shapes[p], shapes[q] = mu_p, mu_q
                    key = (out_beta, tuple(shapes))
                    total[key] = total.get(key, 0) + sign * c_p * c_q
    return Vec(total)


# ----------------------------------------------------- generator actions

# A generator name: e_i, f_i, h_i or p_i(m), the index and the mode each an
# optional minus sign and ASCII digits.
_GENERATOR = re.compile(r"([efhp])_(-?[0-9]+)(?:\((-?[0-9]+)\))?")


def parse_generator(g: str, l: int) -> tuple[str, int, int, int | None]:
    """Read a generator name once: (kind, p, q, mode), with q = i its
    residue, p = (i - 1) mod l the other runner of its pair, and mode the
    Heisenberg mode of p_i(m) (None for e, f and h). It checks l first
    (check_l, so both route entries refuse a bad l), then the grammar, then
    the mode, then the residue."""
    l = check_l(l)
    name = g.strip()
    match = _GENERATOR.fullmatch(name)
    if match is None or (match[1] == "p") != (match[3] is not None):
        head, paren, tail = name.partition("(")
        if paren and tail.endswith(")") and head.partition("_")[0] != "p":
            raise ValueError(f"only p takes a mode argument: {name!r}")
        raise ValueError(f"malformed generator: {name!r}")
    kind, index, mode = match.groups()
    if mode is not None:
        mode = fock.check_mode(int(mode))
    q = check_residue(int(index), l)
    return kind, (q - 1) % l, q, mode


def _fk_root(p: int, q: int, m: int, f_type: bool, v: Vec, l: int) -> Vec:
    """The dressed root mode eps(alpha, alpha)^[f_type] eps(alpha, beta)
    X_m(alpha), alpha = e_p - e_q, on each [beta] x b of v. The dressing is
    diagonal and the mode linear, so v is dressed first and the mode
    applied once."""
    alpha = root(p, q, l)
    dress = epsilon(alpha, alpha, l) if f_type else 1
    signed = {label: dress * epsilon(alpha, label[0], l) * c for label, c in v.terms.items()}
    return vertex_coeff(alpha, m, Vec(signed), l)


def fk_action(g: str, v: Vec, l: int) -> Vec:
    """Generator g of residue i on the lattice Fock space, read off the
    runner pair p = (i - 1) mod l, q = i and the loop shift s = delta_{i0}:
    e_i is the root e_p - e_q at degree -s, f_i the root e_q - e_p at
    degree s (of the two, the negative root of sl_l takes the f dressing),
    h_i is s + beta_p - beta_q, and p_i(m) the strand-p boson minus the
    strand-q one."""
    kind, p, q, mode = parse_generator(g, l)
    s = int(q == 0)
    if kind == "e":
        return _fk_root(p, q, -s, bool(s), v, l)
    if kind == "f":
        return _fk_root(q, p, s, not s, v, l)
    if kind == "h":
        return Vec({label: (s + label[0][p] - label[0][q]) * c for label, c in v.terms.items()})
    return heis_tensor(mode, p, v) - heis_tensor(mode, q, v)


# ------------------------------------------------------- explicit action

def _explicit_on_shape(step: int, i: int, lam, l: int, right: bool) -> Vec:
    """e_i (step -1) or f_i (step +1) on b_lam, from one boundary scan.

    Each residue-i node of the given step is removed or added. The
    prefactor is (-1)^(counts[i-1] + counts[i]) for f and its negative for
    e; with the smaller-content scan this is what makes [e_i, f_i] = h_i
    close on every shape. The local sign is (-1)^eta, eta the signed count
    of residue-i boundary nodes to the left (or, if `right`, the right) of
    the node, read off the diagram before the change.
    """
    odd, boundary = residue_boundary(lam, i, l)
    total = sum(s for _, s, _ in boundary) if right else 0
    prefactor = -step if odd else step
    out = {}
    for node, s, left in boundary:
        if s != step:
            continue
        scan = total - left - step if right else left
        shape = add_node(lam, node) if step > 0 else remove_node(lam, node)
        out[shape] = -prefactor if scan % 2 else prefactor
    return Vec(out)


def explicit_action(g: str, v: Vec, l: int) -> Vec:
    """Generator g of residue i on the partition basis, read off the same
    runner pair as fk_action: e_i removes and f_i adds one residue-i node
    with boundary-scan signs, h_i counts the addable minus the removable
    residue-i nodes, and p_i(m) is the runner-p mode minus the runner-q
    one, each hopping one bead by m*l along its runner."""
    kind, p, q, mode = parse_generator(g, l)
    if kind == "h":
        return Vec(
            {lam: sum(s for _, s, _ in residue_boundary(lam, q, l)[1]) * c
             for lam, c in v.terms.items()}
        )
    if kind == "p":
        return v.apply(
            lambda lam: Vec(fock._hop_on_shape(mode, l, p, lam))
            - Vec(fock._hop_on_shape(mode, l, q, lam))
        )
    if ETA_SCAN_SIDE not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {ETA_SCAN_SIDE!r}")
    step, right = (-1 if kind == "e" else 1), ETA_SCAN_SIDE == "right"
    return v.apply(lambda lam: _explicit_on_shape(step, q, lam, l, right))


# ------------------------------------------------------------- suites

def shape_vec_json(v: Vec) -> list:
    return fock.vec_json(v, shape_label_json, shape_sort_key)


def fk_vec_json(v: Vec) -> list:
    return fock.vec_json(v, fk_label_json, fk_label_sort_key)


def default_generators(l: int) -> list[str]:
    gens = [f"{kind}_{i}" for kind in ("e", "f", "h") for i in range(l)]
    gens.extend(f"p_{i}({m})" for i in range(l) for m in (1, -1, 2, -2))
    return gens


def verify_intertwining(l: int, max_degree: int) -> dict:
    """Check transport(explicit g) = fk g(transport) on all small shapes,
    for every generator of default_generators.

    Each shape, source or output, is transported once per call (a memo of
    the call; see fock's memo policy). Shapes are the outer loop, so
    failures come out smallest shape first, in generator order per shape.
    """
    l = check_l(l)
    failures = []
    generators = default_generators(l)

    @cache
    def transported(lam) -> Vec:
        return transport(Vec.basis(lam), l)

    for lam in partitions_up_to(max_degree):
        v = Vec.basis(lam)
        source = transported(lam)
        for g in generators:
            lhs = explicit_action(g, v, l).apply(transported)
            rhs = fk_action(g, source, l)
            if lhs != rhs:
                failures.append(
                    fock.failure(g, shape_label_json(lam), fk_vec_json(lhs), fk_vec_json(rhs))
                )
    return fock.report(failures, l=l, degree=max_degree)


def verify_relations(l: int, max_degree: int) -> dict:
    """Chevalley-Serre relations on graded slices of the partition basis.

    Each generator's image of each shape is computed once per call (a
    memo of the call, so the next call sees a patched seam; see fock's
    memo policy). A word is composed on those images' term dicts,
    and each bracket or Serre sum is collected in one dict that
    becomes a Vec only to be compared. Shapes are the outer loop, so
    failures come out smallest shape first, in (i, j) order within one
    shape.
    """
    l = check_l(l)
    failures = []
    cartan = cartan_matrix(l)
    e, f, h = ([f"{kind}_{i}" for i in range(l)] for kind in "efh")

    @cache
    def image(g: str, lam) -> dict:
        return explicit_action(g, Vec.basis(lam), l).terms

    def compose(word, lam) -> dict:
        """The terms of the word applied to b_lam. Names apply right to
        left, the composition order."""
        terms = {lam: 1}
        for g in reversed(word):
            step: dict = {}
            for mu, c in terms.items():
                if c:  # a term cancelled on the way has no image to fetch
                    for nu, d in image(g, mu).items():
                        step[nu] = step.get(nu, 0) + c * d
            terms = step
        return terms

    def add(out: dict, scale: int, terms: dict) -> None:
        for nu, d in terms.items():
            out[nu] = out.get(nu, 0) + scale * d

    def bracket(x: str, y: str, lam) -> Vec:
        out = compose((x, y), lam)
        add(out, -1, compose((y, x), lam))
        return Vec(out)

    def record(name, lam, lhs, rhs):
        failures.append(
            fock.failure(name, shape_label_json(lam), shape_vec_json(lhs), shape_vec_json(rhs))
        )

    for lam in partitions_up_to(max_degree):
        room = max_degree - sum(lam)
        for i in range(l):
            for j in range(l):
                a = cartan[i][j]
                # [h_i, e_j] = A_ij e_j needs no headroom (e lowers degree)
                lhs = bracket(h[i], e[j], lam)
                rhs = Vec({mu: a * c for mu, c in image(e[j], lam).items()})
                if lhs != rhs:
                    record(f"[h_{i},e_{j}]", lam, lhs, rhs)
                if room >= 1:
                    lhs = bracket(h[i], f[j], lam)
                    rhs = Vec({mu: -a * c for mu, c in image(f[j], lam).items()})
                    if lhs != rhs:
                        record(f"[h_{i},f_{j}]", lam, lhs, rhs)
                    lhs = bracket(e[i], f[j], lam)
                    rhs = Vec(image(h[i], lam) if i == j else None)
                    if lhs != rhs:
                        record(f"[e_{i},f_{j}]", lam, lhs, rhs)
                if i != j:
                    # the f relation needs headroom for power + 1 nodes
                    power = 1 - a
                    for x, y, need in ((e[i], e[j], 0), (f[i], f[j], power + 1)):
                        if room < need:
                            continue
                        out: dict = {}
                        for k in range(power + 1):
                            sign = -1 if k % 2 else 1
                            word = (x,) * (power - k) + (y,) + (x,) * k
                            add(out, sign * comb(power, k), compose(word, lam))
                        lhs = Vec(out)
                        if lhs:
                            record(f"serre {x},{y}", lam, lhs, Vec.zero())
    return fock.report(failures, l=l, degree=max_degree)
