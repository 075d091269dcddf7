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
in integers. A two-cocycle sign eps(., .) on the lattice makes the
relations close: a root mode is dressed by eps(alpha, beta) on [beta],
times eps(alpha, alpha) when alpha is a negative root of sl_l.

Every generator of residue i is read off one runner pair, p = (i - 1) mod l
and q = i, which at i = 0 wraps from strand l - 1 to strand 0. Each route
has one entry, explicit_action and fk_action; both take p and q from one
parse_generator and lift one per-label map to (label, coeff) pairs with
one Vec.apply. vertex_coeff and heis_tensor lift the vertex route's
root-mode and strand-boson maps alone.

verify_intertwining checks that the transport intertwines the two routes;
verify_relations checks the Chevalley-Serre relations degreewise.
"""

from __future__ import annotations

import re
from functools import cache
from itertools import accumulate
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


def epsilon(alpha, beta, l: int) -> int:
    """Bimultiplicative cocycle sign on the sum-zero lattice.

    Expanding both arguments in simple roots, alpha = sum n_i alpha_i with
    n_i the partial sums of the coordinates; the sign is -1 to the sum of
    n_alpha[i] * n_beta[i + o] over the table's offsets o, one pass each.
    """
    alpha = core_quotient.check_core_vector(alpha, l)
    beta = core_quotient.check_core_vector(beta, l)
    n_alpha = list(accumulate(alpha[:-1]))
    n_beta = list(accumulate(beta[:-1]))
    exponent = sum(
        n_alpha[i] * n_beta[i + o]
        for o in EPSILON_NEG_OFFSETS
        for i in range(max(0, -o), min(l - 1, l - 1 - o))
    )
    return -1 if exponent % 2 else 1


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
    return v.apply(lambda lam: ((core_quotient.core_and_quotient(lam, l), 1),))


def transport_inverse(v: Vec, l: int) -> Vec:
    return v.apply(lambda label: ((core_quotient.cq_inverse(*label, l), 1),))


# ------------------------------------------------- strand Heisenberg part

def _heis_on_label(n: int, k_index: int, label):
    """The pairs of strand boson mode n on quotient component k_index of
    one label: the bead hop by n with the holes-between sign, the plain
    mode times (-1)^(|n|-1), which is the plain mode conjugated by shape
    transposition."""
    beta, mus = label
    check_residue(k_index, len(mus))
    head, tail = mus[:k_index], mus[k_index + 1 :]
    hops = fock._hop_on_shape(n, 1, 0, mus[k_index])
    return tuple(((beta, head + (mu,) + tail), s) for mu, s in hops)


def heis_tensor(n: int, k_index: int, v: Vec) -> Vec:
    """Strand boson mode n acting on quotient component k_index, an int
    strand in 0..l-1 checked per label."""
    n = fock.check_mode(n)
    return v.apply(lambda label: _heis_on_label(n, k_index, label))


# --------------------------------------------------------- vertex operator

def _vertex_on_label(p: int, q: int, m: int, label):
    """The z^m pairs of X(e_p - e_q, z) on one label [beta] x b, applied
    right to left: Z0, then the exponentials, which are fock's rank-one
    field with a = +1 on quotient shape p times the one with a = -1 on
    shape q, times (-1)^target, the strand boson's transposition twist."""
    beta, mus = label
    target = m - 1 - beta[p] + beta[q]
    out_beta = tuple(b + (k == p) - (k == q) for k, b in enumerate(beta))
    sign = -1 if target % 2 else 1
    for t in range(-sum(mus[p]), target + sum(mus[q]) + 1):
        for mu_p, c_p in fock._field_on_shape(1, t, mus[p]):
            for mu_q, c_q in fock._field_on_shape(-1, target - t, mus[q]):
                shapes = list(mus)
                shapes[p], shapes[q] = mu_p, mu_q
                yield (out_beta, tuple(shapes)), sign * c_p * c_q


def vertex_coeff(alpha, m: int, v: Vec, l: int) -> Vec:
    """Coefficient of z^m in X(alpha, z) applied to v, for a root
    alpha = e_p - e_q; the mode m is an int (a float or bool is refused)."""
    if type(m) is not int:
        raise ValueError(f"the vertex mode must be an int: {m!r}")
    alpha = core_quotient.check_core_vector(alpha, l)
    if sorted(alpha) != [-1] + [0] * (l - 2) + [1]:
        raise ValueError(f"not a root: {alpha}")
    p, q = alpha.index(1), alpha.index(-1)
    return v.apply(lambda label: _vertex_on_label(p, q, m, label))


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


def fk_action(g: str, v: Vec, l: int) -> Vec:
    """Generator g of residue i on the lattice Fock space, read off the
    runner pair p = (i - 1) mod l, q = i and the loop shift s = delta_{i0}:
    e_i is the root e_p - e_q at degree -s and f_i the root e_q - e_p at
    degree s, dressed on [beta] by eps(alpha, beta), times eps(alpha, alpha)
    if alpha is a negative root of sl_l; h_i is s + beta_p - beta_q, and
    p_i(m) the strand-p boson minus the strand-q one."""
    return v.apply(_fk_map(*parse_generator(g, l), l))


def _fk_map(kind: str, p: int, q: int, mode: int | None, l: int):
    """The per-label map of fk_action, from one parse_generator result."""
    s = int(q == 0)
    if kind == "h":
        return lambda label: ((label, s + label[0][p] - label[0][q]),)
    if kind == "p":
        return lambda label: _heis_on_label(mode, p, label) + tuple(
            (out, -c) for out, c in _heis_on_label(mode, q, label)
        )
    p, q, m = (p, q, -s) if kind == "e" else (q, p, s)
    alpha = root(p, q, l)
    dress = epsilon(alpha, alpha, l) if p > q else 1  # a negative root of sl_l

    def dressed(label):
        sign = dress * epsilon(alpha, label[0], l)
        return ((out, sign * c) for out, c in _vertex_on_label(p, q, m, label))

    return dressed


# ------------------------------------------------------- explicit action

def _explicit_on_shape(step: int, i: int, lam, l: int, right: bool):
    """The (shape, coeff) pairs of e_i (step -1) or f_i (step +1) on b_lam,
    from one boundary scan.

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
    for node, s, left in boundary:
        if s != step:
            continue
        scan = total - left - step if right else left
        shape = add_node(lam, node) if step > 0 else remove_node(lam, node)
        yield shape, -prefactor if scan % 2 else prefactor


def explicit_action(g: str, v: Vec, l: int) -> Vec:
    """Generator g of residue i on the partition basis, read off the same
    runner pair as fk_action: e_i removes and f_i adds one residue-i node
    with boundary-scan signs, h_i counts the addable minus the removable
    residue-i nodes, and p_i(m) is the runner-p mode minus the runner-q
    one, each hopping one bead by m*l along its runner."""
    return v.apply(_explicit_map(*parse_generator(g, l), l))


def _explicit_map(kind: str, p: int, q: int, mode: int | None, l: int):
    """The per-shape map of explicit_action, from one parse_generator result."""
    if kind == "h":
        return lambda lam: ((lam, sum(s for _, s, _ in residue_boundary(lam, q, l)[1])),)
    if kind == "p":
        return lambda lam: fock._hop_on_shape(mode, l, p, lam) + tuple(
            (mu, -c) for mu, c in fock._hop_on_shape(mode, l, q, lam)
        )
    if ETA_SCAN_SIDE not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {ETA_SCAN_SIDE!r}")
    step, right = (-1 if kind == "e" else 1), ETA_SCAN_SIDE == "right"
    return lambda lam: _explicit_on_shape(step, q, lam, l, right)


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
    the call holding the pairs of its image; see fock's memo policy). The
    shapes are fock.report's outer loop, so failures come out smallest
    shape first, in generator order per shape.
    """
    l = check_l(l)
    generators = default_generators(l)

    @cache
    def transported(lam) -> tuple:
        return tuple(transport(Vec.basis(lam), l).terms.items())

    def check(lam):
        v = Vec.basis(lam)
        source = Vec(transported(lam))
        for g in generators:
            lhs = explicit_action(g, v, l).apply(transported)
            rhs = fk_action(g, source, l)
            if lhs != rhs:
                yield g, fk_vec_json(lhs), fk_vec_json(rhs)

    shapes = partitions_up_to(max_degree)
    return fock.report(shapes, check, shape_label_json, l=l, degree=max_degree)


def verify_relations(l: int, max_degree: int) -> dict:
    """Chevalley-Serre relations on graded slices of the partition basis.

    Each generator's image of each shape is computed once per call (a
    memo of the call, so the next call sees a patched seam; see fock's
    memo policy) and only read. A word starts from its first-applied
    generator's image and is composed on term dicts. A bracket's dict
    becomes a Vec only to be compared, a Serre sum's only to be reported.
    The shapes are fock.report's outer loop, so failures come out
    smallest shape first, in (i, j) order within one shape.
    """
    l = check_l(l)
    e, f, h = ([f"{kind}_{i}" for i in range(l)] for kind in "efh")

    @cache
    def image(g: str, lam) -> dict:
        return explicit_action(g, Vec.basis(lam), l).terms

    def compose(word, lam) -> dict:
        """The terms of the word applied to b_lam, in a new dict (every
        word has two or more names). Names apply right to left."""
        terms = image(word[-1], lam)
        for g in reversed(word[:-1]):
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

    def check(lam):
        room = max_degree - sum(lam)
        for i in range(l):
            for j in range(l):
                a = 2 * (i == j) - ((j - i) % l == 1) - ((i - j) % l == 1)  # A_ij
                # [h_i, e_j] = A_ij e_j needs no headroom (e lowers degree)
                lhs = bracket(h[i], e[j], lam)
                rhs = Vec({mu: a * c for mu, c in image(e[j], lam).items()})
                if lhs != rhs:
                    yield f"[h_{i},e_{j}]", shape_vec_json(lhs), shape_vec_json(rhs)
                if room >= 1:
                    lhs = bracket(h[i], f[j], lam)
                    rhs = Vec({mu: -a * c for mu, c in image(f[j], lam).items()})
                    if lhs != rhs:
                        yield f"[h_{i},f_{j}]", shape_vec_json(lhs), shape_vec_json(rhs)
                    lhs = bracket(e[i], f[j], lam)
                    rhs = Vec(image(h[i], lam) if i == j else None)
                    if lhs != rhs:
                        yield f"[e_{i},f_{j}]", shape_vec_json(lhs), shape_vec_json(rhs)
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
                        if any(out.values()):  # the right side is zero, whose JSON is []
                            yield f"serre {x},{y}", shape_vec_json(Vec(out)), []

    shapes = partitions_up_to(max_degree)
    return fock.report(shapes, check, shape_label_json, l=l, degree=max_degree)
