"""Circle-action weight combinatorics of the fixed points.

Fixed points in one chamber are labelled by partitions; their characters are
the content characters, and tangent weights come in pairs +-h over the nodes
whose hook length is divisible by l. In the opposite chamber fixed points are
labelled by core/quotient data and the character is rebuilt blockwise. The
product of tangent weights is an exact integer Euler class, and the
node-removing operators acquire rational localization coefficients; after
dividing by the normalization (the product of negative weights) they must
reproduce the explicit action coefficients. verify_fixed_points checks the
two chamber characters agree through the bijection; verify_geometric_match
checks the localization coefficients and the boundary-scan parity congruence.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from . import core_quotient, fock
from .frenkel_kac import explicit_action, shape_label_json
from .partitions import (
    LaurentPoly,
    Vec,
    addable_of_residue,
    as_partition,
    check_l,
    check_residue,
    content,
    diagonal_char,
    eta,
    hook_lengths,
    partitions_up_to,
    removable_of_residue,
    remove_node,
    residue_counts,
)


# ------------------------------------------------------------- characters

def fixed_point_char(lam) -> LaurentPoly:
    """Character of the fixed point labelled by lam: one weight per node,
    the node's content."""
    return diagonal_char(as_partition(lam))


def _divisible_hooks(lam, l: int) -> list[int]:
    """The hook lengths of lam divisible by l, one per such node: the
    tangent weights at the fixed point are +-h over them."""
    l = check_l(l)
    return [h for h in hook_lengths(as_partition(lam)).values() if h % l == 0]


def tangent_char_point(lam, l: int) -> LaurentPoly:
    """Tangent character read off the diagram: t^h + t^-h for every node
    whose hook length h is divisible by l."""
    out: dict = {}
    for h in _divisible_hooks(lam, l):
        out[h] = out.get(h, 0) + 1
        out[-h] = out.get(-h, 0) + 1
    return LaurentPoly(out)


_T_PAIR = LaurentPoly({1: 1, -1: 1, 0: -2})


def tangent_char_formula(mu, l: int) -> LaurentPoly:
    """Tangent character from character algebra alone.

    With V the fixed-point character and V* its inversion t -> t^-1, the
    degree-zero graded piece of (t + t^-1 - 2) V* V + V + V* equals
    tangent_char_point; the two routes are independent.
    """
    l = check_l(l)
    v = fixed_point_char(mu)
    vstar = v.compose_power(-1)
    return (_T_PAIR * vstar * v + v + vstar).keep_residue(l, 0)


def _removed_node(lam, mu):
    """The single node of lam missing from mu, or None: mu must be lam with
    the first row where they differ one node shorter."""
    r = next((r for r, (p, q) in enumerate(zip(lam, mu)) if p != q), len(mu))
    if r >= len(lam):
        return None
    b = lam[r] - 1
    return (r, b) if lam[:r] + ((b,) if b else ()) + lam[r + 1 :] == mu else None


def normal_char(mu, lam, i: int, l: int) -> LaurentPoly:
    """Weights normal to the one-node correspondence inside the product.

    mu must be lam minus one node of content class i. The character is the
    degree-zero graded piece of (t + t^-1 - 2) V_mu* V_lam + V_lam + V_mu*
    - 1, and differs from tangent_char_formula(mu) by one weight t^(c(X) -
    c(A)) per addable i-node A of lam minus one weight t^(c(X) - c(R)) per
    removable i-node R of mu, X the node removed.
    """
    l = check_l(l)
    i = check_residue(i, l)
    lam, mu = as_partition(lam), as_partition(mu)
    x = _removed_node(lam, mu)
    if x is None:
        raise ValueError(f"{mu} is not {lam} minus one node")
    if content(x) % l != i:
        raise ValueError(f"removed node {x} has residue {content(x) % l}, not {i}")
    vlam = fixed_point_char(lam)
    vmu_star = fixed_point_char(mu).compose_power(-1)
    one = LaurentPoly({0: 1})
    return (_T_PAIR * vmu_star * vlam + vlam + vmu_star - one).keep_residue(l, 0)


def infinity_chamber_char(c, q, l: int) -> LaurentPoly:
    """Character of the fixed point labelled by core/quotient data in the
    opposite chamber: the blockwise core-plus-inflated-quotients sum."""
    return core_quotient.quotient_char_rhs(c, q, check_l(l))


def points_vector(c, n: int, l: int) -> tuple[int, ...]:
    """Residue dimension vector fixed by a core vector and a hook count.

    The unique v with c_k = v_{k-1/2} - v_{k+1/2} cyclically and v_0 = n +
    (1/2) sum c_k^2; equals residue_counts of the partition with core c and
    total quotient size n. Raises when no non-negative solution exists.
    """
    l = check_l(l)
    c = core_quotient.check_core_vector(c, l)
    if type(n) is not int or n < 0:
        raise ValueError(f"hook count must be a non-negative int: {n!r}")
    v = [n + sum(x * x for x in c) // 2]
    for j in range(l - 1):
        v.append(v[-1] - c[j])
    if any(x < 0 for x in v):
        raise ValueError(f"no non-negative dimension vector for c={c}, n={n}")
    return tuple(v)


# ---------------------------------------------------------- weight products

def euler_pairing_diag(lam, l: int) -> int:
    """Product of all tangent weights at the fixed point (an integer,
    sign included): each qualifying hook contributes h * (-h)."""
    return prod(-h * h for h in _divisible_hooks(lam, l))


def normalization(lam, l: int) -> int:
    """Product of the negative tangent weights: (-h) per qualifying hook."""
    return prod(-h for h in _divisible_hooks(lam, l))


def geometric_e(i: int, lam, mu, l: int) -> Fraction:
    """Localization coefficient of the node-removing operator at residue i.

    Zero unless mu is lam minus one node of content class i. Otherwise the
    product over addable i-nodes A of lam of -(c(X) - c(A)), divided by the
    product over removable i-nodes R of mu of -(c(X) - c(R)), X the removed
    node, times the prefactor (-1)^(v_i + v_{i+1} + delta_{i,0}) in the
    residue counts v of lam. Distinct boundary nodes of one class have
    distinct contents, so no factor vanishes.
    """
    l = check_l(l)
    i = check_residue(i, l)
    lam, mu = as_partition(lam), as_partition(mu)
    x = _removed_node(lam, mu)
    if x is None or content(x) % l != i:
        return Fraction(0)
    counts = residue_counts(lam, l)
    exponent = counts[i] + counts[(i + 1) % l] + (1 if i == 0 else 0)
    cx = content(x)
    num = prod(content(a) - cx for a in addable_of_residue(lam, i, l))
    den = prod(content(r) - cx for r in removable_of_residue(mu, i, l))
    return Fraction(-num if exponent % 2 else num, den)


def hook_pairs(lam, l: int) -> list[tuple[Fraction, Fraction]]:
    """Maya positions (x, x + n*l), n > 0, with a particle at x and a hole
    at x + n*l; the gaps run over the l-divisible hook lengths of lam.

    Read off the integer beads (position minus 1/2): the particles a -
    lam[a], increasing, and the holes, the other integers in [-lam[0],
    len(lam)); nothing outside that range has a partner.
    """
    l = check_l(l)
    lam = as_partition(lam)
    particles = [a - row for a, row in enumerate(lam)]
    holes = sorted(set(range(-lam[0] if lam else 0, len(lam))) - set(particles))
    return [
        (Fraction(2 * x + 1, 2), Fraction(2 * y + 1, 2))
        for x in particles
        for y in holes
        if y > x and (y - x) % l == 0
    ]


# ----------------------------------------------------------------- suites

def verify_fixed_points(l: int, max_degree: int) -> dict:
    """Both chamber characters across the bijection, for all small shapes."""
    l = check_l(l)

    def check(lam):
        c, q = core_quotient.core_and_quotient(lam, l)
        lhs = fixed_point_char(lam)
        rhs = infinity_chamber_char(c, q, l)
        if lhs != rhs:
            yield "chamber", lhs.to_json(), rhs.to_json()

    shapes = partitions_up_to(max_degree)
    return fock.report(shapes, check, shape_label_json, l=l, degree=max_degree)


def verify_geometric_match(l: int, max_degree: int) -> dict:
    """Localization coefficients against the explicit action, plus the
    boundary-scan parity congruence.

    For every removal lam -> mu at residue i, geometric_e times
    normalization(mu)/normalization(lam) must equal the coefficient of b_mu
    in the explicit raising action; and the two one-sided boundary scans
    must satisfy eta_left + eta_right = c_{i-1/2} + c_{i+1/2} + 1 +
    delta_{i,0} (mod 2) with the core-vector components wrapped cyclically.
    The shapes are fock.report's outer loop; within one shape the checks
    run by residue, then by removable node, the coefficient before the
    parity.
    """
    l = check_l(l)
    shapes = partitions_up_to(max_degree)
    # every mu = lam minus a node is itself in the slice
    norm = {lam: normalization(lam, l) for lam in shapes}
    e = [f"e_{i}" for i in range(l)]

    def check(lam):
        c, _ = core_quotient.core_and_quotient(lam, l)
        for i in range(l):
            image = explicit_action(e[i], Vec.basis(lam), l)
            for x in removable_of_residue(lam, i, l):
                mu = remove_node(lam, x)
                want = image.coeff(mu)
                got = geometric_e(i, lam, mu, l) * Fraction(norm[mu], norm[lam])
                if got != want:
                    yield f"e_{i}", str(got), str(want)
                scans = eta(lam, i, x, l, "left") + eta(lam, i, x, l, "right")
                wrapped = c[(i - 1) % l] + c[i] + 1 + (1 if i == 0 else 0)
                if (scans - wrapped) % 2:
                    yield f"parity_{i}", str(scans % 2), str(wrapped % 2)

    return fock.report(shapes, check, shape_label_json, l=l, degree=max_degree)
