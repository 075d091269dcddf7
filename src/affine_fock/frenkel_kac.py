"""Level-1 action of affine type A on partitions, two independent ways.

Explicit route: the Chevalley generators act on the partition basis b_lam by
adding or removing nodes of a fixed content class mod l, with signs read off
the diagram boundary (a global prefactor from residue counts and a local
sign counting boundary nodes of the same class at smaller content).

Vertex route: partitions transport through the l-core/l-quotient bijection
to the lattice Fock space C[Q] x B^l, where Q is the sum-zero sublattice of
Z^l. The generators become coefficients of vertex operators

    X(alpha, z) = Eminus(z) Eplus(z) Z0(alpha, z)

with Z0 [beta] x b = z^{(alpha,alpha)/2 + (alpha,beta)} [beta+alpha] x b,
Eplus(z) = exp(-sum_n z^-n alpha(n)/n), Eminus(z) = exp(sum_n z^n
alpha(-n)/n), and alpha(n) the strand Heisenberg weighted by alpha. The
strand boson is the particle-hole twist of the plain strip expansion (mode
n carries an extra (-1)^(|n|-1), equivalently strips are counted on the
transposed shape); without the twist the two routes already disagree on
partitions of 4. Both exponentials factor over strands: Eminus(z) is the
product of Gplus_k(z)^alpha_k and Eplus(z) of Gminus_k(z)^-alpha_k, with
Gplus_k, Gminus_k the twisted half-vertices of strand k. Each factor is the
integer strip kernel of fock on the transposed shape, so the exponentials
need no rational arithmetic. A two-cocycle sign eps(., .) on the lattice
makes the relations close: e-type generators are dressed by eps(alpha,
beta) on [beta], f-type by eps(alpha, alpha) eps(alpha, beta).

verify_intertwining checks that the transport intertwines the two routes;
verify_relations checks the Chevalley-Serre relations degreewise.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from . import core_quotient, fock, maya
from .fock import DegreeOverflowError, Vec
from .maya import HALF
from .partitions import (
    addable_of_residue,
    add_node,
    as_partition,
    check_residue,
    eta,
    partitions_up_to,
    remove_node,
    removable_of_residue,
    residue_counts,
    transpose,
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

def check_lattice_vector(beta, l: int) -> tuple[int, ...]:
    beta = tuple(int(x) for x in beta)
    if len(beta) != l:
        raise ValueError(f"lattice vector needs {l} components: {beta}")
    if sum(beta) != 0:
        raise ValueError(f"lattice vector components must sum to zero: {beta}")
    return beta


def simple_root(i: int, l: int) -> tuple[int, ...]:
    """alpha_i = e_{i-1/2} - e_{i+1/2} for i = 1..l-1."""
    if not 1 <= i <= l - 1:
        raise ValueError(f"simple root index must be 1..{l - 1}: {i}")
    root = [0] * l
    root[i - 1] = 1
    root[i] = -1
    return tuple(root)


def theta(l: int) -> tuple[int, ...]:
    """Highest root: sum of all simple roots."""
    if l < 2:
        raise ValueError("need at least two strands")
    return (1,) + (0,) * (l - 2) + (-1,)


def pairing(a, b) -> int:
    return sum(x * y for x, y in zip(a, b))


def epsilon(alpha, beta, l: int) -> int:
    """Bimultiplicative cocycle sign on the sum-zero lattice.

    Expanding both arguments in simple roots, alpha = sum n_i alpha_i with
    n_i the partial sums of the coordinates; the sign multiplies the table
    entries t[i][j] over all pairs with multiplicity.
    """
    alpha = check_lattice_vector(alpha, l)
    beta = check_lattice_vector(beta, l)
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
    if l < 2:
        raise ValueError("need at least two residues")
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


def fk_energy(label) -> int:
    beta, mus = label
    return pairing(beta, beta) // 2 + sum(sum(mu) for mu in mus)


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

def _twisted_heis_on_shape(n: int, lam) -> dict:
    """Strand boson mode n on one shape: strip expansion, hole-count signs.

    Equals the plain expansion times (-1)^(|n|-1), which is the plain mode
    conjugated by shape transposition.
    """
    plain = fock._heis_on_shape(n, lam)
    if abs(n) % 2:
        return plain
    return {mu: -coeff for mu, coeff in plain.items()}


def heis_tensor(n: int, k_index: int, v: Vec) -> Vec:
    """Strand boson mode n acting on quotient component k_index."""
    n = int(n)
    if n == 0:
        raise ValueError("the degree-zero mode is excluded")

    def on_basis(label) -> Vec:
        beta, mus = label
        out = {}
        for mu, coeff in _twisted_heis_on_shape(n, mus[k_index]).items():
            new = mus[:k_index] + (mu,) + mus[k_index + 1 :]
            out[(beta, new)] = coeff
        return Vec(out)

    return v.apply(on_basis)


@lru_cache(maxsize=1 << 14)
def _twisted_gamma_on_shape(sign: int, d: int, inverse: bool, lam) -> dict:
    """Half-vertex coefficient built from the twisted strand boson.

    Conjugating the plain half-vertex by shape transposition twists every
    mode consistently with _twisted_heis_on_shape.
    """
    flipped = fock._gamma_on_shape(sign, d, inverse, transpose(lam))
    return {transpose(mu): coeff for mu, coeff in flipped.items()}


def _exp_coeff_on_shapes(alpha, sign: int, d: int, mus) -> dict:
    """Coefficient of z^(sign*d) in the vertex exponential on shapes.

    sign=+1 is exp(sum_n z^n alpha(-n)/n); sign=-1 is
    exp(-sum_n z^-n alpha(n)/n). Both factor over strands: alpha(n) is
    sum_k alpha_k p(n)_k, so strand k contributes |alpha_k| commuting copies
    of its twisted half-vertex (Gplus_k for sign=+1, Gminus_k for sign=-1),
    inverted exactly when sign*alpha_k < 0. The coefficient sums the strip
    kernels of the factors over the ways to split d among them, in integers.
    """
    factors = [(k, sign * a < 0) for k, a in enumerate(alpha) for _ in range(abs(a))]
    layer = {(mus, d): 1}  # shapes and the degree still to place
    for k, inverse in factors:
        nxt: dict = {}
        for (shapes, left), c0 in layer.items():
            for e in range(left + 1):
                for mu, c1 in _twisted_gamma_on_shape(sign, e, inverse, shapes[k]).items():
                    key = (shapes[:k] + (mu,) + shapes[k + 1 :], left - e)
                    nxt[key] = nxt.get(key, 0) + c0 * c1
        layer = nxt
    return {shapes: c for (shapes, left), c in layer.items() if c and not left}


# --------------------------------------------------------- vertex operator

def vertex_coeff(alpha, m: int, v: Vec, l: int | None = None, window=None) -> Vec:
    """Coefficient of z^m in X(alpha, z) applied to v.

    Applied right to left: the lattice part Z0 (monomial and translation),
    then the annihilation exponential, then the creation exponential. The
    lowest nonzero mode on [beta] x b is (alpha,alpha)/2 + (alpha,beta).
    """
    total: dict = {}
    for label, coeff in v.terms.items():
        beta, mus = label
        if l is None:
            l = len(beta)
        alpha_t = check_lattice_vector(alpha, l)
        base = pairing(alpha_t, alpha_t) // 2 + pairing(alpha_t, beta)
        out_beta = tuple(b + a for b, a in zip(beta, alpha_t))
        room = sum(sum(mu) for mu in mus)
        for b in range(room + 1):
            a = m - base + b
            if a < 0:
                continue
            for shapes1, c1 in _exp_coeff_on_shapes(alpha_t, -1, b, mus).items():
                for shapes2, c2 in _exp_coeff_on_shapes(
                    alpha_t, 1, a, shapes1
                ).items():
                    key = (out_beta, shapes2)
                    total[key] = total.get(key, 0) + coeff * c1 * c2
    out = Vec(total)
    if window is not None:
        for label in out.terms:
            if fk_energy(label) > window:
                raise DegreeOverflowError(
                    f"vertex output energy {fk_energy(label)} exceeds window {window}"
                )
    return out


# ------------------------------------------------- strand fermion fields

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
            for mid, c1 in _twisted_gamma_on_shape(-1, b, minus_inverse, shape).items():
                for mu, c2 in _twisted_gamma_on_shape(1, int(a), plus_inverse, mid).items():
                    new = mus[:k_index] + (mu,) + mus[k_index + 1 :]
                    key = (out_beta, new)
                    total[key] = total.get(key, 0) + coeff * c1 * c2
    return Vec(total)


def vertex_bilinear(i: int, n: int, v: Vec, l: int) -> Vec:
    """X_n(alpha_i) rebuilt from the paired strand fermion modes."""
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


# ----------------------------------------------------- generator actions

def parse_generator(g: str) -> tuple[str, int, int | None]:
    """Parse e_i / f_i / h_i / p_i(m) generator names."""
    g = g.strip()
    if "(" in g:
        head, _, tail = g.partition("(")
        if not tail.endswith(")"):
            raise ValueError(f"malformed generator: {g!r}")
        kind, _, idx = head.partition("_")
        if kind != "p":
            raise ValueError(f"only p takes a mode argument: {g!r}")
        mode = int(tail[:-1])
        if mode == 0:
            raise ValueError("the degree-zero mode is excluded")
        return "p", int(idx), mode
    kind, _, idx = g.partition("_")
    if kind not in ("e", "f", "h") or not idx.lstrip("-").isdigit():
        raise ValueError(f"malformed generator: {g!r}")
    return kind, int(idx), None


def fk_e(i: int, v: Vec, l: int, window=None) -> Vec:
    """Raising generator at residue i on the lattice Fock space.

    Residue 0 is the f-type generator of the highest root at loop degree 1,
    so it carries the f dressing eps(theta, theta) eps(theta, beta).
    """
    i = check_residue(i, l)
    total = Vec.zero()
    for label, coeff in v.terms.items():
        beta, _ = label
        piece = Vec({label: coeff})
        if i == 0:
            top = theta(l)
            sign = epsilon(top, top, l) * epsilon(top, beta, l)
            out = vertex_coeff(tuple(-x for x in top), -1, piece, l, window)
        else:
            root = simple_root(i, l)
            sign = epsilon(root, beta, l)
            out = vertex_coeff(root, 0, piece, l, window)
        total = total + sign * out
    return total


def fk_f(i: int, v: Vec, l: int, window=None) -> Vec:
    """Lowering generator at residue i on the lattice Fock space.

    Residue 0 is the e-type generator of the highest root at loop degree -1
    and carries the plain dressing eps(theta, beta).
    """
    i = check_residue(i, l)
    total = Vec.zero()
    for label, coeff in v.terms.items():
        beta, _ = label
        piece = Vec({label: coeff})
        if i == 0:
            top = theta(l)
            sign = epsilon(top, beta, l)
            out = vertex_coeff(top, 1, piece, l, window)
        else:
            root = simple_root(i, l)
            sign = epsilon(root, root, l) * epsilon(root, beta, l)
            out = vertex_coeff(tuple(-x for x in root), 0, piece, l, window)
        total = total + sign * out
    return total


def fk_h(i: int, v: Vec, l: int) -> Vec:
    """Diagonal generator: pairing with the lattice label."""
    i = check_residue(i, l)

    def on_basis(label) -> Vec:
        beta, _ = label
        if i == 0:
            value = 1 - pairing(theta(l), beta)
        else:
            value = pairing(simple_root(i, l), beta)
        return Vec({label: value}) if value else Vec.zero()

    return v.apply(on_basis)


def fk_p(i: int, m: int, v: Vec, l: int) -> Vec:
    """Loop Heisenberg at residue i: difference of adjacent strand modes."""
    i = check_residue(i, l)
    if i == 0:
        return heis_tensor(m, l - 1, v) - heis_tensor(m, 0, v)
    return heis_tensor(m, i - 1, v) - heis_tensor(m, i, v)


def fk_action(g: str, v: Vec, l: int, window=None) -> Vec:
    kind, i, mode = parse_generator(g)
    if kind == "e":
        return fk_e(i, v, l, window)
    if kind == "f":
        return fk_f(i, v, l, window)
    if kind == "h":
        return fk_h(i, v, l)
    return fk_p(i, mode, v, l)


# ------------------------------------------------------- explicit action

def explicit_e(i: int, v: Vec, l: int) -> Vec:
    """Remove one node of content class i, with boundary-scan signs.

    The prefactor is minus the f prefactor; with the smaller-content scan
    this is what makes [e_i, f_i] = h_i close on every shape.
    """
    i = check_residue(i, l)

    def on_basis(lam) -> Vec:
        counts = residue_counts(lam, l)
        prefactor = -((-1) ** (counts[(i - 1) % l] + counts[i]))
        out = {}
        for node in removable_of_residue(lam, i, l):
            sign = (-1) ** eta(lam, i, node, l, ETA_SCAN_SIDE)
            out[remove_node(lam, node)] = prefactor * sign
        return Vec(out)

    return v.apply(on_basis)


def explicit_f(i: int, v: Vec, l: int) -> Vec:
    """Add one node of content class i; signs read off the diagram before
    the addition."""
    i = check_residue(i, l)

    def on_basis(lam) -> Vec:
        counts = residue_counts(lam, l)
        prefactor = (-1) ** (counts[(i - 1) % l] + counts[i])
        out = {}
        for node in addable_of_residue(lam, i, l):
            sign = (-1) ** eta(lam, i, node, l, ETA_SCAN_SIDE)
            out[add_node(lam, node)] = prefactor * sign
        return Vec(out)

    return v.apply(on_basis)


def explicit_h(i: int, v: Vec, l: int) -> Vec:
    """Diagonal: addable minus removable count of the content class."""
    i = check_residue(i, l)

    def on_basis(lam) -> Vec:
        value = len(addable_of_residue(lam, i, l)) - len(
            removable_of_residue(lam, i, l)
        )
        return Vec({lam: value}) if value else Vec.zero()

    return v.apply(on_basis)


@lru_cache(maxsize=1 << 14)
def _strand_hop_on_shape(k, n: int, lam, l: int) -> dict:
    """Single-strand boson read directly off the global diagram.

    Hops every particle at a position congruent to k mod l down the strand
    by n steps (n*l global steps), with the sign counting holes of the
    same congruence class strictly between. Hole counting (rather than
    particle counting) matches the twisted strand boson on the vertex side.
    """
    m = maya.from_partition(lam)
    stride = n * l
    candidates = set()
    for p in m.particles_below:
        if (p - k) % l == 0:
            candidates.add(p)
    for h in m.holes_above:
        if (h - k) % l == 0:
            candidates.add(h - stride)
    h = k  # positive sea particles that would land below zero
    while h < -stride:
        candidates.add(h)
        h += l
    out: dict = {}
    for p in sorted(candidates):
        q = p + stride
        if p == 0 or q == 0 or maya.evaluate(m, p) != 1 or maya.evaluate(m, q) != -1:
            continue
        lo = p if stride > 0 else q
        between = sum(
            1
            for step in range(1, abs(n))
            if maya.evaluate(m, lo + step * l) == -1
        )
        _, target = maya.to_charge_partition(
            fock._with_particle_inserted(fock._with_particle_removed(m, p), q)
        )
        sign = (-1) ** between
        out[target] = out.get(target, 0) + sign
    return {shape: coeff for shape, coeff in out.items() if coeff}


def explicit_p(i: int, mode: int, v: Vec, l: int) -> Vec:
    """Loop Heisenberg on partitions by direct strand hopping."""
    i = check_residue(i, l)
    if mode == 0:
        raise ValueError("the degree-zero mode is excluded")
    if i == 0:
        first, second = l - HALF, HALF
    else:
        first, second = i - HALF, i + HALF

    def on_basis(lam) -> Vec:
        out: dict = {}
        for shape, coeff in _strand_hop_on_shape(first, mode, lam, l).items():
            out[shape] = out.get(shape, 0) + coeff
        for shape, coeff in _strand_hop_on_shape(second, mode, lam, l).items():
            out[shape] = out.get(shape, 0) - coeff
        return Vec(out)

    return v.apply(on_basis)


def explicit_action(g: str, v: Vec, l: int) -> Vec:
    kind, i, mode = parse_generator(g)
    if kind == "e":
        return explicit_e(i, v, l)
    if kind == "f":
        return explicit_f(i, v, l)
    if kind == "h":
        return explicit_h(i, v, l)
    return explicit_p(i, mode, v, l)


# ------------------------------------------------------------- suites

def shape_vec_json(v: Vec) -> list:
    return fock.vec_json(v, shape_label_json, shape_sort_key)


def fk_vec_json(v: Vec) -> list:
    return fock.vec_json(v, fk_label_json, fk_label_sort_key)


def default_generators(l: int, include_p: bool = True) -> list[str]:
    gens = []
    for kind in ("e", "f", "h"):
        gens.extend(f"{kind}_{i}" for i in range(l))
    if include_p:
        gens.extend(f"p_{i}({m})" for i in range(l) for m in (1, -1, 2, -2))
    return gens


def verify_intertwining(l: int, max_degree: int, generators=None) -> dict:
    """Check transport(explicit g) = fk g(transport) on all small shapes."""
    if generators is None:
        generators = default_generators(l)
    failures = []
    shapes = partitions_up_to(max_degree)
    for g in generators:
        for lam in shapes:
            v = Vec.basis(lam)
            lhs = transport(explicit_action(g, v, l), l)
            rhs = fk_action(g, transport(v, l), l)
            if lhs != rhs:
                failures.append(
                    {
                        "generator": g,
                        "lambda": shape_label_json(lam),
                        "lhs": fk_vec_json(lhs),
                        "rhs": fk_vec_json(rhs),
                    }
                )
    return {
        "status": "ok" if not failures else "mismatch",
        "l": l,
        "degree": max_degree,
        "failures": failures,
    }


def _apply_word(word, v: Vec, l: int) -> Vec:
    """Apply generator names right to left, the composition order."""
    for g in reversed(word):
        v = explicit_action(g, v, l)
        if not v:
            break
    return v


def verify_relations(l: int, max_degree: int) -> dict:
    """Chevalley-Serre relations on graded slices of the partition basis."""
    failures = []
    cartan = cartan_matrix(l)

    def record(name, lam, lhs, rhs):
        failures.append(
            {
                "generator": name,
                "lambda": shape_label_json(lam),
                "lhs": shape_vec_json(lhs),
                "rhs": shape_vec_json(rhs),
            }
        )

    shapes = partitions_up_to(max_degree)
    for i in range(l):
        for j in range(l):
            for lam in shapes:
                v = Vec.basis(lam)
                room = max_degree - sum(lam)
                # [h_i, e_j] = A_ij e_j needs no headroom (e lowers degree)
                lhs = _apply_word((f"h_{i}", f"e_{j}"), v, l) - _apply_word(
                    (f"e_{j}", f"h_{i}"), v, l
                )
                rhs = cartan[i][j] * explicit_action(f"e_{j}", v, l)
                if lhs != rhs:
                    record(f"[h_{i},e_{j}]", lam, lhs, rhs)
                if room >= 1:
                    lhs = _apply_word((f"h_{i}", f"f_{j}"), v, l) - _apply_word(
                        (f"f_{j}", f"h_{i}"), v, l
                    )
                    rhs = -cartan[i][j] * explicit_action(f"f_{j}", v, l)
                    if lhs != rhs:
                        record(f"[h_{i},f_{j}]", lam, lhs, rhs)
                    lhs = _apply_word((f"e_{i}", f"f_{j}"), v, l) - _apply_word(
                        (f"f_{j}", f"e_{i}"), v, l
                    )
                    rhs = (
                        explicit_action(f"h_{i}", v, l) if i == j else Vec.zero()
                    )
                    if lhs != rhs:
                        record(f"[e_{i},f_{j}]", lam, lhs, rhs)
                if i != j:
                    power = 1 - cartan[i][j]
                    lhs = Vec.zero()
                    for k in range(power + 1):
                        word = (
                            (f"e_{i}",) * (power - k)
                            + (f"e_{j}",)
                            + (f"e_{i}",) * k
                        )
                        sign = (-1) ** k
                        coeff = sign * factorial(power) // (
                            factorial(k) * factorial(power - k)
                        )
                        lhs = lhs + coeff * _apply_word(word, v, l)
                    if lhs:
                        record(f"serre e_{i},e_{j}", lam, lhs, Vec.zero())
                    if room >= power + 1:
                        lhs = Vec.zero()
                        for k in range(power + 1):
                            word = (
                                (f"f_{i}",) * (power - k)
                                + (f"f_{j}",)
                                + (f"f_{i}",) * k
                            )
                            sign = (-1) ** k
                            coeff = sign * factorial(power) // (
                                factorial(k) * factorial(power - k)
                            )
                            lhs = lhs + coeff * _apply_word(word, v, l)
                        if lhs:
                            record(f"serre f_{i},f_{j}", lam, lhs, Vec.zero())
    return {
        "status": "ok" if not failures else "mismatch",
        "l": l,
        "degree": max_degree,
        "failures": failures,
    }
