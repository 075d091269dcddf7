"""Charged fermionic Fock space with exact rational coefficients.

Basis labels are pairs (charge, partition). The fermion psi_j deletes the
particle at half-integer position j (dropping the charge by one) and
psi_star_j inserts one; both carry the sign (-1)**(number of particles
strictly below j). The degree-n Heisenberg operator heis(n) is the sum of
all single-particle hops by n steps with the fermionic sign, which on
partition labels reproduces the border-strip expansion.

The same fermions arise as coefficients of the kernel fields

    Psi(z)      = Gplus(z)^{-1} Gminus(z) [charge -= 1] z^{-charge_in}
    Psi_star(z) = Gplus(z) Gminus(z)^{-1} [charge += 1] z^{+charge_in}

where Gplus(z) = exp(sum_m z^m heis(-m)/m) and Gminus(z) =
exp(sum_m z^{-m} heis(m)/m); psi_j is the z^{j-1/2} coefficient of Psi and
psi_star_j the z^{-j-1/2} coefficient of Psi_star. verify_boson_fermion
compares the two routes mode by mode.

The kernel coefficients are computed by the Pieri rules, in integers: the
z^d coefficient of Gplus adds a horizontal d-strip (coefficient 1), of
Gplus^{-1} a vertical d-strip (coefficient (-1)^d); the z^{-d} coefficients
of Gminus and Gminus^{-1} remove a horizontal or a vertical d-strip with the
same coefficients. The exponential series is never expanded.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import maya
from .maya import HALF, Maya
from .partitions import enumerate_partitions, transpose

# Sign carried by psi/psi_star for each particle strictly below the acted
# position. Flipping it desynchronizes the direct fermions from the kernel
# fields, which the mutation-sensitivity suite checks.
FERMION_SIGN = -1


class DegreeOverflowError(Exception):
    """An operator output left the requested degree window."""


class Vec:
    """Finite linear combination of hashable basis labels over Q."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean: dict = {}
        if terms:
            for label, coeff in dict(terms).items():
                coeff = Fraction(coeff)
                if coeff:
                    clean[label] = clean.get(label, 0) + coeff
        self.terms = {k: v for k, v in clean.items() if v}

    @classmethod
    def basis(cls, label) -> "Vec":
        return cls({label: Fraction(1)})

    @classmethod
    def zero(cls) -> "Vec":
        return cls()

    def coeff(self, label) -> Fraction:
        return self.terms.get(label, Fraction(0))

    def __add__(self, other: "Vec") -> "Vec":
        out = dict(self.terms)
        for label, coeff in other.terms.items():
            out[label] = out.get(label, 0) + coeff
        return Vec(out)

    def __sub__(self, other: "Vec") -> "Vec":
        out = dict(self.terms)
        for label, coeff in other.terms.items():
            out[label] = out.get(label, 0) - coeff
        return Vec(out)

    def __neg__(self) -> "Vec":
        return Vec({label: -coeff for label, coeff in self.terms.items()})

    def __mul__(self, scalar) -> "Vec":
        scalar = Fraction(scalar)
        return Vec({label: coeff * scalar for label, coeff in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, Vec) and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def apply(self, fn) -> "Vec":
        """Extend fn: label -> Vec linearly."""
        out: dict = {}
        for label, coeff in self.terms.items():
            for out_label, out_coeff in fn(label).terms.items():
                out[out_label] = out.get(out_label, 0) + coeff * out_coeff
        return Vec(out)

    def __repr__(self) -> str:
        if not self.terms:
            return "Vec(0)"
        bits = [f"{coeff}*{label}" for label, coeff in sorted(
            self.terms.items(), key=lambda t: repr(t[0]))]
        return "Vec(" + " + ".join(bits) + ")"


def label_sort_key(label):
    """Graded order on (charge, partition) labels: size, charge, then parts
    in the descending-lexicographic enumeration order."""
    c, lam = label
    return (sum(lam), c, tuple(-p for p in lam))


def vacuum(charge: int = 0) -> Vec:
    return Vec.basis((int(charge), ()))


@lru_cache(maxsize=1 << 12)
def _maya_of(label) -> Maya:
    c, lam = label
    return maya.from_charge_partition(c, lam)


def _label_of(m: Maya):
    return maya.to_charge_partition(m)


def _count_below(m: Maya, j: Fraction) -> int:
    """Number of particles strictly below position j."""
    count = sum(1 for p in m.particles_below if p < j)
    if j > 0:
        count += int(j - HALF) - sum(1 for h in m.holes_above if h < j)
    return count


def _with_particle_removed(m: Maya, j: Fraction) -> Maya:
    if j < 0:
        return Maya([p for p in m.particles_below if p != j], m.holes_above)
    return Maya(m.particles_below, m.holes_above + (j,))


def _with_particle_inserted(m: Maya, j: Fraction) -> Maya:
    if j < 0:
        return Maya(m.particles_below + (j,), m.holes_above)
    return Maya(m.particles_below, [h for h in m.holes_above if h != j])


def psi(j, v: Vec) -> Vec:
    """Delete the particle at position j; charge drops by one."""
    j = maya._check_half_integer(j)

    def on_basis(label) -> Vec:
        m = _maya_of(label)
        if maya.evaluate(m, j) != 1:
            return Vec.zero()
        sign = FERMION_SIGN ** _count_below(m, j)
        return Vec({_label_of(_with_particle_removed(m, j)): sign})

    return v.apply(on_basis)


def psi_star(j, v: Vec) -> Vec:
    """Insert a particle at position j; charge rises by one."""
    j = maya._check_half_integer(j)

    def on_basis(label) -> Vec:
        m = _maya_of(label)
        if maya.evaluate(m, j) != -1:
            return Vec.zero()
        sign = FERMION_SIGN ** _count_below(m, j)
        return Vec({_label_of(_with_particle_inserted(m, j)): sign})

    return v.apply(on_basis)


@lru_cache(maxsize=1 << 14)
def _heis_on_shape(n: int, lam) -> dict:
    """heis(n) on the charge-zero label of shape lam: hops p -> p + n.

    The hop sign is the parity of the number of particles strictly between
    the two positions, which is what the pair of fermion signs contracts to.
    The result is charge independent, so it is cached by shape alone.
    """
    m = maya.from_partition(lam)
    candidates = set(m.particles_below)
    candidates.update(h - n for h in m.holes_above)
    h = HALF
    while h < -n:
        candidates.add(h)
        h += 1
    out: dict = {}
    for p in sorted(candidates):
        q = p + n
        if maya.evaluate(m, p) != 1 or maya.evaluate(m, q) != -1:
            continue
        lo = p if n > 0 else q
        between = sum(
            1 for step in range(1, abs(n))
            if maya.evaluate(m, lo + step) == 1
        )
        _, target = _label_of(
            _with_particle_inserted(_with_particle_removed(m, p), q)
        )
        sign = (-1) ** between
        out[target] = out.get(target, 0) + sign
    return {shape: coeff for shape, coeff in out.items() if coeff}


def heis(n: int, v: Vec) -> Vec:
    """Degree-n Heisenberg operator; n < 0 raises degree by -n."""
    n = int(n)
    if n == 0:
        raise ValueError("the degree-zero mode is excluded")

    def on_basis(label) -> Vec:
        c, lam = label
        return Vec({(c, mu): coeff for mu, coeff in _heis_on_shape(n, lam).items()})

    return v.apply(on_basis)


def charge_shift(v: Vec, s: int) -> Vec:
    return Vec({(c + s, lam): coeff for (c, lam), coeff in v.terms.items()})


def degree(v: Vec) -> int:
    """Largest partition size in the support (0 for the zero vector)."""
    return max((sum(lam) for (_, lam) in v.terms), default=0)


def _check_window(v: Vec, window) -> Vec:
    if window is not None and degree(v) > window:
        raise DegreeOverflowError(
            f"output degree {degree(v)} exceeds window {window}"
        )
    return v


def _horizontal_strips(lam, d: int, add: bool) -> list:
    """Shapes mu such that mu/lam (add) or lam/mu (remove) is a horizontal
    d-strip: row i moves by at most the gap to its neighbour, which is
    lam[i-1] - lam[i] when adding (no bound on the first row, and one new
    row) and lam[i] - lam[i+1] when removing.
    """
    gaps = tuple(a - b for a, b in zip(lam, lam[1:] + (0,)))
    rows, caps, step = (lam + (0,), (d,) + gaps, 1) if add else (lam, gaps, -1)
    out = []

    def fill(i: int, left: int, prefix: tuple) -> None:
        if not left:
            mu = prefix + rows[i:]
            out.append(mu[: len(mu) - mu.count(0)])  # zeros only at the tail
        elif i < len(rows):
            for x in range(min(caps[i], left) + 1):
                fill(i + 1, left - x, prefix + (rows[i] + step * x,))

    fill(0, d, ())
    return out


@lru_cache(maxsize=1 << 14)
def _gamma_on_shape(sign: int, d: int, inverse: bool, lam) -> dict:
    """Shape part of the Gamma kernel coefficient (charge independent).

    The Pieri rules (Macdonald, Symmetric Functions and Hall Polynomials,
    I.5) give it with integer coefficients. The z^d coefficient of Gplus
    multiplies by h_d: add a horizontal d-strip, coefficient 1. Its inverse
    multiplies by (-1)^d e_d: add a vertical d-strip, coefficient (-1)^d.
    Gminus and its inverse are the adjoints: remove a horizontal d-strip,
    coefficient 1, or a vertical d-strip, coefficient (-1)^d. A vertical
    strip is a horizontal strip of the transposed shape.
    """
    add = sign == 1
    if not inverse:
        return {mu: 1 for mu in _horizontal_strips(lam, d, add)}
    coeff = (-1) ** d
    return {
        transpose(mu): coeff
        for mu in _horizontal_strips(transpose(lam), d, add)
    }


def gamma_coeff(sign: int, d: int, v: Vec, inverse: bool = False, window=None) -> Vec:
    """Coefficient of z^(sign*d) in the Gamma kernel applied to v.

    sign=+1 selects Gplus (built from the raising generators heis(-m),
    z-exponent +d), sign=-1 selects Gminus (heis(+m), z-exponent -d).
    inverse=True applies the inverse kernel, which negates every generator.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if d < 0:
        raise ValueError("coefficient degree must be nonnegative")

    def on_basis(label) -> Vec:
        c, lam = label
        return Vec(
            {(c, mu): coeff for mu, coeff in _gamma_on_shape(sign, d, inverse, lam).items()}
        )

    return _check_window(v.apply(on_basis), window)


def fermion_field_coeff(kind: str, j, v: Vec, window=None) -> Vec:
    """Mode of the kernel field: the second route to psi / psi_star.

    kind="psi" extracts the z^(j-1/2) coefficient of Psi(z), kind="psi_star"
    the z^(-j-1/2) coefficient of Psi_star(z). Applied right to left: the
    charge power of z, the charge shift, the Gminus part, then the Gplus
    part.
    """
    j = maya._check_half_integer(j)
    if kind not in ("psi", "psi_star"):
        raise ValueError(f"kind must be 'psi' or 'psi_star', got {kind!r}")
    total: dict = {}
    for label, coeff in v.terms.items():
        c, lam = label
        if kind == "psi":
            target = int(j - HALF) + c  # z^{-c} already extracted
            out_charge = c - 1
            plus_inverse, minus_inverse = True, False
        else:
            target = int(-j - HALF) - c
            out_charge = c + 1
            plus_inverse, minus_inverse = False, True
        shapes: dict = {}
        for b in range(max(0, -target), sum(lam) + 1):
            for shape, c1 in _gamma_on_shape(-1, b, minus_inverse, lam).items():
                for mu, c2 in _gamma_on_shape(1, target + b, plus_inverse, shape).items():
                    shapes[mu] = shapes.get(mu, 0) + c1 * c2
        for mu, n in shapes.items():
            key = (out_charge, mu)
            total[key] = total.get(key, 0) + coeff * n
    return _check_window(Vec(total), window)


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


def fock_labels(max_degree: int, charges=(0,)) -> list:
    """All (charge, partition) labels with the given charges, graded order."""
    out = []
    for n in range(max_degree + 1):
        for lam in enumerate_partitions(n):
            for c in charges:
                out.append((c, lam))
    return sorted(out, key=label_sort_key)


def verify_boson_fermion(max_degree: int = 6, max_charge: int = 2) -> dict:
    """Compare direct fermions with kernel-field coefficients mode by mode.

    Runs over all charges |c| <= max_charge, partitions of size <=
    max_degree, and every mode whose image can stay in the window. Returns
    a report dict with a failures list.
    """
    if max_degree < 0 or max_charge < 0:
        raise ValueError(
            f"degree and charge bounds must be nonnegative: {max_degree}, {max_charge}"
        )
    failures = []
    charges = range(-max_charge, max_charge + 1)
    reach = max_degree + max_charge + 2
    modes = [Fraction(2 * k + 1, 2) for k in range(-reach, reach)]
    for label in fock_labels(max_degree, charges):
        v = Vec.basis(label)
        c, lam = label
        for j in modes:
            for kind, direct_fn in (("psi", psi), ("psi_star", psi_star)):
                shift = j - HALF + c if kind == "psi" else -j - HALF - c
                if sum(lam) + shift > max_degree:
                    continue  # image leaves the degree window
                direct = direct_fn(j, v)
                kernel = fermion_field_coeff(kind, j, v)
                if direct != kernel:
                    failures.append(
                        {
                            "generator": f"{kind}({j})",
                            "lambda": {"charge": label[0], "partition": list(label[1])},
                            "lhs": vec_json(direct),
                            "rhs": vec_json(kernel),
                        }
                    )
    return {
        "status": "ok" if not failures else "mismatch",
        "degree": max_degree,
        "charge_bound": max_charge,
        "failures": failures,
    }


def fock_label_json(label) -> dict:
    c, lam = label
    return {"charge": c, "partition": list(lam)}


def vec_json(v: Vec, label_json=fock_label_json, sort_key=label_sort_key) -> list:
    """Deterministic JSON form of a vector: coefficient/label pairs."""
    return [
        {"coeff": str(v.terms[label]), "label": label_json(label)}
        for label in sorted(v.terms, key=sort_key)
    ]


def operator_matrix(apply_fn, source_labels, sort_key):
    """Sparse matrix of a linear map on an ordered list of basis labels.

    Returns (rows, cols, entries) where entries maps (row_index, col_index)
    to a nonzero Fraction, cols is the given source order, and rows are the
    output labels in sort_key order.
    """
    cols = list(source_labels)
    images = [apply_fn(label) for label in cols]
    row_set = set()
    for image in images:
        row_set.update(image.terms)
    rows = sorted(row_set, key=sort_key)
    row_index = {label: r for r, label in enumerate(rows)}
    entries = {}
    for col, image in enumerate(images):
        for label, coeff in image.terms.items():
            entries[(row_index[label], col)] = coeff
    return rows, cols, entries
