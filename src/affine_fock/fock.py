"""Charged fermionic Fock space with integer coefficients.

Basis labels are pairs (charge, partition). The label (c, lam) is the set
of beads at the integers i - lam_i - c for i >= 0; bead b is the particle
at the half-integer position b + 1/2 of the Maya diagram. The fermion psi_j
deletes the particle at position j (dropping the charge by one) and
psi_star_j inserts one; both carry the sign (-1)**(number of particles
strictly below j). The degree-n Heisenberg operator heis(n) is the sum of
all single-bead hops by n steps with the fermionic sign, which on
partition labels is the border-strip (Murnaghan-Nakayama) expansion.
States are partitions.Vec over these labels; fock.Vec is the same class.

Both fermions are one integer routine, _fermion(a, b, v), on the bead
b = j - 1/2; verify_boson_fermion passes the integer bead straight in.

The same fermions arise as coefficients of the kernel fields

    Psi(z)      = Gplus(z)^{-1} Gminus(z) [charge -= 1] z^{-charge_in}
    Psi_star(z) = Gplus(z) Gminus(z)^{-1} [charge += 1] z^{+charge_in}

where Gplus(z) = exp(sum_m z^m heis(-m)/m) and Gminus(z) =
exp(sum_m z^{-m} heis(m)/m); psi_j is the z^{j-1/2} coefficient of Psi and
psi_star_j the z^{-j-1/2} coefficient of Psi_star. verify_boson_fermion
compares the two routes mode by mode.

There is one field kernel, the rank-one field Gplus(z)^-a Gminus(z)^a on
one shape for a = +1 or -1 (_field_on_shape). Psi and Psi_star are its
cases a = +1 and -1, the vertex operators X(+1, z) and X(-1, z); for a
root alpha = e_p - e_q, frenkel_kac multiplies the a = +1 field on
quotient shape p by the a = -1 field on shape q to get X(alpha, z).

The kernel coefficients are computed by the Pieri rules, in integers: the
z^d coefficient of Gplus adds a horizontal d-strip (coefficient 1), of
Gplus^{-1} a vertical d-strip (coefficient (-1)^d); the z^{-d} coefficients
of Gminus and Gminus^{-1} remove a horizontal or a vertical d-strip with the
same coefficients. The exponential series is never expanded.

The memo policy of the package: a memo outlives a call only when its
function is pure in its arguments and reads no mutation seam, as exactly
the shape kernels _hop_on_shape, _gamma_on_shape and _field_on_shape do;
each is an unbounded functools.cache. A memo that reads l from its call,
or a seam, lives for one call (frenkel_kac's transported and image).
epsilon (reads EPSILON_NEG_OFFSETS) and _fermion (FERMION_SIGN) keep none.
"""

from __future__ import annotations

from functools import cache

from . import maya
from .maya import HALF
from .partitions import Vec, enumerate_partitions

# Sign carried by psi/psi_star for each particle strictly below the acted
# position. Flipping it desynchronizes the direct fermions from the kernel
# fields, which the mutation-sensitivity suite checks.
FERMION_SIGN = -1


def label_sort_key(label):
    """Graded order on (charge, partition) labels: size, charge, then parts
    in the descending-lexicographic enumeration order."""
    c, lam = label
    return (sum(lam), c, tuple(-p for p in lam))


def vacuum(charge: int = 0) -> Vec:
    if type(charge) is not int:
        raise ValueError(f"the charge must be an int: {charge!r}")
    return Vec.basis((charge, ()))


def check_mode(n: int) -> int:
    """A Heisenberg mode: a nonzero int; a float or bool is refused, not
    truncated."""
    if type(n) is not int:
        raise ValueError(f"the mode must be an int: {n!r}")
    if n == 0:
        raise ValueError("the degree-zero mode is excluded")
    return n


def _bead_index(c: int, lam, b: int) -> tuple[int, bool]:
    """Number k of beads below position b on the label (c, lam), and
    whether b holds a bead. The beads sit at i - lam_i - c, increasing in i.
    """
    for k, part in enumerate(lam):
        bead = k - part - c
        if bead >= b:
            return k, bead == b
    return max(len(lam), b + c), b + c >= len(lam)


def _trim(parts) -> tuple:
    """Drop the zero parts of a weakly decreasing sequence."""
    parts = tuple(parts)
    return parts[: len(parts) - parts.count(0)]


def _fermion(a: int, b: int, v: Vec) -> Vec:
    """psi (a = +1: delete the bead at b, charge drops by one) or psi_star
    (a = -1: fill the hole at b, charge rises by one) on every label of v,
    signed by FERMION_SIGN ** k for the k beads below b.

    Deleting grows the k rows above b by one and moves the rows below up one
    place; inserting shrinks the k rows above by one and puts a new row
    k - c - 1 - b in at place k.
    """
    out: dict = {}
    for (c, lam), coeff in v.terms.items():
        k, occupied = _bead_index(c, lam, b)
        if occupied != (a == 1):
            continue
        if a == 1:
            mu = tuple(p + 1 for p in lam[:k]) + (1,) * (k - len(lam)) + lam[k + 1 :]
        else:
            mu = _trim(tuple(p - 1 for p in lam[:k]) + (k - c - 1 - b,) + lam[k:])
        key = (c - a, mu)
        out[key] = out.get(key, 0) + coeff * FERMION_SIGN ** k
    return Vec(out)


def psi(j, v: Vec) -> Vec:
    """Delete the particle at position j; charge drops by one."""
    return _fermion(1, maya.bead(j), v)


def psi_star(j, v: Vec) -> Vec:
    """Insert a particle at position j; charge rises by one."""
    return _fermion(-1, maya.bead(j), v)


@cache
def _hop_on_shape(n: int, l: int, r: int, lam) -> dict:
    """Move one bead of runner r by n*l on the beads {i - lam_i}.

    The runner holds the positions congruent to r mod l. The sign is
    (-1)^(holes of the runner strictly between the two positions); on
    stride 1 that is the particles-between sign times (-1)^(|n|-1). Every
    position from len(lam) + |n|*l up is a bead, so only the beads below
    it can move and only holes below it lie between.
    """
    stride = n * l
    top = len(lam) + abs(stride)
    beads = [i - p for i, p in enumerate(lam)] + list(range(len(lam), top))
    occupied = set(beads)
    out = {}
    for b in beads:
        q = b + stride
        if b % l != r or q >= top or q in occupied:
            continue
        lo = min(b, q)
        holes = sum(1 for t in range(1, abs(n)) if lo + t * l not in occupied)
        moved = sorted(occupied - {b} | {q})
        out[_trim(i - x for i, x in enumerate(moved))] = -1 if holes % 2 else 1
    return out


def heis(n: int, v: Vec) -> Vec:
    """Degree-n Heisenberg operator; n < 0 raises degree by -n.

    It hops one bead by n with the particles-between sign (the
    Murnaghan-Nakayama rule): the holes-between sign of the stride-1 bead
    hop times (-1)^(|n|-1). The result is charge independent.
    """
    n = check_mode(n)
    twist = 1 if n % 2 else -1

    def on_basis(label) -> Vec:
        c, lam = label
        hops = _hop_on_shape(n, 1, 0, lam)
        return Vec({(c, mu): twist * s for mu, s in hops.items()})

    return v.apply(on_basis)


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
            out.append(_trim(prefix + rows[i:]))
        elif i < len(rows):
            for x in range(min(caps[i], left) + 1):
                fill(i + 1, left - x, prefix + (rows[i] + step * x,))

    fill(0, d, ())
    return out


def _vertical_strips(lam, d: int, add: bool) -> list:
    """Shapes mu such that mu/lam (add) or lam/mu (remove) is a vertical
    d-strip, at most one node per row. On a run of equal rows the strip
    takes the top rows of the run when adding and the bottom rows when
    removing; adding may also open new rows of length 1.
    """
    runs = []  # [part, number of rows]
    for p in lam:
        if runs and runs[-1][0] == p:
            runs[-1][1] += 1
        else:
            runs.append([p, 1])
    out = []

    def fill(i: int, left: int, prefix: tuple, row: int) -> None:
        if not left:
            out.append(prefix + lam[row:])
        elif i == len(runs):
            if add:
                out.append(prefix + (1,) * left)
        else:
            p, n = runs[i]
            for x in range(min(n, left) + 1):
                if add:
                    rows = (p + 1,) * x + (p,) * (n - x)
                else:
                    rows = (p,) * (n - x) + ((p - 1,) * x if p > 1 else ())
                fill(i + 1, left - x, prefix + rows, row + n)

    fill(0, d, (), 0)
    return out


@cache
def _gamma_on_shape(sign: int, d: int, inverse: bool, lam) -> dict:
    """Shape part of the Gamma kernel coefficient (charge independent).

    The Pieri rules (Macdonald, Symmetric Functions and Hall Polynomials,
    I.5) give it with integer coefficients. The z^d coefficient of Gplus
    multiplies by h_d: add a horizontal d-strip, coefficient 1. Its inverse
    multiplies by (-1)^d e_d: add a vertical d-strip, coefficient (-1)^d.
    Gminus and its inverse are the adjoints: remove a horizontal d-strip,
    coefficient 1, or a vertical d-strip, coefficient (-1)^d.
    """
    add = sign == 1
    if not inverse:
        return {mu: 1 for mu in _horizontal_strips(lam, d, add)}
    coeff = -1 if d % 2 else 1
    return {mu: coeff for mu in _vertical_strips(lam, d, add)}


def gamma_coeff(sign: int, d: int, v: Vec, inverse: bool = False) -> Vec:
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

    return v.apply(on_basis)


@cache
def _field_on_shape(a: int, target: int, lam) -> tuple:
    """The rank-one field kernel: the z^target coefficient of
    Gplus(z)^-a Gminus(z)^a on one shape, a = +1 or -1, summed over the
    degree b that the Gminus part removes. The Gminus part is inverted when
    a < 0, the Gplus part when a > 0.

    Returns the (mu, coeff) pairs whose sum does not cancel, as a tuple so
    that callers cannot change the cached value."""
    out: dict = {}
    for b in range(max(0, -target), sum(lam) + 1):
        for mid, c1 in _gamma_on_shape(-1, b, a < 0, lam).items():
            for mu, c2 in _gamma_on_shape(1, target + b, a > 0, mid).items():
                out[mu] = out.get(mu, 0) + c1 * c2
    return tuple((mu, c) for mu, c in out.items() if c)


def fermion_field_coeff(kind: str, j, v: Vec) -> Vec:
    """Mode of the kernel field: the second route to psi / psi_star.

    kind="psi" extracts the z^(j-1/2) coefficient of Psi(z), kind="psi_star"
    the z^(-j-1/2) coefficient of Psi_star(z): the field kernel with
    a = +1 or -1 after the charge power of z and the charge shift.
    """
    h = maya.bead(j)  # j = h + 1/2
    if kind not in ("psi", "psi_star"):
        raise ValueError(f"kind must be 'psi' or 'psi_star', got {kind!r}")
    a = 1 if kind == "psi" else -1
    total: dict = {}
    for (c, lam), coeff in v.terms.items():
        target = h + c if a == 1 else -h - 1 - c  # z^{-a c} already extracted
        for mu, n in _field_on_shape(a, target, lam):
            key = (c - a, mu)
            total[key] = total.get(key, 0) + coeff * n
    return Vec(total)


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
    max_degree, and every mode whose image stays within max_degree. Returns
    a report dict with a failures list.
    """
    for bound in (max_degree, max_charge):
        if type(bound) is not int:
            raise ValueError(f"degree and charge bounds must be ints: {bound!r}")
    if max_degree < 0 or max_charge < 0:
        raise ValueError(
            f"degree and charge bounds must be nonnegative: {max_degree}, {max_charge}"
        )
    failures = []
    charges = range(-max_charge, max_charge + 1)
    reach = max_degree + max_charge + 2
    modes = [HALF + k for k in range(-reach, reach)]
    for label in fock_labels(max_degree, charges):
        v = Vec.basis(label)
        c, lam = label
        size = sum(lam)
        for k, j in enumerate(modes, -reach):  # j = k + 1/2
            for kind, a, shift in (("psi", 1, k + c), ("psi_star", -1, -k - 1 - c)):
                if size + shift > max_degree:
                    continue  # image is above max_degree
                direct = _fermion(a, k, v)  # k is the bead of j
                kernel = fermion_field_coeff(kind, j, v)
                if direct != kernel:
                    failures.append(
                        failure(
                            f"{kind}({j})",
                            fock_label_json(label),
                            vec_json(direct),
                            vec_json(kernel),
                        )
                    )
    return report(failures, degree=max_degree, charge_bound=max_charge)


def fock_label_json(label) -> dict:
    c, lam = label
    return {"charge": c, "partition": list(lam)}


def vec_json(v: Vec, label_json=fock_label_json, sort_key=label_sort_key) -> list:
    """Deterministic JSON form of a vector: coefficient/label pairs."""
    return [
        {"coeff": str(v.terms[label]), "label": label_json(label)}
        for label in sorted(v.terms, key=sort_key)
    ]


def failure(generator: str, label_json: dict, lhs, rhs) -> dict:
    """One entry of a suite's failures list: the generator or relation, the
    JSON label it failed on, and the two sides in JSON form."""
    return {"generator": generator, "lambda": label_json, "lhs": lhs, "rhs": rhs}


def report(failures: list, **fields) -> dict:
    """A suite report: status, the suite's own fields in the given order,
    then the failures. The status is "ok" exactly when nothing failed."""
    return {"status": "mismatch" if failures else "ok", **fields, "failures": failures}


def operator_matrix(apply_fn, source_labels, sort_key):
    """Sparse matrix of a linear map on an ordered list of basis labels.

    Returns (rows, cols, entries) where entries maps (row_index, col_index)
    to a nonzero coefficient, cols is the given source order, and rows are the
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
