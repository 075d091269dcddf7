"""The integer bead routines of fock, frenkel_kac and equivariant against
the Maya diagram routines they replaced, which live on here as test oracles.

A label (c, lam) has beads at the integers i - lam_i - c; bead b is the
Maya particle at b + 1/2, and abacus runner r is the strand r + 1/2.
"""

import ast
from pathlib import Path

import pytest

from affine_fock import equivariant as eq
from affine_fock import fock, maya
from affine_fock import frenkel_kac as fk
from affine_fock.fock import Vec
from affine_fock.maya import HALF, Maya
from affine_fock.partitions import partitions_up_to
from node_walk import eta

# ------------------------------------------------------------ Maya oracles


def count_below(m: Maya, j) -> int:
    """Number of particles strictly below position j."""
    count = sum(1 for p in m.particles_below if p < j)
    if j > 0:
        count += int(j - HALF) - sum(1 for h in m.holes_above if h < j)
    return count


def with_particle_removed(m: Maya, j) -> Maya:
    if j < 0:
        return Maya([p for p in m.particles_below if p != j], m.holes_above)
    return Maya(m.particles_below, m.holes_above + (j,))


def with_particle_inserted(m: Maya, j) -> Maya:
    if j < 0:
        return Maya(m.particles_below + (j,), m.holes_above)
    return Maya(m.particles_below, [h for h in m.holes_above if h != j])


def maya_fermion(kind: str, j, label) -> Vec:
    """psi (delete the particle at j) or psi_star (insert one) on a label."""
    m = maya.from_charge_partition(*label)
    if maya.evaluate(m, j) != (1 if kind == "psi" else -1):
        return Vec.zero()
    move = with_particle_removed if kind == "psi" else with_particle_inserted
    return Vec({maya.to_charge_partition(move(m, j)): (-1) ** count_below(m, j)})


def maya_heis_on_shape(n: int, lam) -> dict:
    """heis(n) on the charge-zero label of lam: hops p -> p + n, signed by
    the particles strictly between."""
    m = maya.from_partition(lam)
    candidates = set(m.particles_below)
    candidates.update(h - n for h in m.holes_above)
    h = HALF
    while h < -n:
        candidates.add(h)
        h += 1
    out = {}
    for p in sorted(candidates):
        q = p + n
        if maya.evaluate(m, p) != 1 or maya.evaluate(m, q) != -1:
            continue
        lo = p if n > 0 else q
        between = sum(
            1 for step in range(1, abs(n)) if maya.evaluate(m, lo + step) == 1
        )
        _, target = maya.to_charge_partition(
            with_particle_inserted(with_particle_removed(m, p), q)
        )
        out[target] = out.get(target, 0) + (-1) ** between
    return {shape: coeff for shape, coeff in out.items() if coeff}


def maya_strand_hop_on_shape(k, n: int, lam, l: int) -> dict:
    """Hop a particle at a position congruent to k mod l by n*l, signed by
    the holes of that class strictly between."""
    m = maya.from_partition(lam)
    stride = n * l
    candidates = {p for p in m.particles_below if (p - k) % l == 0}
    candidates.update(h - stride for h in m.holes_above if (h - k) % l == 0)
    h = k  # positive sea particles that would land below zero
    while h < -stride:
        candidates.add(h)
        h += l
    out = {}
    for p in sorted(candidates):
        q = p + stride
        if maya.evaluate(m, p) != 1 or maya.evaluate(m, q) != -1:
            continue
        lo = p if stride > 0 else q
        between = sum(
            1 for step in range(1, abs(n)) if maya.evaluate(m, lo + step * l) == -1
        )
        _, target = maya.to_charge_partition(
            with_particle_inserted(with_particle_removed(m, p), q)
        )
        out[target] = out.get(target, 0) + (-1) ** between
    return {shape: coeff for shape, coeff in out.items() if coeff}


def maya_hook_pairs(lam, l: int) -> list:
    """Walk the Maya diagram of lam from 1/2 - lam_1 up to its highest
    hole; pair each particle x with every hole y > x with l | y - x."""
    m = maya.from_partition(lam)
    lo = HALF - (lam[0] if lam else 0)
    hi = max(m.holes_above, default=-HALF)
    particles = []
    holes = []
    h = lo
    while h <= hi:
        (particles if maya.evaluate(m, h) == 1 else holes).append(h)
        h += 1
    return [
        (x, y)
        for x in particles
        for y in holes
        if y > x and (y - x) % l == 0
    ]


HOP_MODES = [n for n in range(-4, 5) if n]

# ------------------------------------------------------------- the pins


@pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
def test_hop_matches_maya_strand_hop(l):
    """One bead hop equals the Maya strand hop on every runner, for every
    |lam| <= 10 and 1 <= |n| <= 4."""
    for lam in partitions_up_to(10):
        for r in range(l):
            for n in HOP_MODES:
                got = fock._hop_on_shape(n, l, r, lam)
                assert len(dict(got)) == len(got)
                assert dict(got) == maya_strand_hop_on_shape(r + HALF, n, lam, l)


def test_heis_matches_maya_heis():
    for lam in partitions_up_to(10):
        for n in HOP_MODES:
            want = {(0, mu): coeff for mu, coeff in maya_heis_on_shape(n, lam).items()}
            assert fock.heis(n, Vec.basis((0, lam))) == Vec(want)


def test_fermions_match_maya_fermions():
    """psi and psi_star on beads equal the Maya routines for every
    |lam| <= 8, |c| <= 3 and mode -27/2 .. 27/2."""
    modes = [HALF + k for k in range(-14, 14)]
    for lam in partitions_up_to(8):
        for c in range(-3, 4):
            v = Vec.basis((c, lam))
            for j in modes:
                assert fock.psi(j, v) == maya_fermion("psi", j, (c, lam))
                assert fock.psi_star(j, v) == maya_fermion("psi_star", j, (c, lam))


def test_fermion_routine_matches_maya_fermions():
    """_fermion(+1 or -1, b, v) is psi or psi_star at b + 1/2 extended
    linearly: it equals the Maya routines for every bead -10 <= b <= 10, on
    every basis vector with |lam| <= 6 and |c| <= 2 and on sums of them
    with mixed coefficients, sizes and charges."""
    labels = [(c, lam) for lam in partitions_up_to(6) for c in range(-2, 3)]
    vectors = [Vec.basis(label) for label in labels]
    for c in range(-2, 3):
        same_charge = [label for label in labels if label[0] == c]
        vectors.append(Vec({label: i - 7 for i, label in enumerate(same_charge)}))
    vectors.append(Vec({label: 3 - i % 7 for i, label in enumerate(labels)}))
    for b in range(-10, 11):
        for a, kind in ((1, "psi"), (-1, "psi_star")):
            image = {label: maya_fermion(kind, b + HALF, label) for label in labels}
            for v in vectors:
                want = Vec.zero()
                for label, coeff in v.terms.items():
                    want = want + coeff * image[label]
                assert fock._fermion(a, b, v) == want


@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_hook_pairs_match_maya_hook_pairs(l):
    """hook_pairs on beads gives the Maya walk's pairs, in its order, for
    every |lam| <= 10."""
    for lam in partitions_up_to(10):
        assert eq.hook_pairs(lam, l) == maya_hook_pairs(lam, l)


def test_every_route_returns_int_coefficients():
    """Explicit, Fock and vertex outputs hold ints, never Fraction or float;
    f_1 on (2,) at l = 2 has a negative eta, whose sign (-1)**eta is -1.0."""
    assert eta((2,), 1, (1, 0), 2, fk.ETA_SCAN_SIDE) < 0
    assert fk.explicit_action("f_1", Vec.basis((2,)), 2).terms
    outputs = []
    for l in (2, 3):
        for lam in partitions_up_to(4):
            v = Vec.basis(lam)
            for g in fk.default_generators(l):
                outputs.append(fk.explicit_action(g, v, l))
                outputs.append(fk.fk_action(g, fk.transport(v, l), l))
    for label in fock.fock_labels(4, (-1, 0, 1)):
        v = Vec.basis(label)
        for k in range(-4, 4):
            outputs.append(fock.psi(HALF + k, v))
            outputs.append(fock.psi_star(HALF + k, v))
            for kind in ("psi", "psi_star"):
                outputs.append(fock.fermion_field_coeff(kind, HALF + k, v))
        for n in HOP_MODES:
            outputs.append(fock.heis(n, v))
    assert sum(len(out.terms) for out in outputs) > 1000
    for out in outputs:
        assert all(type(coeff) is int for coeff in out.terms.values()), out


# the Maya helpers the bead routines replaced, the twisted kernel that the
# one field kernel replaced, the tuple-of-shapes kernels that the rank-one
# field replaced, and the lattice check core_quotient replaced
DELETED_NAMES = {
    "_maya_of",
    "_label_of",
    "_count_below",
    "_with_particle_removed",
    "_with_particle_inserted",
    "_heis_on_shape",
    "_strand_hop_on_shape",
    "_twisted_heis_on_shape",
    "_twisted_gamma_on_shape",
    "_exp_coeff_on_shapes",
    "_exp_on_shapes",
    "_field_on_shapes",
    "check_lattice_vector",
}


@pytest.mark.parametrize("module", [fock, fk], ids=["fock", "frenkel_kac"])
def test_fock_side_imports_no_fractions(module):
    tree = ast.parse(Path(module.__file__).read_text())
    imported, defined = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            defined.add(node.id)
    assert "fractions" not in imported
    assert not defined & DELETED_NAMES


def test_equivariant_imports_no_maya():
    """equivariant reads beads off the partition; it still needs Fraction
    for the localization coefficients, so this is not the fractions check."""
    tree = ast.parse(Path(eq.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(alias.name for alias in node.names)
    assert "maya" not in imported and "affine_fock.maya" not in imported
