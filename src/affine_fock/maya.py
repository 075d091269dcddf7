"""Maya diagrams: half-integer charge configurations encoding partitions.

A Maya diagram is a map m from half-integers to {+1, -1} that is +1 for all
sufficiently positive positions and -1 for all sufficiently negative ones
(+1 marks a particle, -1 a hole; the filled sea sits at the top). Such a map
is stored by its finite deviation from the vacuum: the particles strictly
below zero and the holes strictly above zero.

The charge-zero diagram of a partition lam has particles at j - 1/2 - lam_j
for j = 1, 2, ...; conversely, listing the particle positions in increasing
order h_1 < h_2 < ... recovers lam_j = j - 1/2 - h_j. The integer
routines of fock take the bead h - 1/2 (bead) in place of the position h;
bead, its half-integer check and HALF live with the other argument checks
in partitions, so that fock does not import this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .partitions import HALF, _check_half_integer, as_partition, bead, check_strands


class Maya:
    """Immutable Maya diagram given by finite defect sets.

    particles_below: positions h < 0 carrying a particle, nearest zero first.
    holes_above: positions h > 0 missing a particle, in increasing order.
    """

    __slots__ = ("particles_below", "holes_above")

    def __init__(self, particles_below=(), holes_above=()):
        pb = tuple(sorted((_check_half_integer(h) for h in particles_below), reverse=True))
        ha = tuple(sorted(_check_half_integer(h) for h in holes_above))
        if any(h >= 0 for h in pb):
            raise ValueError(f"particles_below must be negative: {pb}")
        if any(h <= 0 for h in ha):
            raise ValueError(f"holes_above must be positive: {ha}")
        if len(set(pb)) != len(pb) or len(set(ha)) != len(ha):
            raise ValueError("defect positions must be distinct")
        object.__setattr__(self, "particles_below", pb)
        object.__setattr__(self, "holes_above", ha)

    def __setattr__(self, *_):
        raise AttributeError("Maya diagrams are immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Maya)
            and self.particles_below == other.particles_below
            and self.holes_above == other.holes_above
        )

    def __hash__(self):
        return hash((self.particles_below, self.holes_above))

    def __repr__(self) -> str:
        pb = ",".join(str(h) for h in self.particles_below)
        ha = ",".join(str(h) for h in self.holes_above)
        return f"Maya(particles_below=[{pb}], holes_above=[{ha}])"


def evaluate(m: Maya, h) -> int:
    """Value of the diagram at a half-integer position: +1 or -1."""
    h = _check_half_integer(h)
    if h > 0:
        return -1 if h in m.holes_above else 1
    return 1 if h in m.particles_below else -1


def charge(m: Maya) -> int:
    return len(m.particles_below) - len(m.holes_above)


def particle_positions(m: Maya) -> Iterator[Fraction]:
    """Particle positions in increasing order (an infinite stream)."""
    yield from sorted(m.particles_below)
    holes = set(m.holes_above)
    h = HALF
    while True:
        if h not in holes:
            yield h
        h += 1


def shift(m: Maya, c: int) -> Maya:
    """Translate the diagram: evaluate(shift(m, c), h) = evaluate(m, h - c).

    Equivalently every particle moves from p to p + c, and the charge drops
    by c.
    """
    c = int(c)
    pb = [p + c for p in m.particles_below if p + c < 0]
    ha = [h + c for h in m.holes_above if h + c > 0]
    if c < 0:
        # positive sea positions pushed below zero become explicit particles
        h = HALF
        holes = set(m.holes_above)
        while h < -c:
            if h not in holes:
                pb.append(h + c)
            h += 1
    elif c > 0:
        # negative hole positions pushed above zero become explicit holes
        h = -HALF
        particles = set(m.particles_below)
        while h > -c:
            if h not in particles:
                ha.append(h + c)
            h -= 1
    return Maya(pb, ha)


def from_partition(lam) -> Maya:
    """Charge-zero diagram of a partition."""
    lam = as_partition(lam)
    n = len(lam)
    finite = {Fraction(2 * j - 1, 2) - lam[j - 1] for j in range(1, n + 1)}
    pb = [h for h in finite if h < 0]
    ha = [
        Fraction(2 * k + 1, 2)
        for k in range(n)
        if Fraction(2 * k + 1, 2) not in finite
    ]
    return Maya(pb, ha)


def from_charge_partition(c: int, lam) -> Maya:
    """Diagram with the given charge whose normalized shape is lam."""
    return shift(from_partition(lam), -int(c))


def to_charge_partition(m: Maya) -> tuple[int, tuple[int, ...]]:
    """Inverse of from_charge_partition."""
    c = charge(m)
    m0 = shift(m, c)
    top = max(m0.holes_above, default=Fraction(-1, 2))
    lam = []
    for j, h in enumerate(particle_positions(m0), start=1):
        part = Fraction(2 * j - 1, 2) - h
        if part.denominator != 1:
            raise AssertionError("normalized diagram has broken positions")
        if part < 0:
            raise AssertionError("normalized diagram is not charge zero")
        if part == 0 and h > top:
            break
        if part > 0:
            lam.append(int(part))
    return c, tuple(lam)


def node_patterns(m: Maya) -> list[tuple[int, str]]:
    """Diagonals where the pair (m(j-1/2), m(j+1/2)) marks a boundary node.

    (-1, +1) around an integer j is an addable node of content j, and
    (+1, -1) is a removable node. Sorted by j.
    """
    lo_pos = min(m.particles_below, default=-HALF)
    hi_pos = max(m.holes_above, default=HALF)
    out = []
    for j in range(int(lo_pos - HALF) - 1, int(hi_pos + HALF) + 2):
        below = evaluate(m, j - HALF)
        above = evaluate(m, j + HALF)
        if (below, above) == (-1, 1):
            out.append((j, "addable"))
        elif (below, above) == (1, -1):
            out.append((j, "removable"))
    return out


def strand_positions(l: int) -> tuple[Fraction, ...]:
    """The half-integer strand labels 1/2, 3/2, ..., l - 1/2."""
    check_strands(l)
    return tuple(Fraction(2 * i + 1, 2) for i in range(l))


def strand(m: Maya, l: int, k) -> Maya:
    """Sub-diagram read along one congruence class of positions.

    The strand with label k (one of 1/2, ..., l - 1/2) evaluates at h to the
    original diagram at l*(h - 1/2) + k, the positions congruent to k mod l.
    """
    k = _check_half_integer(k)
    if k not in strand_positions(l):
        raise ValueError(f"strand label must lie in {strand_positions(l)}")
    pb = []
    lo = min(m.particles_below, default=Fraction(0))
    h = -HALF
    while l * (h - HALF) + k >= lo:
        if l * (h - HALF) + k in m.particles_below:
            pb.append(h)
        h -= 1
    ha = []
    hi = max(m.holes_above, default=Fraction(0))
    h = HALF
    while l * (h - HALF) + k <= hi:
        if l * (h - HALF) + k in m.holes_above:
            ha.append(h)
        h += 1
    return Maya(pb, ha)


def assemble_strands(strands, l: int) -> Maya:
    """Interleave l strand diagrams back into one global diagram.

    strands is a sequence of Maya diagrams indexed by the labels 1/2, ...,
    l - 1/2 in order; strand position h maps to l*(h - 1/2) + k.
    """
    labels = strand_positions(l)
    if len(strands) != l:
        raise ValueError(f"expected {l} strands, got {len(strands)}")
    pb = []
    ha = []
    for k, s in zip(labels, strands):
        pb.extend(l * (h - HALF) + k for h in s.particles_below)
        ha.extend(l * (h - HALF) + k for h in s.holes_above)
    return Maya(pb, ha)
