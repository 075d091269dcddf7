"""The l-core / l-quotient decomposition of partitions, on the abacus.

The James-Kerber abacus (James and Kerber 1981) puts bead i of a partition
lam at the integer position i - lam_i, for i below a multiple m*l of l with
m*l >= len(lam); every position from m*l upward holds a bead too. Position
b lies on runner b % l at level b // l. Runner r is the Maya strand
r + 1/2: its beads, read as a diagram of their own, have charge n_r - m for
n_r beads below level m. The core vector is c_r = m - n_r (it determines
the l-core), and quotient component r has parts j + c_r - level_j, the
levels taken in increasing order. Removing an l-hook from the partition is
the same as moving one bead down one level on a single runner, so the
partition size decomposes as |lam| = |core| + l * (total quotient size).
"""

from __future__ import annotations

from .partitions import LaurentPoly, as_partition, check_strands, diagonal_char, hook_lengths


def core_and_quotient(
    lam, l: int
) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Core vector and quotient tuple of a partition.

    Component r of the core vector (runner r, the strand r + 1/2) is minus
    the charge of the runner's beads; component r of the quotient is the
    runner's normalized shape.
    """
    lam = as_partition(lam)
    check_strands(l)
    m = -(-len(lam) // l)  # len(lam) / l rounded up
    levels = [[] for _ in range(l)]
    for i, part in enumerate(lam + (0,) * (m * l - len(lam))):
        levels[(i - part) % l].append((i - part) // l)
    c = tuple(m - len(runner) for runner in levels)
    q = tuple(
        tuple(j + cr - level for j, level in enumerate(runner) if j + cr > level)
        for cr, runner in zip(c, levels)
    )
    return c, q


def check_core_vector(c, l: int) -> tuple[int, ...]:
    """A core vector: l ints (a float or bool is refused, not truncated)
    that sum to zero."""
    check_strands(l)
    c = tuple(c)
    if not all(type(x) is int for x in c):
        raise ValueError(f"core vector components must be ints: {c!r}")
    if len(c) != l:
        raise ValueError(f"core vector must have {l} components: {c}")
    if sum(c) != 0:
        raise ValueError(f"core vector components must sum to zero: {c}")
    return c


def _check_label(c, q, l: int) -> tuple:
    """A core/quotient label: a core vector and a tuple of l partitions."""
    c = check_core_vector(c, l)
    q = tuple(as_partition(part) for part in q)
    if len(q) != l:
        raise ValueError(f"quotient must have {l} components: {q}")
    return c, q


def cq_inverse(c, q, l: int) -> tuple[int, ...]:
    """Partition with the given core vector and quotient tuple."""
    c, q = _check_label(c, q, l)
    m = max(len(qr) + cr for cr, qr in zip(c, q))
    beads = sorted(
        l * (j + cr - part) + r
        for r, (cr, qr) in enumerate(zip(c, q))
        for j, part in enumerate(qr + (0,) * (m - cr - len(qr)))
    )
    return tuple(i - bead for i, bead in enumerate(beads) if i > bead)


def core_partition(c, l: int) -> tuple[int, ...]:
    """The l-core determined by a core vector: empty quotient everywhere."""
    check_strands(l)
    return cq_inverse(c, ((),) * l, l)


def is_l_core(lam, l: int) -> bool:
    """True when no hook length is divisible by l."""
    check_strands(l)
    return all(h % l != 0 for h in hook_lengths(as_partition(lam)).values())


def quotient_char_rhs(c, q, l: int) -> LaurentPoly:
    """Content character rebuilt from core and quotient data.

    The core contributes its own character; runner r contributes its
    normalized character inflated by l, shifted by l*c_r, and smeared over
    the l consecutive integer contents ending at r.
    """
    c, q = _check_label(c, q, l)
    total = diagonal_char(core_partition(c, l))
    for r, (cr, qr) in enumerate(zip(c, q)):
        if not qr:
            continue
        window = LaurentPoly({e: 1 for e in range(r - l + 1, r + 1)})
        total = total + diagonal_char(qr).compose_power(l).shift(l * cr) * window
    return total
