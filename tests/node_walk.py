"""The node-walking boundary helpers, kept as the test reference for the
one-pass scan partitions.residue_boundary.

Each helper walks every addable or removable node of a shape and filters
by content class, so it shares no code with the scan it checks. The
library read the residue-i boundary this way before the scan replaced it,
first on the explicit route and then on the geometric side.
"""

from fractions import Fraction
from math import prod

from affine_fock import equivariant as eq
from affine_fock.partitions import (
    addable_nodes,
    as_partition,
    check_l,
    check_residue,
    content,
    removable_nodes,
    residue_counts,
)


def addable_of_residue(lam, i: int, l: int) -> list[tuple[int, int]]:
    return [x for x in addable_nodes(lam) if content(x) % l == i % l]


def removable_of_residue(lam, i: int, l: int) -> list[tuple[int, int]]:
    return [x for x in removable_nodes(lam) if content(x) % l == i % l]


def eta(
    lam: tuple[int, ...],
    i: int,
    node: tuple[int, int],
    l: int,
    side: str,
) -> int:
    """Signed count of boundary nodes of residue i on one side of a node.

    side="left" counts strictly smaller contents, side="right" strictly
    greater contents; in both cases addable nodes count +1 and removable
    nodes count -1. The reference node itself never contributes.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    c0 = content(node)
    total = 0
    for x in addable_of_residue(lam, i, l):
        c = content(x)
        if (c < c0) if side == "left" else (c > c0):
            total += 1
    for x in removable_of_residue(lam, i, l):
        c = content(x)
        if (c < c0) if side == "left" else (c > c0):
            total -= 1
    return total




def geometric_e_by_node_walk(i: int, lam, mu, l: int) -> Fraction:
    """equivariant.geometric_e as it was before the boundary scan: the
    prefactor from residue_counts and the boundary nodes of lam and mu from
    the node walks."""
    l = check_l(l)
    i = check_residue(i, l)
    lam, mu = as_partition(lam), as_partition(mu)
    x = eq._removed_node(lam, mu)
    if x is None or content(x) % l != i:
        return Fraction(0)
    counts = residue_counts(lam, l)
    exponent = counts[i] + counts[(i + 1) % l] + (1 if i == 0 else 0)
    cx = content(x)
    num = prod(content(a) - cx for a in addable_of_residue(lam, i, l))
    den = prod(content(r) - cx for r in removable_of_residue(mu, i, l))
    return Fraction(-num if exponent % 2 else num, den)
