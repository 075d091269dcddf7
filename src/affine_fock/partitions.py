"""Integer partitions, their diagrams, and Laurent polynomial characters.

Partitions are plain tuples of weakly decreasing positive integers, the empty
partition being (). A node (a, b) of the diagram sits in row a, column b
(both starting at 0), and belongs to the diagram exactly when b < lam[a].
The content of a node is a - b: row index minus column index, so the single
node of (1) has content 0, the second column node of (2) has content -1, and
the second row node of (1, 1) has content +1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator


def as_partition(parts: Iterable[int]) -> tuple[int, ...]:
    """Validate and normalize a partition given as any iterable of ints."""
    lam = tuple(int(p) for p in parts)
    if any(p <= 0 for p in lam):
        raise ValueError(f"partition parts must be positive: {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {lam}")
    return lam


def size(lam: tuple[int, ...]) -> int:
    return sum(lam)


def contains(lam: tuple[int, ...], node: tuple[int, int]) -> bool:
    a, b = node
    return 0 <= a < len(lam) and 0 <= b < lam[a]


def content(node: tuple[int, int]) -> int:
    """Content of a node: row minus column."""
    a, b = node
    return a - b


def nodes(lam: tuple[int, ...]) -> Iterator[tuple[int, int]]:
    for a, row in enumerate(lam):
        for b in range(row):
            yield (a, b)


def transpose(lam: tuple[int, ...]) -> tuple[int, ...]:
    if not lam:
        return ()
    return tuple(sum(1 for row in lam if row > b) for b in range(lam[0]))


class LaurentPoly:
    """Laurent polynomial in one variable with exact coefficients.

    Stored as a mapping from integer exponents to nonzero coefficients
    (ints or Fractions). Instances are treated as immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for e, c in dict(coeffs).items():
                if c:
                    clean[int(e)] = clean.get(int(e), 0) + c
        self.coeffs = {e: c for e, c in clean.items() if c}

    @classmethod
    def monomial(cls, exponent: int, coeff=1) -> "LaurentPoly":
        return cls({exponent: coeff})

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    def coeff(self, exponent: int):
        return self.coeffs.get(exponent, 0)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) - c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            out = {}
            for e1, c1 in self.coeffs.items():
                for e2, c2 in other.coeffs.items():
                    out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
            return LaurentPoly(out)
        return LaurentPoly({e: c * other for e, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def compose_power(self, k: int) -> "LaurentPoly":
        """Substitute z -> z**k. k = -1 mirrors the polynomial."""
        if k == 0:
            raise ValueError("substitution exponent must be nonzero")
        return LaurentPoly({e * k: c for e, c in self.coeffs.items()})

    def shift(self, s: int) -> "LaurentPoly":
        """Multiply by z**s."""
        return LaurentPoly({e + s: c for e, c in self.coeffs.items()})

    def keep_residue(self, l: int, r: int = 0) -> "LaurentPoly":
        """Keep only the terms whose exponent is congruent to r mod l."""
        return LaurentPoly(
            {e: c for e, c in self.coeffs.items() if (e - r) % l == 0}
        )

    def at_one(self):
        return sum(self.coeffs.values())

    def to_json(self) -> dict:
        out = {}
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if isinstance(c, Fraction) and c.denominator == 1:
                c = int(c)
            out[str(e)] = c if isinstance(c, int) else str(c)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "LaurentPoly":
        coeffs = {}
        for e, c in data.items():
            coeffs[int(e)] = c if isinstance(c, int) else Fraction(c)
        return cls(coeffs)

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                terms.append(f"{c}")
            elif e == 1:
                terms.append(f"{c}*z")
            else:
                terms.append(f"{c}*z^{e}")
        return " + ".join(terms)


def diagonal_char(lam: tuple[int, ...]) -> LaurentPoly:
    """Generating function of diagram nodes by content: sum of z**(a-b)."""
    counts: dict[int, int] = {}
    for node in nodes(lam):
        j = content(node)
        counts[j] = counts.get(j, 0) + 1
    return LaurentPoly(counts)


def check_residue(i: int, l: int) -> int:
    """A residue class mod l, given by its representative 0..l-1."""
    if not 0 <= i <= l - 1:
        raise ValueError(f"residue must be 0..{l - 1}: {i}")
    return i


def residue_counts(lam: tuple[int, ...], l: int) -> tuple[int, ...]:
    """Number of nodes of each content class mod l, indexed 0..l-1."""
    if l < 1:
        raise ValueError("modulus must be positive")
    v = [0] * l
    for node in nodes(lam):
        v[content(node) % l] += 1
    return tuple(v)


def addable_nodes(lam: tuple[int, ...]) -> list[tuple[int, int]]:
    """Nodes that can be appended keeping a partition shape.

    The empty partition has the single addable node (0, 0).
    """
    out = []
    for a in range(len(lam) + 1):
        b = lam[a] if a < len(lam) else 0
        if a == 0 or b < lam[a - 1]:
            out.append((a, b))
    return out


def removable_nodes(lam: tuple[int, ...]) -> list[tuple[int, int]]:
    out = []
    for a, row in enumerate(lam):
        if a == len(lam) - 1 or lam[a + 1] < row:
            out.append((a, row - 1))
    return out


def boundary_nodes(
    lam: tuple[int, ...], l: int | None = None, i: int | None = None
) -> list[tuple[tuple[int, int], str]]:
    """Addable and removable nodes sorted by increasing content.

    With l and i given, keeps only nodes whose content is congruent to
    i mod l.
    """
    tagged = [(x, "addable") for x in addable_nodes(lam)]
    tagged += [(x, "removable") for x in removable_nodes(lam)]
    if l is not None:
        if i is None:
            raise ValueError("residue i is required when l is given")
        tagged = [t for t in tagged if content(t[0]) % l == i % l]
    return sorted(tagged, key=lambda t: content(t[0]))


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


def hook_lengths(lam: tuple[int, ...]) -> dict[tuple[int, int], int]:
    """Hook length of every node: arm + leg + 1."""
    lamt = transpose(lam)
    out = {}
    for a, row in enumerate(lam):
        for b in range(row):
            arm = row - b - 1
            leg = lamt[b] - a - 1
            out[(a, b)] = arm + leg + 1
    return out


def add_node(lam: tuple[int, ...], node: tuple[int, int]) -> tuple[int, ...]:
    if node not in addable_nodes(lam):
        raise ValueError(f"node {node} is not addable to {lam}")
    a, b = node
    rows = list(lam)
    if a == len(rows):
        rows.append(1)
    else:
        rows[a] += 1
    return tuple(rows)


def remove_node(lam: tuple[int, ...], node: tuple[int, int]) -> tuple[int, ...]:
    if node not in removable_nodes(lam):
        raise ValueError(f"node {node} is not removable from {lam}")
    a, _ = node
    rows = list(lam)
    rows[a] -= 1
    if rows[a] == 0:
        rows.pop(a)
    return tuple(rows)


def enumerate_partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n in lexicographically descending order.

    For n = 3 this is (3,), (2, 1), (1, 1, 1).
    """
    if n < 0:
        raise ValueError("cannot partition a negative integer")

    def gen(rem: int, largest: int):
        if rem == 0:
            yield ()
            return
        for first in range(min(rem, largest), 0, -1):
            for rest in gen(rem - first, first):
                yield (first,) + rest

    return list(gen(n, n))


def partitions_up_to(max_size: int) -> list[tuple[int, ...]]:
    """All partitions of size 0..max_size in graded lexicographic order.

    A negative bound is an error rather than an empty list, so that a suite
    enumerating through here cannot pass after checking nothing.
    """
    if max_size < 0:
        raise ValueError(f"size bound must be nonnegative: {max_size}")
    out: list[tuple[int, ...]] = []
    for n in range(max_size + 1):
        out.extend(enumerate_partitions(n))
    return out
