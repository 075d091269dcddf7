"""Integer partitions, their diagrams, sparse exact vectors and Laurent
polynomial characters.

Partitions are plain tuples of weakly decreasing positive integers, the empty
partition being (). A node (a, b) of the diagram sits in row a, column b
(both starting at 0), and belongs to the diagram exactly when b < lam[a].
The content of a node is a - b: row index minus column index, so the single
node of (1) has content 0, the second column node of (2) has content -1, and
the second row node of (1, 1) has content +1.

Vec is the one sparse exact-vector type: the charged Fock labels, the
lattice labels and the partitions all index Vecs, and LaurentPoly is a Vec
on integer exponents with the polynomial product added.

The checks of partitions, partition sizes and size bounds, l, residues,
strand and modulus counts, core vectors, Heisenberg modes and charges keep
one rule, the CLI's: only `type(x) is int` passes, so a float is refused,
not truncated, and a bool is not an int. A half-integer Maya position
(bead) is checked here too, so the integer Fock routines need no maya.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator


def as_partition(parts: Iterable[int]) -> tuple[int, ...]:
    """Validate a partition given as any iterable of ints, in one pass (a
    float or bool is refused, not truncated; a part <= 0 outranks an
    ascent)."""
    lam = tuple(parts)
    prev, ordered = (lam[0] if lam else 0), True
    for p in lam:
        if type(p) is not int:
            raise ValueError(f"partition parts must be ints: {lam!r}")
        if p <= 0:
            raise ValueError(f"partition parts must be positive: {lam}")
        ordered, prev = ordered and p <= prev, p
    if not ordered:
        raise ValueError(f"partition parts must be weakly decreasing: {lam}")
    return lam


def size(lam: tuple[int, ...]) -> int:
    return sum(lam)


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


class Vec:
    """Finite linear combination of hashable basis labels.

    The constructor takes a dict, (label, coefficient) pairs (the last of a
    repeated label wins) or None, copies it with dict() and drops zero
    coefficients, filtering only when a zero is present; no operation keeps
    a zero, and `terms` is never mutated after construction. Coefficients
    are stored as given: ints on every route but the geometric one, which
    divides and so yields Fractions. Sums, negatives and scalar multiples
    keep the subclass (LaurentPoly stays LaurentPoly). `apply` is the one
    lift of a per-label map to vectors, and returns a plain Vec.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        terms = dict(terms or ())
        self.terms = terms if all(terms.values()) else {k: v for k, v in terms.items() if v}

    @classmethod
    def basis(cls, label) -> "Vec":
        return cls({label: 1})

    @classmethod
    def zero(cls) -> "Vec":
        return cls()

    def coeff(self, label):
        return self.terms.get(label, 0)

    def __add__(self, other: "Vec") -> "Vec":
        out = dict(self.terms)
        for label, coeff in other.terms.items():
            out[label] = out.get(label, 0) + coeff
        return type(self)(out)

    def __sub__(self, other: "Vec") -> "Vec":
        out = dict(self.terms)
        for label, coeff in other.terms.items():
            out[label] = out.get(label, 0) - coeff
        return type(self)(out)

    def __neg__(self) -> "Vec":
        return type(self)({label: -coeff for label, coeff in self.terms.items()})

    def __mul__(self, scalar) -> "Vec":
        return type(self)({label: coeff * scalar for label, coeff in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, Vec) and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def apply(self, fn) -> "Vec":
        """Extend fn linearly: fn(label) gives the label's image as
        (label, coeff) pairs, and coefficients of a repeated label add up.
        Builds exactly one Vec."""
        out: dict = {}
        for label, coeff in self.terms.items():
            for out_label, out_coeff in fn(label):
                out[out_label] = out.get(out_label, 0) + coeff * out_coeff
        return Vec(out)

    def __repr__(self) -> str:
        if not self.terms:
            return "Vec(0)"
        bits = [f"{coeff}*{label}" for label, coeff in sorted(
            self.terms.items(), key=lambda t: repr(t[0]))]
        return "Vec(" + " + ".join(bits) + ")"


class LaurentPoly(Vec):
    """Laurent polynomial in one variable: a Vec on integer exponents.

    Coefficients are ints or Fractions. Vec supplies sums, scalar
    multiples, equality and coeff(exponent); a LaurentPoly factor makes
    `*` the polynomial product.
    """

    __slots__ = ()

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            return super().__mul__(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LaurentPoly(out)

    def compose_power(self, k: int) -> "LaurentPoly":
        """Substitute z -> z**k. k = -1 mirrors the polynomial."""
        if k == 0:
            raise ValueError("substitution exponent must be nonzero")
        return LaurentPoly({e * k: c for e, c in self.terms.items()})

    def shift(self, s: int) -> "LaurentPoly":
        """Multiply by z**s."""
        return LaurentPoly({e + s: c for e, c in self.terms.items()})

    def keep_residue(self, l: int, r: int = 0) -> "LaurentPoly":
        """Keep only the terms whose exponent is congruent to r mod l."""
        return LaurentPoly(
            {e: c for e, c in self.terms.items() if (e - r) % l == 0}
        )

    def at_one(self):
        return sum(self.terms.values())

    def to_json(self) -> dict:
        out = {}
        for e in sorted(self.terms):
            c = self.terms[e]
            if isinstance(c, Fraction) and c.denominator == 1:
                c = int(c)
            out[str(e)] = c if isinstance(c, int) else str(c)
        return out

    @classmethod
    def from_json(cls, data: dict) -> "LaurentPoly":
        terms = {}
        for e, c in data.items():
            terms[int(e)] = c if isinstance(c, int) else Fraction(c)
        return cls(terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        terms = []
        for e in sorted(self.terms):
            c = self.terms[e]
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


def check_l(l: int) -> int:
    """The number of residue classes of the affine action: an int (a float
    or bool is refused, not truncated), at least two. (Strand and abacus
    routines also take l = 1 and keep their own check.)
    """
    if type(l) is not int:
        raise ValueError(f"the number of residue classes must be an int: {l!r}")
    if l < 2:
        raise ValueError(f"need at least two residue classes: {l}")
    return l


def check_residue(i: int, l: int) -> int:
    """A residue class mod l, given by its representative 0..l-1 (a float
    or bool is refused, not truncated)."""
    if type(i) is not int:
        raise ValueError(f"residue must be an int: {i!r}")
    if not 0 <= i <= l - 1:
        raise ValueError(f"residue must be 0..{l - 1}: {i}")
    return i


HALF = Fraction(1, 2)


def _check_half_integer(h) -> Fraction:
    """A half-integer position of a Maya diagram, as a Fraction."""
    if not isinstance(h, Fraction):
        h = Fraction(h)
    if h.denominator != 2:
        raise ValueError(f"position must be a half-integer: {h}")
    return h


def bead(h) -> int:
    """The integer bead h - 1/2 of the half-integer position h."""
    return _check_half_integer(h).numerator // 2


def residue_counts(lam: tuple[int, ...], l: int) -> tuple[int, ...]:
    """Number of nodes of each content class mod l, indexed 0..l-1."""
    if type(l) is not int:
        raise ValueError(f"modulus must be an int: {l!r}")
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


def residue_boundary(
    lam: tuple[int, ...], i: int, l: int
) -> tuple[int, list[tuple[tuple[int, int], int, int]]]:
    """One pass over the rows: the residue-i boundary and a count parity.

    Returns (odd, boundary). odd is the parity of residue_counts(lam, l) at
    i - 1 and i together, counted per row: row a holds the contents
    a - lam[a] + 1 .. a, a run whose members in one class mod l are a
    difference of floor quotients. boundary lists the addable (step +1)
    and removable (step -1) nodes of content congruent to i mod l, in
    increasing content, each as (node, step, left) with left the sum of the
    steps before it: eta(lam, i, node, l, "left"). The "right" scan is
    total - left - step, total being the sum of all steps.

    Walking the rows down, row a offers its addable node (a, lam[a]) at
    content a - lam[a] when lam[a] < lam[a - 1] and its removable node
    (a, lam[a] - 1) one content higher when lam[a + 1] < lam[a]; the
    addable node (len(lam), 0) closes the boundary. Contents strictly
    increase along this walk, so no sort is needed.
    """
    if type(l) is not int:
        raise ValueError(f"modulus must be an int: {l!r}")
    if l < 1:
        raise ValueError("modulus must be positive")
    i %= l
    j = (i - 1) % l
    count = 0
    boundary = []
    left = 0
    for a, row in enumerate(lam):
        lo = a - row  # one below the smallest content in row a
        count += (a - i) // l - (lo - i) // l + (a - j) // l - (lo - j) // l
        if (a == 0 or row < lam[a - 1]) and lo % l == i:
            boundary.append(((a, row), 1, left))
            left += 1
        if (a + 1 == len(lam) or lam[a + 1] < row) and (lo + 1) % l == i:
            boundary.append(((a, row - 1), -1, left))
            left -= 1
    if len(lam) % l == i:
        boundary.append(((len(lam), 0), 1, left))
    return count % 2, boundary


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
    """Add the node ending row a (a = len(lam) opens a new row); row a must
    be shorter than row a - 1."""
    a, b = node
    if not (0 <= a <= len(lam) and b == (lam[a] if a < len(lam) else 0)
            and (a == 0 or b < lam[a - 1])):
        raise ValueError(f"node {node} is not addable to {lam}")
    return lam[:a] + (b + 1,) + lam[a + 1 :]


def remove_node(lam: tuple[int, ...], node: tuple[int, int]) -> tuple[int, ...]:
    """Remove the node ending row a; row a must be longer than row a + 1."""
    a, b = node
    if not (0 <= a < len(lam) and b == lam[a] - 1
            and (a + 1 == len(lam) or lam[a + 1] <= b)):
        raise ValueError(f"node {node} is not removable from {lam}")
    return lam[:a] + (b,) + lam[a + 1 :] if b else lam[:a]


def enumerate_partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n in lexicographically descending order.

    For n = 3 this is (3,), (2, 1), (1, 1, 1).
    """
    if type(n) is not int:
        raise ValueError(f"can only partition an int: {n!r}")
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
    if type(max_size) is not int:
        raise ValueError(f"size bound must be an int: {max_size!r}")
    if max_size < 0:
        raise ValueError(f"size bound must be nonnegative: {max_size}")
    out: list[tuple[int, ...]] = []
    for n in range(max_size + 1):
        out.extend(enumerate_partitions(n))
    return out
