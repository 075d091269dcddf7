"""
Fixed-point weights and localization coefficients
=================================================

Fixed points of the circle action are labelled by partitions; all the
geometry that survives at a fixed point is a Laurent polynomial of weights.
Tangent weights come in pairs +-h over the l-divisible hooks, and the
one-node operators acquire rational coefficients that, after dividing by
the weight-product normalizations, must equal the explicit action signs.
"""

from fractions import Fraction

from affine_fock import equivariant as eq
from affine_fock import frenkel_kac as fk
from affine_fock import partitions as pt

l = 2
lam = (3, 1)

# The character of a fixed point lists one weight per node (its content).
print("character of", lam, ":", eq.fixed_point_char(lam))

# Tangent weights two independent ways: straight off the hook lengths, and
# by character algebra alone.
print("tangent, from hooks:    ", eq.tangent_char_point(lam, l))
print("tangent, from character:", eq.tangent_char_formula(lam, l))

# The same weights as particle-hole pairs of the Maya diagram, distance
# divisible by l.
print("Maya pairs:", eq.hook_pairs(lam, l))

# The Euler pairing is the exact integer product of all tangent weights; the
# normalization is the product of the negative half.
print("euler product:", eq.euler_pairing_diag(lam, l))
print("normalization:", eq.normalization(lam, l))

# Localization coefficient of one node removal, times the normalization
# ratio, against the explicit action coefficient.
i = 1
for x, step, _ in pt.residue_boundary(lam, i, l)[1]:
    if step > 0:
        continue
    mu = pt.remove_node(lam, x)
    geo = eq.geometric_e(i, lam, mu, l)
    ratio = Fraction(eq.normalization(mu, l), eq.normalization(lam, l))
    explicit = fk.explicit_action(f"e_{i}", fk.Vec.basis(lam), l).coeff(mu)
    print(f"remove {x}: geometric {geo} * ratio {ratio} = {geo * ratio},",
          f"explicit {explicit}")
    assert geo * ratio == explicit

# The opposite-chamber fixed points are labelled by (core vector, quotient);
# their blockwise character agrees through the bijection.
report = eq.verify_fixed_points(l, 10)
print("chamber characters agree, size<=10:", report["status"])
report = eq.verify_geometric_match(l, 6)
print("localization matches explicit, size<=6:", report["status"])
