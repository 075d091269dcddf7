"""
The affine action, two independent ways
=======================================

e_i removes one node of content class i, f_i adds one, h_i counts addable
minus removable nodes of that class, and p_i(m) is a Heisenberg mode on one
quotient strand. The explicit realization computes signs from boundary
scans of the diagram. The Frenkel-Kac realization never looks at the
diagram: it transports the vector through the core/quotient bijection and
applies vertex-operator modes on the lattice side. The two must agree on
every vector; verify_intertwining sweeps that statement.
"""

from affine_fock import fock, frenkel_kac as fk

l = 2
b = fk.Vec.basis((2, 1))

for g in ("e_0", "e_1", "f_0", "f_1", "h_0", "h_1", "p_1(-1)"):
    direct = fk.explicit_action(g, b, l)
    lifted = fk.transport_inverse(fk.fk_action(g, fk.transport(b, l), l), l)
    assert direct == lifted
    print(f"{g:8s} b_(2,1) =", fk.shape_vec_json(direct))

# The signs are the delicate part: e_1 sends b_(2,1) to b_(1,1) - b_(2),
# one term per removable node of residue 1, and the relative sign comes
# from the boundary scan between the two nodes.

# On the lattice side a basis vector is a sum-zero integer vector (the
# strand charges) together with one partition per strand.
print("transport of b_(2,1):", fk.fk_vec_json(fk.transport(b, l)))

# h_i is diagonal and integer valued.
print("h_1 eigenvalue on b_(2,1):",
      fk.shape_vec_json(fk.explicit_action("h_1", b, l)))

# Whole-basis checks: intertwining on all shapes of size <= 5, and the
# Cartan / e-f / Serre relations on degree slices.
print("intertwining, l=2, size<=5:", fk.verify_intertwining(2, 5)["status"])
print("relations,    l=2, degree<=5:", fk.verify_relations(2, 5)["status"])

# Matrices on a degree slice, exact and sparse.
rows, cols, entries = fock.operator_matrix(
    lambda lam: fk.explicit_action("f_0", fk.Vec.basis(lam), l),
    [(), (1,), (2,), (1, 1)],
    fk.shape_sort_key,
)
print("f_0 on the size<=2 slice:")
for (ri, ci), value in sorted(entries.items()):
    print(f"  {rows[ri]} <- {cols[ci]}: {value}")
