"""
Partition combinatorics: nodes, contents, hooks, boundary
=========================================================

Everything downstream is built on a handful of diagram primitives, so this
demo walks through them on one small shape.
"""

from affine_fock import partitions as pt

lam = (4, 2, 1)
print("shape:", lam, "size:", pt.size(lam))

# A node is a (row, column) pair, 0-based; its content is row - column.
# The content mod l is the node's residue class.
for node in pt.nodes(lam):
    print(
        "node", node,
        "content", pt.content(node),
        "residue mod 3", pt.content(node) % 3,
        "hook", pt.hook_lengths(lam)[node],
    )

# Addable and removable nodes are where a single node can join or leave the
# diagram leaving a partition. They interleave along the boundary.
print("addable:  ", pt.addable_nodes(lam))
print("removable:", pt.removable_nodes(lam))

# One pass over the rows lists the boundary nodes of one content class, in
# increasing content, each with its step: +1 addable, -1 removable.
_, boundary = pt.residue_boundary(lam, 0, 3)
print("addable of residue 0 (l=3):", [x for x, step, _ in boundary if step > 0])

# The content character packages all contents into one Laurent polynomial;
# evaluating at 1 recovers the size.
char = pt.diagonal_char(lam)
print("content character:", char)
print("character at 1 == size:", char.at_one() == pt.size(lam))

# Transposing the diagram mirrors the character.
print("transpose:", pt.transpose(lam))
print(
    "mirror check:",
    pt.diagonal_char(pt.transpose(lam)) == char.compose_power(-1),
)

# The same pass counts the boundary nodes of that class to one side of a
# given node (addable +1, removable -1): left, the smaller contents, and
# total - left - step, the greater ones. This eta scan is the sign
# bookkeeping device for the affine action.
node = (0, 3)  # the removable node at the end of the first row
total = sum(step for _, step, _ in boundary)
left, step = next((left, step) for x, step, left in boundary if x == node)
print(
    "eta left/right of", node, "for residue 0, l=3:",
    left,
    total - left - step,
)
