"""Frustration-free chains and the parent property.

Grows chain kernels one site at a time as intersections of the local
term kernels, in the Z2^n colour-parity charge blocks that the SO(n)
term conserves, and certifies that the chain kernel is exactly the span
of the boundary-element states (dimension 2^(n-1)) by a count, with no
n^l array: the term kills every two-site bond-algebra state, the span
dimension is exact, and the kernel's grown rank meets it. Each report
carries the largest singular value kept as kernel, the smallest one
dropped and the isometry error of the grown tensors; (8, 8), a chain of
8^8 = 16,777,216 dimensions, takes well under a second. Also runs the
two standard su(2) reference models.
"""

from cliffchain import (
    aklt_su2,
    chain_kernel,
    frustration_free_check,
    majumdar_ghosh,
    mps_ground_space,
    parent_check,
    so_n_aklt,
)

# parent property: chain kernel == state space, dimension 2^(n-1)
for n, l in ((3, 4), (4, 4), (4, 5)):
    report = parent_check(n, l)
    print(report.summary())
print(parent_check(8, 8, cap=8**8).summary())

# the kernel dimension is length-independent once l is past n
G = mps_ground_space(4, 6)
print("n=4 l=6 state space dim:", G.shape[1])

# frustration-freeness certificate: the dense kernel of the whole chain
# (the oracle) equals the site-by-site intersection of the term kernels
report = frustration_free_check(so_n_aklt(3), 4, 3)
print(report.summary())

# spin-1 chain: four ground states on four sites
K = chain_kernel(aklt_su2(), 4, 3)
print("spin-1 chain l=4 kernel dim:", K.dim)

# dimer chain (three-site term): kernel dimension alternates 5, 4, 5, 4
h = majumdar_ghosh()
for l in (4, 5, 6, 7):
    print(f"dimer chain l={l} kernel dim:", chain_kernel(h, l, 2).dim)
