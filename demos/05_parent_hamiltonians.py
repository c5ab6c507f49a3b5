"""Frustration-free chains and the parent property.

Certifies that the SO(n) chain kernel is exactly the span of the
boundary-element states (dimension 2^(n-1)) at every length, with no n^l
array and no cut-off: the term kills every two-site bond-algebra state,
and the kernel of each length, written as the intersection of the last
one with the kernel of the new term, is one small integer system per
length whose nullity is counted exactly mod a prime, one charge block per
grade. The counts at lengths 2..n+2 decide every length; (16, 40), a
chain of 16^40 dimensions, takes well under a second. Also grows chain
kernels site by site as intersections of the local term kernels, with the
largest singular value kept as kernel and the smallest one dropped, for
the two standard su(2) reference models.
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
for n, l in ((8, 8), (16, 40)):
    print(parent_check(n, l).summary())

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
