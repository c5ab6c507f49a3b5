"""Half-chain marginals without ever building the 2^l state vector.

The reduced density matrix of a length-l block is a frame operator over
bond elements, so its spectrum comes out of a Gram matrix whose overlap
kernel is a diagonal weight per monomial grade, built by a recurrence in l
at O(l n) cost. Shows the grade block structure, the flattening of the
n=4 spectrum onto 1/4, and the overlap of the two pure-state marginals.
"""

from cliffchain import (
    frame_operator_distance,
    frame_product_trace,
    rdm_eigen_by_grade,
    rdm_frame,
)

# grade blocks (grade, eigenvalue, multiplicity) for a few (n, l)
for n, l in ((3, 4), (4, 4), (5, 4), (6, 4)):
    print(f"n={n} l={l}:", [(g, round(mu, 6), m) for g, mu, m in rdm_eigen_by_grade(n, l, "plus")])

# n=4: the marginal is exactly flat, all eigenvalues 1/4
print()
for l in (2, 4, 8, 12):
    blocks = rdm_eigen_by_grade(4, l, "plus")
    dev = max(abs(mu - 0.25) for _, mu, _ in blocks)
    print(f"n=4 l={l}: max |mu - 1/4| = {dev:.3e}")

# the two pure states of n=6 share their two-site marginal exactly
ep, cp = rdm_frame(6, 2, "plus")
em, cm = rdm_frame(6, 2, "minus")
print()
print("n=6 two-site marginal distance:", frame_operator_distance(6, 2, ep, cp, em, cm))

# at n=4 the two four-site marginals overlap with cross purity 1/256
fp, ap = rdm_frame(4, 4, "plus")
fm, am = rdm_frame(4, 4, "minus")
cross = frame_product_trace(4, 4, fp, ap, fm, am)
print(f"n=4 cross purity Tr(rho+ rho-) = {cross} (= 1/256: {abs(cross - 1/256) < 1e-15})")
