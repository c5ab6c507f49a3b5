"""Chain states from boundary elements, transfer spectra, correlations.

Builds the translation-covariant states whose site tensors are the
gamma generators, reads the transfer spectrum off the diagonal of E_1
and checks it against the closed-form class eigenvalues (-1)^k (n-2k)/n
with multiplicity C(n,k), and measures two-point decay against the
predicted rate.
"""

from math import comb

import numpy as np

from cliffchain import (
    psi_plus,
    transfer_eigenvalue,
    transfer_spectrum,
    two_point_correlation,
)
from cliffchain.clifford import CliffordElement

# the state of a length-4 chain for n=3, boundary P_+
n, l = 3, 4
psi = psi_plus(n, l, CliffordElement.one(n))
print(f"psi(P_+) on {l} sites: dim {psi.size}, norm {np.linalg.norm(psi):.6f}")

# transfer spectra against the class formula
for n in (3, 4, 6):
    spectrum = transfer_spectrum(n, "E")
    print(f"n={n} transfer:", [(round(v, 6), m) for v, m in spectrum.eigenvalues])
    print(f"   formula k=0..2: {[round(transfer_eigenvalue(n, k), 6) for k in range(3)]}"
          f" mults {[comb(n, k) for k in range(3)]}")
    print(f"   xi = {spectrum.correlation_length:.6f}, primitive: {spectrum.is_primitive}")

# even n: the shared factorized map is primitive even though E is not
for n in (4, 6):
    shared = transfer_spectrum(n, "F_shared")
    print(f"n={n} shared map:", [(round(v, 6), m) for v, m in shared.eigenvalues])

# an antisymmetric one-site probe decays through the grade-2 channel
n = 6
S12 = np.zeros((n, n), dtype=complex)
S12[0, 1], S12[1, 0] = 1.0j, -1.0j
vals = [two_point_correlation(n, S12, S12, r, "plus") for r in range(2, 9)]
print("n=6 correlator ratios:", [f"{(b / a).real:.6f}" for a, b in zip(vals, vals[1:])])
print("expected ratio 1/3 =", f"{1/3:.6f}")

# n=4 is the zero-correlation point: every connected correlator vanishes
n = 4
S12 = np.zeros((n, n), dtype=complex)
S12[0, 1], S12[1, 0] = 1.0j, -1.0j
worst = max(abs(two_point_correlation(n, S12, S12, r, "plus")) for r in range(1, 6))
print("n=4 max connected correlator:", worst)
