"""Projective bond symmetries, the Z2 index, and discrete symmetries.

Extracts the bond representation of on-site rotations from the mixed
transfer fixed point, reads off the cocycle sign distinguishing the
Clifford chains from a product state, and classifies how conjugation,
reflection, and time reversal act on the pure-state pair by n mod 4.
"""

from cliffchain import (
    aklt_tensors,
    clifford_tensors,
    cocycle_sign,
    conjugation_check,
    mps_spt_index,
    product_tensors,
    reflection_check,
    theta_matrix,
    time_reversal_check,
)
import numpy as np

# the spin lift of two commuting pi-rotations anticommutes: sign -1
for n in (3, 4, 5, 6):
    print(f"n={n}: spin cocycle {cocycle_sign(n, 'SPIN'):+d}, "
          f"defining {cocycle_sign(n, 'DEFINING'):+d}")

# the same sign extracted from the tensors themselves
print()
for n in (3, 4, 5, 6):
    print(f"n={n} clifford family index:", mps_spt_index(clifford_tensors(n)))
print("spin-1 aklt index:", mps_spt_index(aklt_tensors()))
print("product family index:", mps_spt_index(product_tensors(4)))

# discrete symmetries on the pure-state pair, n mod 4 decides
print()
for n, l in ((4, 4), (6, 6)):
    conjugation, _ = conjugation_check(n, l)
    reflection, _ = reflection_check(n, l)
    time_reversal, _ = time_reversal_check(n, l)
    print(f"n={n} l={l}: conjugation {conjugation}, "
          f"reflection {reflection}, time reversal {time_reversal}")

# the time-reversal rotation is orthogonal with determinant one
dets = [np.linalg.det(theta_matrix(n)) for n in range(2, 9)]
print("theta determinants n=2..8:", [f"{d:.3f}" for d in dets])
