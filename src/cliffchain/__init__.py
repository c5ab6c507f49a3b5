"""Clifford-algebra matrix product states for SO(n) symmetric spin chains."""

__version__ = "0.1.0"

from .checks import VerificationReport, cluster_degeneracies
from .clifford import (
    CliffordElement,
    MatrixRealization,
    alpha,
    dist,
    gamma0,
    matrix_rep,
    projectors_pm,
    realize,
    realized_dim,
    trace,
    transpose_antiauto,
)
from .hamiltonians import (
    KernelBasis,
    aklt_su2,
    chain_entries,
    chain_kernel,
    frustration_free_check,
    kernel_basis,
    majumdar_ghosh,
    mps_ground_space,
    parent_check,
    projector_distance,
    q_matrix,
    so_n_aklt,
    swap_matrix,
)
from .mps import (
    MpsFamily,
    SpectralSummary,
    fcs_expectation,
    frame_operator_distance,
    frame_product_trace,
    injectivity_rank,
    mps_vector,
    psi_plus,
    rdm_eigen_by_grade,
    rdm_frame,
    reduced_density_matrix,
    span_dim,
    transfer_eigenvalue,
    transfer_spectrum,
    two_point_correlation,
)
from .reporting import CampaignConfig, emit, run_campaign
from .so_n import (
    clebsch_gordan_dims,
    isotypic_decomposition,
    pieri_dimension_check,
    so_generator,
    so_n_casimir,
    spin_matrices,
    spin_projector,
    wedge_generator,
)
from .spt import (
    BondSymmetry,
    RotationPair,
    TensorFamily,
    aklt_tensors,
    clifford_tensors,
    cocycle_sign,
    conjugation_check,
    extract_bond_symmetry,
    mps_spt_index,
    on_site_breaking_check,
    product_tensors,
    reflection_check,
    rotation_matrix,
    rotation_pair,
    spin_lift,
    theta_matrix,
    time_reversal_check,
)
