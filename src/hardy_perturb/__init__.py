"""Numerical operator theory for finite-rank analytic perturbations of the shift."""

from .core import (
    DEFAULT_TOL,
    OperatorMatrix,
    Subspace,
    ToleranceConfig,
    TruncatedVector,
    krylov_closure,
    multiplication_by_z_matrix,
    numerical_rank,
    orthonormalize,
    principal_angles,
    subspace_difference,
)
from .inner import (
    BlaschkeProduct,
    Polynomial,
    blaschke_eval,
    blaschke_taylor,
    is_inner_numeric,
    is_outer_polynomial,
    rational_inner_from_taylor,
)
from .shifts import (
    NShift,
    TridiagonalKernel,
    monomial_in_f_basis,
    shift_from_columns,
    shift_from_kernel,
    validate_n_shift,
    verify_power_identities,
)
from .invariant import (
    SubspaceModel,
    build_subspace,
    check_cyclic,
    extract_model,
    finite_codimension,
    s1_model,
    verify_model,
    wandering_dimension,
)
from .commutant import (
    CommutantElement,
    commutant_element,
    hyperinvariance_check,
    irreducibility_probe,
    verify_commutation,
)
from .analysis import (
    CommutatorReport,
    essential_normality_witness,
    self_commutator,
)

__version__ = "0.1.0"
