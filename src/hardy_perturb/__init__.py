"""Numerical operator theory for finite-rank analytic perturbations of the shift."""

import ctypes

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


_SETTERS = (
    "scipy_openblas_set_num_threads64_",  # numpy's bundled OpenBLAS
    "scipy_openblas_set_num_threads",  # scipy's bundled OpenBLAS
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)


def _openblas_paths() -> list[str]:
    """Paths of the OpenBLAS libraries mapped into this process (Linux only)."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            return sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return []


def _single_blas_thread() -> None:
    """Set every loaded OpenBLAS to one thread.

    Every dense kernel here is small: windows of n + 2 columns, model spaces
    of dimension n + deg theta, range-side stacks of at most a few hundred
    rows by under a hundred columns.  At these sizes OpenBLAS spends more
    time synchronising its threads than computing, so one thread is faster.
    Libraries without an OpenBLAS setter (MKL, Accelerate) are left alone;
    a caller may raise the count again after import.
    """
    for path in _openblas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _SETTERS:
            setter = getattr(lib, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = None
                setter(1)
                break


_single_blas_thread()
