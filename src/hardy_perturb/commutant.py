"""Commutants of shifts on truncated tridiagonal kernel spaces.

Every operator commuting with such a shift is ``T_phi + N`` for a bounded
symbol ``phi``: the Toeplitz part carries the Taylor coefficients of the
symbol down its diagonals and the correction ``N`` is supported in the
first ``n`` columns.  Symbols here are polynomials, the dense finitely
representable test class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    OperatorMatrix,
    ToleranceConfig,
    band_spread,
    invariance_residual,
    krylov_closure,
    TruncatedVector,
)
from .errors import HardyPerturbError, PreconditionError
from .inner import Polynomial
from .invariant import SubspaceModel, _escape, _lift, _model_space, verify_model
from .shifts import NShift, TridiagonalKernel, relabeled_window, shift_from_kernel

__all__ = [
    "CommutantElement",
    "commutant_element",
    "hyperinvariance_check",
    "irreducibility_probe",
    "verify_commutation",
]


@dataclass(frozen=True)
class CommutantElement:
    """A commutant member ``X = T + N`` with its polynomial symbol.

    ``commutation_residual`` is :func:`verify_commutation` of ``X`` against
    the shift it was built for, as checked by :func:`commutant_element`.
    """

    symbol: Polynomial
    X: OperatorMatrix
    T: OperatorMatrix
    N: OperatorMatrix
    commutation_residual: float

    @property
    def working_order(self) -> int:
        return self.X.working_order


def commutant_element(
    symbol: Polynomial,
    kernel: TridiagonalKernel,
    working_order: int,
    tol: ToleranceConfig | None = None,
    shift: NShift | None = None,
) -> CommutantElement:
    """Build the commutant member with a given polynomial symbol.

    The multiplication matrix in f-basis coordinates comes from the same
    triangular change-of-basis solve as the shift construction, on the
    leading ``n + deg + 2`` window where it differs from ``T``; relabeling
    to the monomial basis gives ``X``, the Toeplitz part ``T`` shares its
    symbol, and ``N = X - T``, none of them copied.  The structural invariants
    (``N`` supported in the first ``n`` columns, ``X`` commuting with the
    shift) are verified before returning; a violation signals a
    construction bug, not bad input.  The commutation residual is kept on
    the element.
    """
    tol = tol or DEFAULT_TOL
    if symbol.degree >= working_order - kernel.n - 2:
        raise PreconditionError("symbol degree too close to the working order")
    width = kernel.n + symbol.degree + 2
    x = relabeled_window(kernel, symbol.coeffs, width, working_order)
    t = OperatorMatrix._formed(np.zeros((0, 0), dtype=np.complex128), x.symbol, working_order)
    n_op = OperatorMatrix._formed(x.block - t.window(width), np.zeros(0, dtype=np.complex128),
                                  working_order)
    scale = max(1.0, x.max_abs())
    spill = n_op.max_abs(cols=slice(kernel.n, None))
    if spill > tol.tau_res * scale:
        raise HardyPerturbError(
            f"internal consistency: N has column support beyond n "
            f"(max magnitude {spill:.3e})"
        )
    if shift is None:
        shift = shift_from_kernel(kernel, working_order, tol)
    resid = verify_commutation(x, shift, tol)
    if resid > tol.tau_res * scale:
        raise HardyPerturbError(
            f"internal consistency: commutation residual {resid:.3e}"
        )
    return CommutantElement(symbol, x, t, n_op, resid)


def verify_commutation(X, shift: NShift, tol: ToleranceConfig | None = None) -> float:
    """Max-norm of ``XS - SX`` away from the truncation boundary.

    ``X`` is an :class:`OperatorMatrix` or a square array.
    """
    x = X if isinstance(X, OperatorMatrix) else OperatorMatrix(X)
    s = shift.S
    if x.size != s.size:
        raise PreconditionError("operator and shift working orders differ")
    guard = max(band_spread(x)[0], band_spread(s)[0], 1) + 1
    comm = x @ s - s @ x
    r = s.size - guard
    return comm.max_abs(slice(None, r), slice(None, r)) if r > 0 else 0.0


def _random_symbol(rng: np.random.Generator, max_degree: int) -> Polynomial:
    deg = int(rng.integers(1, max_degree + 1))
    radii = np.sqrt(rng.uniform(0.0, 1.0, deg + 1))
    phases = rng.uniform(0.0, 2 * np.pi, deg + 1)
    coeffs = radii * np.exp(1j * phases)
    return Polynomial(coeffs)


def hyperinvariance_check(
    model: SubspaceModel,
    shift: NShift,
    kernel: TridiagonalKernel,
    trials: int,
    tol: ToleranceConfig | None = None,
    seed: int = 0,
    max_degree: int = 8,
) -> dict:
    """Check that every sampled commutant member maps the modeled subspace into itself.

    The model must pass :func:`verify_model` against ``shift``, with an
    invariance residual at most ``tau_res`` (the threshold of the verdict),
    and ``trials`` must be at least 1 (a check that samples no symbol cannot
    fail), else :class:`PreconditionError`.  Random polynomial symbols with
    coefficients uniform in the unit disc (seeded for reproducibility) are
    turned into commutant members ``X``; the report carries the largest
    escape of the subspace under them, computed on the finite model space
    like the invariance certificate, and passes when it stays below
    ``tau_res``.
    """
    tol = tol or DEFAULT_TOL
    if trials < 1:
        raise PreconditionError(f"hyperinvariance needs at least one trial, got {trials}")
    checks = verify_model(model, shift, shift.working_order, tol)
    resid = checks["invariance_residual"]
    if checks["max_residual"] > checks["condition_limit"] or resid > tol.tau_res:
        raise PreconditionError(f"model describes no invariant subspace (condition residual "
                                f"{checks['max_residual']:.3e}, invariance residual {resid:.3e})")
    a, basis, _, _, perp = _model_space(model, tol, kernel.n + max_degree + 2)
    rng = np.random.default_rng(seed)
    worst = 0.0
    degrees = []
    for _ in range(trials):
        symbol = _random_symbol(rng, max_degree)
        degrees.append(symbol.degree)
        x = _lift(commutant_element(symbol, kernel, shift.working_order, tol, shift).X, a)
        worst = max(worst, _escape(perp, basis.conj().T @ x @ basis))
    return {
        "trials": trials,
        "seed": seed,
        "max_symbol_degree": max(degrees),
        "max_residual": worst,
        "passed": worst < tol.tau_res,
    }


def irreducibility_probe(
    shift: NShift,
    kernel: TridiagonalKernel,
    tol: ToleranceConfig | None = None,
    subspaces=None,
    seed: int = 0,
) -> dict:
    """Check that no sampled nontrivial invariant subspace is reducing.

    A reducing subspace would also be invariant under the adjoint; for each
    sampled invariant subspace the probe records the adjoint escape
    ``norm((I - P) S* P)``, which must stay above ``tau_res`` away from the
    trivial subspaces.
    """
    tol = tol or DEFAULT_TOL
    nw = shift.working_order
    if subspaces is None:
        rng = np.random.default_rng(seed)
        subspaces = []
        depth = min((nw - 2) // max(band_spread(shift.S)[0], 1), nw // 2)
        for _ in range(3):
            deg = int(rng.integers(1, 5))
            coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            seed_vec = TruncatedVector.from_coefficients(coeffs, nw)
            subspaces.append(krylov_closure(shift, seed_vec, depth, tol))
    samples = []
    reducing_found = False
    adjoint = shift.S.entries.conj().T
    for M in subspaces:
        if M.dim == 0 or M.dim == nw:
            samples.append({"dimension": M.dim, "skipped": "trivial"})
            continue
        rows = M.frontier if M.frontier is not None else M.working_order
        rows = max(1, rows - band_spread(shift.S)[0] - 1)
        escape = invariance_residual(M, adjoint, rows=rows)
        is_reducing = escape <= tol.tau_res
        reducing_found = reducing_found or is_reducing
        samples.append({
            "dimension": M.dim,
            "adjoint_escape": escape,
            "reducing": is_reducing,
        })
    return {
        "samples": samples,
        "nontrivial_reducing_found": reducing_found,
        "passed": not reducing_found,
    }
