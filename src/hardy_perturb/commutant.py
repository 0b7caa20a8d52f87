"""Commutants of shifts on truncated tridiagonal kernel spaces.

Every operator commuting with such a shift is ``T_phi + N`` for a bounded
symbol ``phi``: the Toeplitz part carries the Taylor coefficients of the
symbol down its diagonals and the correction ``N`` is supported in the
first ``n`` columns.  Symbols here are polynomials, the dense finitely
representable test class.  Members are built in stacks: those of one kernel
share window solves, the commutation certificate and, for hyperinvariance,
the lift to the model space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    _SPREAD_CUT,
    DEFAULT_TOL,
    OperatorMatrix,
    ToleranceConfig,
    band_spread,
)
from .errors import HardyPerturbError, PreconditionError
from .inner import Polynomial
from .invariant import (
    SubspaceModel, _closure_model, _escape, _lifted_shift, _model_space, verify_model,
)
from .shifts import NShift, TridiagonalKernel, _relabeled, shift_from_kernel

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
    """Build the commutant member with a given polynomial symbol: a stack of one.

    The multiplication matrix in f-basis coordinates comes from the same
    triangular change-of-basis solve as the shift construction, on the
    leading ``n + deg + 2`` window where it differs from ``T``; relabeling
    to the monomial basis gives ``X``, the Toeplitz part ``T`` shares its
    symbol, and ``N = X - T``.  The structural invariants (``N`` supported in
    the first ``n`` columns, ``X`` commuting with the shift) are verified
    before returning; a violation signals a construction bug, not bad
    input.  The commutation residual is kept on the element.
    """
    coeffs, x, n_block, resid = _members(symbol.coeffs[None], kernel, working_order, tol, shift)
    x_op = OperatorMatrix._formed(x[0], coeffs[0, : symbol.coeffs.size], working_order)
    t = OperatorMatrix._formed(np.zeros((0, 0), dtype=np.complex128), x_op.symbol, working_order)
    n_op = OperatorMatrix._formed(n_block[0], np.zeros(0, dtype=np.complex128), working_order)
    return CommutantElement(symbol, x_op, t, n_op, float(resid[0]))


def _members(coeffs: np.ndarray, kernel: TridiagonalKernel, working_order: int,
             tol: ToleranceConfig | None, shift: NShift | None) -> tuple:
    """``(coeffs, X, N, residuals)`` of the commutant members of symbol rows, built together.

    Row ``j`` of ``coeffs`` holds symbol ``j``'s coefficients, zero padded;
    the returned ``coeffs`` is cut to the largest degree.  ``X`` and ``N``
    stack each member's block in a leading corner, zeros past it.  ``residuals`` are
    :func:`verify_commutation` of each ``X``, read on the windows that
    :class:`OperatorMatrix` forms ``XS`` and ``SX`` on: past them both are
    ``T_{z phi}``.  Members of one width share a window solve (its rounding
    depends on the width).  Checks as in :func:`commutant_element`.
    """
    tol = tol or DEFAULT_TOL
    degrees = np.where(coeffs != 0, np.arange(coeffs.shape[1]), -1).max(axis=1, initial=-1)
    if degrees.max() >= working_order - kernel.n - 2:
        raise PreconditionError("symbol degree too close to the working order")
    s = (shift or shift_from_kernel(kernel, working_order, tol)).S
    if s.size != working_order:
        raise PreconditionError("operator and shift working orders differ")
    widths, top = kernel.n + degrees + 2, kernel.n + degrees.max() + 2
    coeffs = coeffs[:, : degrees.max() + 1]
    blocks, n_blocks = np.zeros((2, len(coeffs), top, top), dtype=np.complex128)
    scale, resid = np.zeros((2, len(coeffs)))
    for w in np.unique(widths).tolist():
        idx = np.flatnonzero(widths == w)
        xs_w = min(working_order, max(w, s.block_size + max(w - kernel.n - 2, 0)))
        sx_w = min(working_order, max(s.block_size, w + s._degree))
        size = max(xs_w, sx_w, w + 1)
        x, t = _relabeled(kernel, coeffs[idx], w, size)
        blocks[idx, :w, :w], n_blocks[idx, :w, :w] = x[:, :w, :w], (x - t)[:, :w, :w]
        mags = np.abs(x)
        scale[idx] = mags.max(axis=(1, 2), initial=1.0)
        xs, sx = np.zeros_like(t), np.zeros_like(t)
        xs[:, 1:] = sx[:, 1:] = t[:, :-1]
        xs[:, :xs_w, :xs_w] = x[:, :xs_w, :xs_w] @ s.window(xs_w)
        sx[:, :sx_w, :sx_w] = s.window(sx_w) @ x[:, :sx_w, :sx_w]
        # verify_commutation's guard rows, from each X's band spread.
        diag = np.subtract.outer(np.arange(size), np.arange(size))
        below = np.where(mags > _SPREAD_CUT * mags.max(axis=(1, 2), keepdims=True), diag, 0)
        guard = np.maximum(below.max(axis=(1, 2)), max(band_spread(s)[0], 1)) + 1
        kept = np.arange(size) < (working_order - guard)[:, None]
        kept = kept[:, :, None] & kept[:, None, :]
        resid[idx] = np.where(kept, np.abs(xs - sx), 0.0).max(axis=(1, 2))
    spill = np.abs(n_blocks[:, :, kernel.n:]).max(axis=(1, 2))
    if (spill > tol.tau_res * scale).any():
        raise HardyPerturbError(f"internal consistency: N has column support beyond n "
                                f"(max magnitude {spill.max():.3e})")
    if (resid > tol.tau_res * scale).any():
        raise HardyPerturbError(f"internal consistency: commutation residual {resid.max():.3e}")
    return coeffs, blocks, n_blocks, resid


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


# Most members built in one stack; bounds the memory of a stacked build.
_STACK = 256
# Nontrivial closures a default irreducibility probe samples, and the most draws it may take.
_PROBE_SAMPLES, _PROBE_DRAWS = 3, 30


def _random_symbols(rng: np.random.Generator, count: int, max_degree: int) -> np.ndarray:
    """``count`` zero-padded symbols: degrees uniform in 1..max_degree, coefficients in the disc."""
    squares, turns = np.zeros((2, count, max_degree + 1))
    for row in range(count):
        deg = int(rng.integers(1, max_degree + 1))
        squares[row, : deg + 1] = rng.random(deg + 1)
        turns[row, : deg + 1] = rng.random(deg + 1)
    return np.sqrt(squares) * np.exp(1j * (2 * np.pi * turns))


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
    ``tau_res``.  Members are built, lifted and escaped in stacks of at
    most ``_STACK``, so memory stays bounded for any ``trials``.
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
    eye = np.eye(len(a))
    for start in range(0, trials, _STACK):
        drawn = _random_symbols(rng, min(_STACK, trials - start), max_degree)
        coeffs, _, n_blocks, _ = _members(drawn, kernel, shift.working_order, tol, shift)
        degrees.append(coeffs.shape[1] - 1)
        # _lift of every member at once: each symbol at A by Horner, plus N.
        x = np.zeros((len(coeffs),) + a.shape, dtype=np.complex128)
        for coeff in coeffs.T[::-1]:
            x = x @ a + coeff[:, None, None] * eye
        k = n_blocks.shape[1]
        x[:, :k, :k] += n_blocks
        worst = max(worst, float(_escape(perp, basis.conj().T @ x @ basis).max()))
    return {
        "trials": trials,
        "seed": seed,
        "max_symbol_degree": max(degrees),
        "max_residual": worst,
        "passed": worst < tol.tau_res,
    }


def irreducibility_probe(
    shift: NShift,
    kernel: TridiagonalKernel | None,
    tol: ToleranceConfig | None = None,
    subspaces=None,
    seed: int = 0,
) -> dict:
    """Check that no sampled nontrivial invariant subspace is reducing.

    Each sample records the adjoint escape ``norm(P_M S P_{M^perp})``, which
    is 0 for a reducing ``M`` and must stay above ``tau_res``.  By default the
    samples are the exact models (:func:`_closure_model`) of the cyclic closures
    of seeded polynomials, with their codimension (0, the whole space, is
    trivial), drawn until ``_PROBE_SAMPLES`` are nontrivial; a probe that finds
    fewer in ``_PROBE_DRAWS`` draws fails and says why.  ``S`` maps ``M^perp``
    into ``K'``, so the escape is exact in :func:`_model_space` coordinates at
    the read's order.  Caller-given subspaces carry their dimension and get
    ``S*`` applied below the frontier less ``S``'s band spread; with none
    nontrivial the probe fails and says why.  A ``kernel``, when given, must
    build ``shift``, else :class:`PreconditionError`.
    """
    tol = tol or DEFAULT_TOL
    if kernel is not None:
        _require_builds(kernel, shift, tol)
    samples = []
    found = 0
    if subspaces is None:
        rng = np.random.default_rng(seed)
        while found < _PROBE_SAMPLES and len(samples) < _PROBE_DRAWS:
            deg = int(rng.integers(1, 5))
            coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            model, read = _closure_model(shift, coeffs, tol)
            a, basis, _, _, perp = _model_space(model, tol, read["order"])
            samples.append({"codimension": perp.shape[1]})
            if perp.shape[1]:  # _escape of op = S*: how far S moves M^perp out of itself
                escape = _escape(basis @ perp, _lifted_shift(model, shift, a).conj().T)
                samples[-1]["adjoint_escape"] = float(escape)
                found += 1
    else:
        spread = band_spread(shift.S)[0]
        for M in subspaces:
            samples.append({"dimension": M.dim})
            if 0 < M.dim < M.working_order:
                rows = M.frontier if M.frontier is not None else M.working_order
                image = _adjoint_image(shift.S, M.basis)
                resid = (image - M.basis @ (M.basis.conj().T @ image))[: max(1, rows - spread - 1)]
                samples[-1]["adjoint_escape"] = float(np.linalg.norm(resid, 2))
                found += 1
    for sample in samples:
        if "adjoint_escape" in sample:
            sample["reducing"] = sample["adjoint_escape"] <= tol.tau_res
        else:
            sample["skipped"] = "trivial"
    reducing_found = any(sample.get("reducing", False) for sample in samples)
    report = {"samples": samples, "nontrivial_reducing_found": reducing_found,
              "passed": not reducing_found}
    if subspaces is None and found < _PROBE_SAMPLES:
        report["passed"] = False
        report["reason"] = (f"{found} nontrivial closures in {len(samples)} draws, "
                            f"{_PROBE_SAMPLES} needed")
    elif not found:
        report["passed"] = False
        report["reason"] = f"no nontrivial subspace among the {len(samples)} given"
    return report


def _require_builds(kernel: TridiagonalKernel, shift: NShift, tol: ToleranceConfig) -> None:
    """:class:`PreconditionError` unless ``kernel`` builds ``shift`` (blocks within ``tau_res``)."""
    if kernel.n != shift.n:
        raise PreconditionError(f"kernel has n = {kernel.n}, shift has n = {shift.n}")
    built = shift_from_kernel(kernel, shift.working_order, tol).S
    k = max(built.block_size, shift.S.block_size)
    gap = float(np.abs(built.window(k) - shift.S.window(k)).max(initial=0.0))
    if gap > tol.tau_res:
        raise PreconditionError(f"kernel builds another shift: blocks differ by {gap:.3e}")


def _adjoint_image(op: OperatorMatrix, x: np.ndarray) -> np.ndarray:
    """``op* x`` for a column stack ``x``, one sliced add per symbol diagonal like ``op @ x``."""
    k = op.block_size
    out = np.zeros(x.shape, dtype=np.complex128)
    out[:k] = op.block.conj().T @ x[:k]
    for d in np.flatnonzero(op.symbol):
        top = max(k, d)
        out[top - d: op.size - d] += np.conj(op.symbol[d]) * x[top:]
    return out
