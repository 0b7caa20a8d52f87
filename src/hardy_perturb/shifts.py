"""Construction and validation of finite-rank shift perturbations.

An n-perturbation is an operator ``F`` on the truncated Hardy space with

(i)   ``F z^m = 0`` for all ``m >= n``,
(ii)  ``F`` maps ``z^m``-multiples into ``z^{m+1}``-multiples of polynomials
      (column ``m`` is supported in rows ``m + 1`` and beyond, with finitely
      many entries),
(iii) ``M_z + F`` left-invertible.

``S = M_z + F`` is the corresponding n-shift.  Shifts arise either from
explicit perturbation columns or from a truncated tridiagonal kernel whose
orthonormal basis is ``f_m = (a_m + b_m z) z^m``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    OperatorMatrix,
    ToleranceConfig,
    DEFAULT_TOL,
    band_spread,
)
from .errors import (
    DefinitionViolationError,
    DimensionMismatchError,
    InvalidKernelError,
    NotLeftInvertibleError,
    PreconditionError,
    TruncationError,
)

__all__ = [
    "NShift",
    "ShiftValidationReport",
    "TridiagonalKernel",
    "shift_from_columns",
    "shift_from_kernel",
    "validate_n_shift",
    "verify_power_identities",
]

# Symbol of M_z, the Toeplitz part of every n-shift.
Z_SYMBOL = (0.0, 1.0)
# Entries of a window solve below this fraction of its largest magnitude
# (at least 1) are structural zeros carrying roundoff; they are snapped to 0.
_STRUCTURAL_ZERO = 1e-14
# Clause (iii) holds when the Gram block's smallest eigenvalue exceeds this.
_CLAUSE_III_FLOOR = 1e-12
# The power identities pass when every worst residual stays below this.
_POWERS_TOL = 1e-12


@dataclass(frozen=True)
class TridiagonalKernel:
    """Data ``(a_m, b_m)`` of a truncated tridiagonal kernel space.

    The orthonormal basis of the space is ``f_m = (a_m + b_m z) z^m``.  Both
    sequences are stored up to index ``n - 1`` and extended by the defining
    pattern ``a_t = 1`` and ``b_t = 0`` for ``t >= n``.  Every ``a_s`` must
    be nonzero; since only finitely many ``a`` differ from 1, the ratio
    sequence ``|a_m / a_{m+1}|`` is automatically bounded away from zero,
    which is the left-invertibility hypothesis for these spaces.
    """

    n: int
    a: tuple
    b: tuple

    def __post_init__(self):
        if self.n < 1:
            raise InvalidKernelError("truncation index n must be >= 1")
        a = tuple(complex(x) for x in self.a)
        b = tuple(complex(x) for x in self.b)
        if len(a) != self.n or len(b) != self.n:
            raise InvalidKernelError(
                f"a and b must both have length n = {self.n} (pattern beyond)"
            )
        if any(x == 0 for x in a):
            raise InvalidKernelError("every a_s must be nonzero")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def a_at(self, m: int) -> complex:
        return self.a[m] if m < self.n else 1.0 + 0.0j

    def b_at(self, m: int) -> complex:
        return self.b[m] if m < self.n else 0.0 + 0.0j

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "a": [[x.real, x.imag] for x in self.a],
            "b": [[x.real, x.imag] for x in self.b],
        }


@dataclass(frozen=True)
class NShift:
    """A shift ``S = M_z + F`` with its perturbation and provenance.

    Plain container; builders validate.  ``provenance`` records how the
    shift was constructed ("kernel" or "explicit").
    """

    n: int
    S: OperatorMatrix
    F: OperatorMatrix
    provenance: str = "explicit"

    @property
    def working_order(self) -> int:
        return self.S.working_order

    def perturbation_degree(self) -> int:
        """Largest row index carrying a nonzero entry of F (-1 when F = 0)."""
        return self.F.last_nonzero_row()


def f_basis_matrix(kernel: TridiagonalKernel, working_order: int) -> np.ndarray:
    """Columns ``f_m`` in monomial coordinates: lower bidiagonal, invertible."""
    g = np.zeros((working_order, working_order), dtype=np.complex128)
    for m in range(working_order):
        g[m, m] = kernel.a_at(m)
        if m + 1 < working_order:
            g[m + 1, m] = kernel.b_at(m)
    return g


def _relabeled(kernel: TridiagonalKernel, coeffs: np.ndarray, width: int, size: int) -> tuple:
    """Multiplication by a stack of polynomial symbols in f-basis coordinates.

    Each matrix is ``G^{-1} T G`` with ``G`` the lower-bidiagonal f-basis
    columns and ``T`` the Toeplitz matrix of a symbol (a row of ``coeffs``);
    relabeling ``f_m -> z^m`` reads it on the monomial basis.  ``f_m = z^m``
    for ``m >= n``, so the product differs from ``T`` only in the first ``n``
    columns, down to row ``n + deg``: a ``width`` covering that is exact.
    Every window is solved by one ``np.linalg.solve`` call, structural zeros
    snapped: LU pivots where ``|b_m| > |a_m|`` and leaves roundoff where the
    exact entry is zero.  Returns the leading ``size > width`` windows of the
    products and of the ``T``.
    """
    count = len(coeffs)
    t = np.zeros((count, size * size), dtype=np.complex128)
    for d in range(min(coeffs.shape[1], size)):  # diagonal d: flat d * size on, step size + 1
        t[:, d * size :: size + 1] = coeffs[:, d, None]
    t = t.reshape(count, size, size)
    g = f_basis_matrix(kernel, width)
    rhs = (t[:, :width, :width] @ g).transpose(1, 0, 2).reshape(width, count * width)
    x = np.linalg.solve(g, rhs).reshape(width, count, width)
    x = x.transpose(1, 0, 2)
    # Outside the window the product is T, so this is max(1, its max_abs()).
    scale = np.maximum(np.abs(x).max(axis=(1, 2)), np.abs(t).max(axis=(1, 2), initial=1.0))
    x[np.abs(x) < _STRUCTURAL_ZERO * scale[:, None, None]] = 0.0
    out = t.copy()
    out[:, :width, :width] = x
    return out, t


def shift_from_kernel(
    kernel: TridiagonalKernel,
    working_order: int,
    tol: ToleranceConfig | None = None,
) -> NShift:
    """The n-shift acting like multiplication by ``z`` on the kernel space.

    The matrix of ``M_z`` in f-basis coordinates comes from the triangular
    change-of-basis solve (the columns ``f_m`` form a banded lower-triangular
    invertible matrix since every ``a_s`` is nonzero); relabeling
    ``f_m -> z^m`` turns it into the shift matrix on the monomial basis.
    Only the leading ``n + 2`` window differs from ``M_z``, so only that
    window is solved; ``F`` is that window less ``M_z``'s, with a zero symbol.
    """
    tol = tol or DEFAULT_TOL
    if working_order < kernel.n + 3:
        raise TruncationError("working order too small for this kernel")
    width = kernel.n + 2
    x, t = _relabeled(kernel, np.array([Z_SYMBOL], dtype=np.complex128), width, width + 1)
    block = x[0, :width, :width]
    s = OperatorMatrix._formed(block.copy(), np.array(Z_SYMBOL, dtype=np.complex128),
                               working_order)
    f = OperatorMatrix._formed(block - t[0, :width, :width], np.zeros(2, dtype=np.complex128),
                               working_order)
    shift = NShift(kernel.n, s, f, provenance="kernel")
    report = validate_n_shift(shift, tol)
    if not report.clause_iii:
        raise NotLeftInvertibleError(
            f"kernel shift fails left-invertibility "
            f"(min Gram eigenvalue {report.min_eigenvalue:.3e})"
        )
    if not (report.clause_i and report.clause_ii):
        raise InvalidKernelError(f"kernel shift violates clauses {report.failures}")
    return shift


def shift_from_columns(
    n: int,
    F_columns,
    working_order: int,
    tol: ToleranceConfig | None = None,
    strict: bool = True,
) -> NShift:
    """Assemble an n-shift from explicit perturbation columns.

    ``F_columns[m]`` holds the coefficients of the image of ``z^m``; exactly
    ``n`` columns are expected and column ``m`` must vanish through degree
    ``m``.  With ``strict`` the defining clauses are enforced (the error
    lists the failing clause); otherwise the verdict is left to
    :func:`validate_n_shift` on the returned shift.
    """
    tol = tol or DEFAULT_TOL
    cols = [np.asarray(c, dtype=np.complex128).ravel() for c in F_columns]
    if len(cols) != n:
        raise DefinitionViolationError(
            f"expected exactly {n} perturbation columns, got {len(cols)}",
            clauses=["(i)"],
        )
    if n > working_order or any(c.shape[0] > working_order for c in cols):
        raise DimensionMismatchError("perturbation columns exceed the working order")
    width = max([n] + [c.shape[0] for c in cols])
    f = np.zeros((width, width), dtype=np.complex128)
    for m, c in enumerate(cols):
        f[: c.shape[0], m] = c
    fdeg_rows = np.nonzero(np.abs(f).max(axis=1) > 0)[0]
    fdeg = int(fdeg_rows.max()) + 1 if fdeg_rows.size else 0
    if fdeg + 2 > working_order:
        raise TruncationError("perturbation support reaches the working order")
    mz = OperatorMatrix.toeplitz(Z_SYMBOL, working_order)
    s = OperatorMatrix(mz.window(width) + f, Z_SYMBOL, working_order)
    shift = NShift(n, s, OperatorMatrix(f, size=working_order), provenance="explicit")
    report = validate_n_shift(shift, tol)
    if strict and report.failures:
        raise DefinitionViolationError(
            f"perturbation violates clauses {report.failures}",
            clauses=report.failures,
        )
    return shift


@dataclass(frozen=True)
class ShiftValidationReport:
    """Per-clause verdict for the defining conditions of an n-perturbation."""

    clause_i: bool
    clause_ii: bool
    clause_iii: bool
    min_eigenvalue: float
    block_size: int

    @property
    def passed(self) -> bool:
        return self.clause_i and self.clause_ii and self.clause_iii

    @property
    def failures(self) -> list:
        out = []
        if not self.clause_i:
            out.append("(i)")
        if not self.clause_ii:
            out.append("(ii)")
        if not self.clause_iii:
            out.append("(iii)")
        return out

    def to_json(self) -> dict:
        return {
            "clause_i": self.clause_i,
            "clause_ii": self.clause_ii,
            "clause_iii": self.clause_iii,
            "min_eigenvalue": self.min_eigenvalue,
            "block_size": self.block_size,
            "min_eigenvalue_floor": _CLAUSE_III_FLOOR,
            "passed": self.passed,
        }


def gram_columns(shift: NShift, size: int) -> np.ndarray:
    """Exact top-left block of ``S*S`` from the stored shift columns.

    Exact as long as the requested columns keep their full image inside the
    working order, i.e. ``size + band spread <= working order``.  Only the
    rows those columns reach are formed.
    """
    s = shift.S
    below, _ = band_spread(s)
    if size + below > s.size:
        raise TruncationError("gram block reaches the truncation boundary")
    cols = s.window(s.reach(size), size)
    return cols.conj().T @ cols


def validate_n_shift(shift: NShift, tol: ToleranceConfig | None = None) -> ShiftValidationReport:
    """Check the three defining clauses of an n-perturbation.

    Clauses (i) and (ii) are exact scans of the finitely supported block.
    Clause (iii) uses the minimum eigenvalue of the finite perturbation
    block of ``S*S``, which is exact at any working order exceeding the
    block size because ``S*S`` differs from the identity only there.
    """
    tol = tol or DEFAULT_TOL
    f = shift.F
    nw = f.size
    n = shift.n
    clause_i = f.max_abs(cols=slice(n, None)) == 0.0
    clause_ii = all(
        f.max_abs(slice(None, m + 1), slice(m, m + 1)) == 0.0 for m in range(min(n, nw))
    )
    fdeg = shift.perturbation_degree()
    block = max(n, fdeg + 1)
    block = min(block, nw - max(band_spread(shift.S)[0], 1))
    gram = gram_columns(shift, block) if block > 0 else np.zeros((0, 0))
    if block > 0:
        herm = (gram + gram.conj().T) / 2.0
        eigs = np.linalg.eigvalsh(herm)
        min_eig = float(min(eigs[0], 1.0))
    else:
        min_eig = 1.0
    clause_iii = bool(min_eig > _CLAUSE_III_FLOOR)
    return ShiftValidationReport(clause_i, clause_ii, clause_iii, min_eig, block)


def verify_power_identities(
    shift: NShift,
    m_max: int,
    tol: ToleranceConfig | None = None,
    seed: int = 0,
) -> dict:
    """Numerically confirm the power structure of an n-shift.

    For each ``m <= m_max`` the report records

    * ``low_rows``: magnitude of rows below ``m`` of ``S^m f`` for a random
      ``f`` (images of ``S^m`` vanish to order ``m``),
    * ``factor``: max-norm of ``S^m - M_z^{m-n} S^n`` for ``m >= n + 1``,
    * ``commute``: max-norm of ``M_z^{m+n} - S^m M_z^n``,
    * ``p_degree`` and ``p_tail``: the polynomial ``p`` with
      ``S^m f = z^m (f + p)`` recovered by shifting down, with the residual
      beyond the recovered degree.

    The powers are structured operators, so every max-norm covers the whole
    truncated matrix at the cost of a window of size ``n + m_max``.  The
    report passes when each worst residual stays below ``tolerance``.
    """
    tol = tol or DEFAULT_TOL
    if m_max < 1:
        raise PreconditionError(f"m_max must be at least 1, got {m_max}")
    s = shift.S
    nw = s.size
    n = shift.n
    below, _ = band_spread(s)
    if m_max * max(below, 1) >= nw - 2:
        raise TruncationError("m_max too large for the working order")
    rng = np.random.default_rng(seed)
    fvec = rng.standard_normal(nw) + 1j * rng.standard_normal(nw)
    fvec /= np.linalg.norm(fvec)

    s_pow = OperatorMatrix.toeplitz((1.0,), nw)
    s_powers = [s_pow]
    for _ in range(m_max):
        s_pow = s @ s_pow
        s_powers.append(s_pow)
    # M_z^k is the Toeplitz matrix of z^k, exactly what k products would give.
    mz_powers = [OperatorMatrix.toeplitz((0.0,) * k + (1.0,), nw) for k in range(m_max + n + 1)]

    checks = []
    guard = nw - m_max * max(below, 1) - 1
    for m in range(1, m_max + 1):
        row = {"m": m}
        img = s_powers[m] @ fvec
        row["low_rows"] = float(np.abs(img[:m]).max())
        if m >= n + 1:
            diff = s_powers[m] - mz_powers[m - n] @ s_powers[n]
            row["factor"] = diff.max_abs()
        diff2 = mz_powers[m + n] - s_powers[m] @ mz_powers[n]
        row["commute"] = diff2.max_abs()
        # S^m f = z^m (f + p): shift down by m and subtract f.
        shifted = img[m:]
        p = shifted - fvec[: nw - m]
        p = p[:guard]
        mags = np.abs(p)
        sig = np.nonzero(mags > tol.tau_res * max(1.0, mags.max(initial=0.0)))[0]
        row["p_degree"] = int(sig.max()) if sig.size else -1
        row["p_tail"] = float(mags[sig.max() + 1 :].max(initial=0.0)) if sig.size else 0.0
        checks.append(row)

    worst = {
        "low_rows": max(c["low_rows"] for c in checks),
        "factor": max((c.get("factor", 0.0) for c in checks), default=0.0),
        "commute": max(c["commute"] for c in checks),
    }
    return {"m_max": m_max, "checks": checks, "worst": worst,
            "tolerance": _POWERS_TOL,
            "passed": all(v < _POWERS_TOL for v in worst.values())}
