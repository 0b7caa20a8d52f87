"""Finite Blaschke products, their Taylor expansions, inner/outer tests.

Finite Blaschke products are the only inner functions the package
represents: they are the inner functions with a finite parameterization,
and the only ones giving finite-codimension invariant subspaces.  Singular
inner factors are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TruncatedVector, ToleranceConfig, DEFAULT_TOL
from .errors import EvaluationError, ExtractionError

__all__ = [
    "BlaschkeProduct",
    "Polynomial",
    "blaschke_eval",
    "blaschke_taylor",
    "is_inner_numeric",
    "is_outer_polynomial",
    "rational_inner_from_taylor",
]

# Roots on the unit circle are outer factors; this margin decides ties.
_BOUNDARY_MARGIN = 1e-9
# Rows per block of _geometric_filter's blocked recurrence.
_FILTER_BLOCK = 64


@dataclass(frozen=True)
class Polynomial:
    """Complex polynomial, coefficient of ``z**k`` at index ``k``.

    Trailing (numerically zero) coefficients are stripped at construction;
    the zero polynomial is stored as an empty coefficient array.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128).ravel().copy()
        nz = np.flatnonzero(c != 0.0)
        c = c[: nz[-1] + 1] if nz.size else c[:0]
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return self.coeffs.shape[0] - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs.shape[0] == 0

    def __call__(self, w: complex) -> complex:
        if self.is_zero:
            return 0.0 + 0.0j
        return complex(np.polyval(self.coeffs[::-1], w))

    def multiply(self, other: "Polynomial") -> "Polynomial":
        if self.is_zero or other.is_zero:
            return Polynomial(np.zeros(0))
        return Polynomial(np.convolve(self.coeffs, other.coeffs))

    def roots(self) -> np.ndarray:
        if self.degree < 1:
            return np.zeros(0, dtype=np.complex128)
        return np.roots(self.coeffs[::-1])

    @classmethod
    def from_roots(cls, roots, leading: complex = 1.0) -> "Polynomial":
        c = np.array([leading], dtype=np.complex128)
        for r in roots:
            c = np.convolve(c, np.array([-r, 1.0], dtype=np.complex128))
        return cls(c)


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product: unimodular constant times disc-zero factors.

    Evaluates to ``constant * prod((a_i - w) / (1 - conj(a_i) w))``.  The
    empty product is the unimodular constant itself.
    """

    constant: complex = 1.0 + 0.0j
    zeros: tuple = ()

    def __post_init__(self):
        c = complex(self.constant)
        if abs(abs(c) - 1.0) > 1e-12:
            raise ValueError("constant must be unimodular")
        zs = tuple(complex(z) for z in self.zeros)
        for z in zs:
            if abs(z) >= 1.0:
                raise ValueError(f"zero {z} is not strictly inside the disc")
        object.__setattr__(self, "constant", c)
        object.__setattr__(self, "zeros", zs)

    @property
    def degree(self) -> int:
        return len(self.zeros)

    def __call__(self, w: complex) -> complex:
        return blaschke_eval(self, w)

    def numerator(self) -> Polynomial:
        """The polynomial ``constant * prod(a_i - z)``."""
        c = np.array([self.constant], dtype=np.complex128)
        for a in self.zeros:
            c = np.convolve(c, np.array([a, -1.0], dtype=np.complex128))
        return Polynomial(c)

    def denominator(self) -> Polynomial:
        """The polynomial ``prod(1 - conj(a_i) z)``; never vanishes on the disc."""
        c = np.array([1.0], dtype=np.complex128)
        for a in self.zeros:
            c = np.convolve(c, np.array([1.0, -np.conj(a)], dtype=np.complex128))
        return Polynomial(c)

    def to_json(self) -> dict:
        return {
            "constant": [self.constant.real, self.constant.imag],
            "zeros": [[z.real, z.imag] for z in self.zeros],
        }


def blaschke_eval(theta: BlaschkeProduct, w: complex) -> complex:
    """Evaluate a finite Blaschke product at a point.

    Raises :class:`EvaluationError` when ``w`` sits (numerically) on a pole
    ``1/conj(a_i)``.
    """
    w = complex(w)
    value = theta.constant
    for a in theta.zeros:
        den = 1.0 - np.conj(a) * w
        if abs(den) < 1e-14:
            raise EvaluationError(f"evaluation point {w} hits the pole of factor {a}")
        value *= (a - w) / den
    return complex(value)


def blaschke_taylor(theta: BlaschkeProduct, working_order: int) -> TruncatedVector:
    """Taylor coefficients of a Blaschke product at 0, up to the working order.

    All stored coefficients are exact for the rational function.
    """
    if working_order < 1:
        raise ValueError("working order must be at least 1")
    out = np.zeros(working_order, dtype=np.complex128)
    out[0] = theta.constant
    for a in theta.zeros:
        # (a - z) / (1 - conj(a) z) = a + (|a|^2 - 1) z / (1 - conj(a) z).
        tail = _geometric_filter(out, np.conj(a))[:-1]
        out = a * out
        out[1:] += (abs(a) ** 2 - 1.0) * tail
    return TruncatedVector(out)


def _geometric_filter(x: np.ndarray, c: complex) -> np.ndarray:
    """Taylor coefficients of ``x / (1 - c z)``, ``|c| < 1``, to the length of ``x``.

    The recurrence ``y_k = x_k + c y_(k-1)`` runs in blocks of
    ``_FILTER_BLOCK``: one matrix product gives each block's response from a
    zero start, and a loop over the blocks carries the last value of one
    block into the next.  The cost is about ``len(x) * _FILTER_BLOCK``
    multiply-adds whatever ``|c|``, where a convolution with the series of
    ``1 / (1 - c z)`` costs ``len(x)**2``.
    """
    n = x.size
    b = min(n, _FILTER_BLOCK)
    rows = -(-n // b)
    padded = np.zeros(rows * b, dtype=np.complex128)
    padded[:n] = x
    powers = c ** np.arange(b)
    lags = np.abs(np.subtract.outer(np.arange(b), np.arange(b)))
    y = padded.reshape(rows, b) @ np.triu(powers[lags])
    carry = c * powers
    for m in range(1, rows):
        y[m] += y[m - 1, -1] * carry
    return y.ravel()[:n]


def _series_div_arrays(num: np.ndarray, den: np.ndarray, n: int) -> np.ndarray:
    """Power-series quotient num/den to order n; den[0] must be nonzero."""
    out = np.zeros(n, dtype=np.complex128)
    d0 = den[0]
    for k in range(n):
        acc = num[k] if k < num.size else 0.0
        top = min(k, den.size - 1)
        if top >= 1:
            acc = acc - np.dot(den[1 : top + 1], out[k - top : k][::-1])
        out[k] = acc / d0
    return out


def is_inner_numeric(
    f: TruncatedVector,
    tol: ToleranceConfig | None = None,
    max_lag: int | None = None,
) -> tuple[bool, dict]:
    """Test whether a truncated vector behaves like an inner function.

    Multiplication by an inner function is isometric, which at truncation
    reads: unit norm and vanishing autocorrelations ``<z^k f, f>`` for all
    lags up to the working order.  Returns the verdict plus diagnostics.
    """
    tol = tol or DEFAULT_TOL
    nt = f.working_order
    lags = max_lag if max_lag is not None else min(64, max(1, nt - 1))
    c = f.coeffs
    norm2 = float(np.real(np.vdot(c, c)))
    worst = 0.0
    for k in range(1, lags + 1):
        if k >= nt:
            break
        corr = np.vdot(c[: nt - k], c[k:nt])
        worst = max(worst, abs(complex(corr)))
    norm_defect = abs(norm2 - 1.0)
    ok = worst <= tol.tau_res and norm_defect <= tol.tau_res
    return ok, {"max_correlation": worst, "norm_defect": norm_defect, "lags": lags}


def is_outer_polynomial(p: Polynomial) -> bool:
    """True iff the polynomial has no root strictly inside the unit disc.

    Roots on the circle count as outer.  Roots come from the companion
    matrix; the zero polynomial is rejected.
    """
    if p.is_zero:
        raise ValueError("the zero polynomial is neither inner nor outer")
    if p.degree < 1:
        return True
    return bool((np.abs(p.roots()) >= 1.0 - _BOUNDARY_MARGIN).all())


def rational_inner_from_taylor(
    vec: TruncatedVector,
    tol: ToleranceConfig | None = None,
    max_degree: int = 16,
) -> BlaschkeProduct:
    """Recover the finite Blaschke product behind a Taylor expansion.

    Detects the minimal rational degree through the kernel of shifted
    coefficient (Hankel-type) systems, reads the zeros off the recovered
    numerator, and validates the reconstruction against the leading
    coefficients.  Raises :class:`ExtractionError` when no unimodular
    rational function of admissible degree matches.
    """
    tol = tol or DEFAULT_TOL
    t = vec.coeffs
    nt = t.shape[0]
    scale = float(np.abs(t).max())
    if scale == 0.0:
        raise ExtractionError("cannot rationalize the zero vector")
    usable = min(nt, max(40, 4 * max_degree))
    check = min(nt, 48)
    for d in range(0, max_degree + 1):
        rows = usable - (d + 1)
        if rows < d + 3:
            break
        sys = np.empty((rows, d + 1), dtype=np.complex128)
        for i, k in enumerate(range(d + 1, usable)):
            sys[i, :] = t[k - d : k + 1][::-1] if d else t[k : k + 1]
        _, s, vh = np.linalg.svd(sys)
        # The null test is relative to the coefficient scale, not to the
        # largest singular value: for a constant function every row is
        # noise and the one-column system would compare noise to itself.
        if s[-1] > 1e-5 * scale:
            continue
        den = vh[-1].conj()
        if abs(den[0]) < 1e-8:
            continue
        den = den / den[0]
        num = np.convolve(den, t)[: d + 1]
        cand = _blaschke_from_fraction(num, den)
        if cand is None:
            continue
        approx = blaschke_taylor(cand, vec.working_order)
        err = float(np.abs(approx.coeffs[:check] - vec.coeffs[:check]).max())
        if err <= max(1e-5, 10 * tol.tau_res) * scale:
            return cand
    raise ExtractionError(
        "no finite Blaschke product matches the leading coefficients"
    )


def _blaschke_from_fraction(num: np.ndarray, den: np.ndarray):
    """Assemble a Blaschke product from numerator/denominator coefficients."""
    p = Polynomial(num)
    if p.is_zero:
        return None
    zeros = p.roots()
    if zeros.size and np.abs(zeros).max() >= 1.0 - 1e-10:
        return None
    try:
        ref = BlaschkeProduct(1.0, tuple(zeros))
    except ValueError:
        return None
    # Match the unimodular constant against the first significant coefficient.
    probe = blaschke_taylor(ref, max(8, zeros.size + 4))
    idx = probe.valuation(1e-12)
    if idx >= probe.working_order:
        return None
    target = _series_div_arrays(
        np.pad(num, (0, max(0, idx + 1 - num.size))), den, idx + 1
    )[idx]
    c = target / probe.coeffs[idx]
    if abs(abs(c) - 1.0) > 1e-6:
        return None
    c = c / abs(c)
    return BlaschkeProduct(c, tuple(zeros))
