"""Invariant subspaces of n-shifts: construction, verification, extraction.

A nonzero closed subspace is invariant under an n-shift exactly when it
decomposes as

    span{phi_0, ..., phi_{n-1}}  (+)  z^n theta H^2

with an inner function ``theta``, polynomials ``p_i, q_i`` such that
``phi_i = z^i p_i theta - q_i``, each ``S phi_j`` falling into the span of
the later ``phi``'s plus the tail space, and ``S phi_{n-1} = z^n p_{n-1}
theta``.  This module realizes that decomposition numerically in both
directions, builds the model of a polynomial seed's cyclic closure exactly,
and decides cyclicity for 1-shifts.
"""

from __future__ import annotations

from dataclasses import dataclass
import functools

import numpy as np
from numpy.polynomial import polynomial as P
import scipy.linalg

from .core import (
    DEFAULT_TOL,
    OperatorMatrix,
    Subspace,
    ToleranceConfig,
    TruncatedVector,
    _ORTHONORMALITY_LIMIT,
    _rank_cut,
    invariance_residual,
    orthonormalize,
    principal_angles,
)
from .errors import (
    DimensionMismatchError,
    ExtractionError,
    ModelInconsistencyError,
    PreconditionError,
    TruncationError,
    UnsupportedConfigurationError,
)
from .inner import (
    _BOUNDARY_MARGIN,
    BlaschkeProduct,
    Polynomial,
    blaschke_taylor,
    is_inner_numeric,
    is_outer_polynomial,
    rational_inner_from_taylor,
)
from .shifts import Z_SYMBOL, NShift

__all__ = [
    "SubspaceModel",
    "build_subspace",
    "check_cyclic",
    "extract_model",
    "finite_codimension",
    "model_generators",
    "s1_model",
    "verify_model",
    "wandering_dimension",
]

# A model condition fails when its relative residual exceeds this.
_CONDITION_LIMIT = 1e-6
# Largest coefficient below z^n the plain-shift wandering vector of S^n M may keep.
_VANISHING_LIMIT = 1e-6
# The inner-function screen fails theta when a lag correlation or its norm defect exceeds this.
_INNER_SCREEN_LIMIT = 1e-3
# Tail generators past deg theta in a built stack; also the rows it leaves past den * stack.
_TAIL_MARGIN = 8
# The tail-Prony fit tries denominators up to this degree, on this many rows per degree.
_PRONY_MAX_DEGREE, _PRONY_ROWS = 16, 32
# Windows of unit basis columns have a null vector when their least singular value is below this.
_NULL_CUT = 1e-10
# Trailing p_i, q_i coefficients below this part of the largest are rounding.
_ROUNDING = 1e-12
_CONDITIONS = ("phi_orthogonality", "phi_vs_tail", "chain", "last_chain")


@dataclass(frozen=True)
class SubspaceModel:
    """Classification data ``(n, theta, {p_i}, {q_i})`` of an invariant subspace."""

    n: int
    theta: BlaschkeProduct
    p: tuple
    q: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        p = tuple(self.p)
        q = tuple(self.q)
        if len(p) != self.n or len(q) != self.n:
            raise ValueError(f"need exactly n = {self.n} polynomials p and q")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def phi(self, i: int, working_order: int) -> TruncatedVector:
        """The model vector ``phi_i = z^i p_i theta - q_i`` as a Taylor slice."""
        return TruncatedVector(_phi(self, i, blaschke_taylor(self.theta, working_order).coeffs))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "theta": self.theta.to_json(),
            "p": [[[c.real, c.imag] for c in poly.coeffs] for poly in self.p],
            "q": [[[c.real, c.imag] for c in poly.coeffs] for poly in self.q],
        }


def _phi(model: SubspaceModel, i: int, theta: np.ndarray) -> np.ndarray:
    """``phi_i = z^i p_i theta - q_i`` to the length of theta's Taylor slice."""
    nw, pc, qc = theta.shape[0], model.p[i].coeffs, model.q[i].coeffs
    vec = np.zeros(nw, dtype=np.complex128)
    vec[i:] = np.convolve(pc, theta)[: nw - i] if pc.size else 0.0
    vec[: qc.size] -= qc[:nw]
    return vec


def s1_model(a0: complex, b0: complex, theta: BlaschkeProduct) -> SubspaceModel:
    """The canonical 1-shift model for the rank-one tridiagonal perturbation.

    For the 1-shift sending ``1`` to ``a0 z + b0 z^2`` (all higher monomials
    plainly shifted) and ``0 < |b0| <= |a0|``, every invariant subspace has

        p = 1 + (b0/a0) |theta(0)|^2 z,
        q = (theta(0)/a0) ((a0 - 1) + b0 z).
    """
    a0 = complex(a0)
    b0 = complex(b0)
    if not 0.0 < abs(b0) <= abs(a0):
        raise PreconditionError("need 0 < |b0| <= |a0|")
    t0 = theta(0.0)
    p0 = Polynomial(np.array([1.0, (b0 / a0) * abs(t0) ** 2], dtype=np.complex128))
    q0 = Polynomial((t0 / a0) * np.array([a0 - 1.0, b0], dtype=np.complex128))
    return SubspaceModel(1, theta, (p0,), (q0,))


def model_generators(
    model: SubspaceModel, working_order: int, depth: int
) -> tuple[np.ndarray, int]:
    """Generator columns ``[phi_0..phi_{n-1}, z^n theta, ..., z^{n+depth} theta]``.

    Every column is the exact truncation of the corresponding function, so
    the stack is safe to compare at full working order.  Returns the matrix
    and the largest generator valuation (the frontier).
    """
    n = model.n
    theta = blaschke_taylor(model.theta, working_order)
    gens = np.zeros((working_order, n + depth + 1), dtype=np.complex128)
    for i in range(n):
        gens[:, i] = _phi(model, i, theta.coeffs)
    for k in range(n, min(n + depth + 1, working_order)):
        gens[k:, k] = theta.coeffs[: working_order - k]
    frontier = min(working_order, n + depth + theta.valuation(1e-14))
    return gens, frontier


def default_tail_depth(model: SubspaceModel, working_order: int) -> int:
    """Tail-generator depth ``deg theta + _TAIL_MARGIN``, whatever the working order.

    Clamped to leave :func:`_exact_model` ``_TAIL_MARGIN`` rows past ``frontier + deg theta``.
    """
    n, deg = model.n, model.theta.degree
    return max(0, min(deg + _TAIL_MARGIN, working_order - n - deg - _TAIL_MARGIN - 1))


def _split(a: np.ndarray, rel: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases of the numerical range of ``a`` and of its complement."""
    u, s, _ = np.linalg.svd(a)
    r, _ = _rank_cut(s, rel)
    return u[:, :r], u[:, r:]


def _tm_frame(theta: BlaschkeProduct, m: int) -> tuple[np.ndarray, np.ndarray]:
    """``(A, Z)`` in Takenaka-Malmquist coordinates of ``K' = H^2 (-) z^m theta H^2``.

    The basis is ``G_k = c_k B_k / (1 - conj(l_k) z)`` with ``l = (0,)*m +
    theta.zeros``, ``c_k = sqrt(1 - |l_k|^2)`` and ``B_k = prod_{j<k} (z - l_j) /
    (1 - conj(l_j) z)``, so ``G_k = z^k`` for ``k < m``.  ``A`` is ``P_{K'} M_z`` on
    ``K'`` and column ``j`` of ``Z`` holds ``z^j theta``, ``j < m``.
    """
    zeros = np.concatenate([np.zeros(m), theta.zeros])
    dim = zeros.size
    c = np.append(np.sqrt(1.0 - np.abs(zeros) ** 2), 1.0)
    # z G_k = l_k G_k + c_k B_{k+1} and <B_{k+1}, G_l> = c_l prod_{k<j<l} (-conj l_j)
    # for l > k; the extra last row, with c_dim = 1, holds <z G_k, B_dim>.
    rows = np.eye(dim + 1, dim, -1, dtype=np.complex128)
    low = max(m - 1, 0)  # l_j = 0 below m: column k < m - 1 is e_{k+1}
    tail = zeros[low:]
    # Column k of the cumulative product holds prod_{k<j<=l} (-conj l_j) in row l.
    idx = np.arange(tail.size)
    factors = np.where(idx[:, None] > idx, -tail.conj()[:, None], 1.0)
    products = c[low:dim] * c[low + 1 :, None] * np.cumprod(factors, axis=0)
    rows[low + 1 :, low:] = np.where(idx[:, None] >= idx, products, 0.0)
    np.fill_diagonal(rows, zeros)
    # z^m theta = u B_dim with u = theta.constant (-1)^deg, and M_z^r compresses to
    # A^r, so <G_k, z^j theta> = <z^{m-j} G_k, z^m theta> = (beta A^{m-j-1})_k.
    a, beta = rows[:dim], rows[dim] * np.conj(theta.constant) * (-1) ** theta.degree
    shifted = np.empty((dim, m), dtype=np.complex128)
    for j in range(m - 1, -1, -1):
        shifted[:, j] = beta.conj()
        beta = beta @ a
    return a, shifted


def _model_space(model: SubspaceModel, tol: ToleranceConfig, reach: int) -> tuple:
    """``(A, E, phi, closing, perp)`` for ``K = H^2 (-) z^n theta H^2``, exactly.

    Coordinates are those of :func:`_tm_frame` for ``K' = H^2 (-) z^m theta H^2``;
    ``m >= reach`` is the least order holding every ``phi_i``, ``S phi_i`` and
    ``closing = z^n p_{n-1} theta``.  ``A`` is ``P_{K'} M_z`` on ``K'``, ``E`` an
    orthonormal basis of ``K`` and ``perp`` one of ``M^perp = K (-) span{phi_i}``
    in ``E`` coordinates.  The read-only result is kept per ``(m, tol)`` in
    ``model._space_memo`` (not a dataclass field); the frame is the one
    :func:`_frame_model` left on the model when it was read at order ``m``.
    """
    n, p, q = model.n, model.p, model.q
    m = max([reach] + [n + c.coeffs.size for c in p] + [c.coeffs.size + 1 for c in q])
    memo = model.__dict__.setdefault("_space_memo", {})
    if (m, tol) in memo:
        return memo[m, tol]
    read = model.__dict__.get("_read_frame")
    a, shifted = read[1:3] if read is not None and read[0] == m else _tm_frame(model.theta, m)
    phi = np.zeros((a.shape[0], n + 1), dtype=np.complex128)
    for i, (pi, qi) in enumerate(zip(p, q)):
        phi[:, i] = shifted[:, i : i + pi.coeffs.size] @ pi.coeffs
        phi[: qi.coeffs.size, i] -= qi.coeffs
    phi[:, n] = shifted[:, n : n + p[-1].coeffs.size] @ p[-1].coeffs
    # K is the complement in K' of the orthonormal z^{n+j} theta, j < m - n.
    _, basis = _split(shifted[:, n:], tol.tau_rank)
    norms = np.linalg.norm(phi[:, :n], axis=0)
    _, perp = _split(basis.conj().T @ phi[:, :n] / np.where(norms > 0.0, norms, 1.0), tol.tau_rank)
    memo[m, tol] = found = (a, basis, phi[:, :n], phi[:, n], perp)
    for arr in found:
        arr.setflags(write=False)
    return found


def _lift(op: OperatorMatrix, a: np.ndarray) -> np.ndarray:
    """``P_{K'} op`` on ``K'``, exact when ``op`` maps ``z^m theta H^2`` into itself
    (``S``, commutant members): the symbol at ``A`` (Sarason) plus the block's
    departure from its Toeplitz window, on ``1..z^{k-1} = G_0..G_{k-1}`` (``k <= m``)."""
    out = np.zeros_like(a)
    for coeff in op.symbol[::-1]:
        out = out @ a
        out.flat[:: len(a) + 1] += coeff
    k = op.block_size
    departure = np.array(op.block)
    for d, coeff in enumerate(op.symbol[:k]):  # diagonal d: flat d * k on, step k + 1
        departure.flat[d * k :: k + 1] -= coeff
    out[:k, :k] += departure
    return out


def _lifted_shift(model: SubspaceModel, shift: NShift, a: np.ndarray) -> np.ndarray:
    """``_lift(shift.S, a)``: the one :func:`_frame_model` left when it read ``model`` on ``a``."""
    read = model.__dict__.get("_read_frame")
    if read is not None and read[1] is a and read[3] is shift.S:
        return read[4]
    return _lift(shift.S, a)


def _escape(perp: np.ndarray, compressed: np.ndarray) -> np.ndarray | float:
    """How far ``op*`` moves ``M^perp`` out of itself: ``norm((I - P_M) op P_M)``,
    for one compressed ``op`` or each of a stack, by one SVD call."""
    moved = compressed.conj().swapaxes(-1, -2) @ perp
    moved -= perp @ (perp.conj().T @ moved)
    return np.linalg.svd(moved, compute_uv=False).max(axis=-1, initial=0.0)


def verify_model(
    model: SubspaceModel,
    shift: NShift,
    working_order: int,
    tol: ToleranceConfig | None = None,
) -> dict:
    """Residuals of the model structure conditions against a given shift.

    Computed on the model space ``K = H^2 (-) z^n theta H^2`` of dimension
    ``n + deg theta``, independent of ``working_order`` (the shift's).
    Relative residuals of: mutual orthogonality of the ``phi_i``, their
    distance from ``K`` (``phi_vs_tail``), the chain ``S phi_j in
    span{phi_{j+1}..} (+) z^n theta H^2`` and ``S phi_{n-1} = z^n p_{n-1}
    theta`` (``last_chain``); each fails above ``condition_limit``.
    ``invariance_residual`` is how far ``S*`` moves ``M^perp`` out of itself.
    """
    tol = tol or DEFAULT_TOL
    if working_order != shift.working_order:
        raise DimensionMismatchError(f"working order {working_order} is not the shift's")
    if model.n != shift.n:
        raise PreconditionError(f"model has n = {model.n}, shift has n = {shift.n}")
    return _certificate(model, shift, tol, shift.S.block_size)


def _certificate(model: SubspaceModel, shift: NShift, tol: ToleranceConfig, reach: int) -> dict:
    """:func:`verify_model`'s report on :func:`_model_space` at order ``reach`` or past it.

    A model read at its order by :func:`_frame_model` and certified at that
    order shares the read's frame and lifted ``S``.
    """
    a, basis, phi, closing, perp = _model_space(model, tol, reach)
    s = _lifted_shift(model, shift, a)
    coords = basis.conj().T @ phi
    norms = np.linalg.norm(phi, axis=0)
    unit = np.where(norms > 0.0, norms, 1.0)
    gram = np.abs(phi.conj().T @ phi) / np.outer(unit, unit)
    s_phi = s @ phi
    s_norms = np.maximum(np.linalg.norm(s_phi, axis=0), 1e-300)
    compressed = basis.conj().T @ s @ basis
    # The chain in K coordinates: the projection of S phi_j onto K must lie
    # in the span of the projections of the later phi's.
    images = compressed @ coords
    chain = 0.0
    for j in range(model.n - 1):
        later, _ = _split(coords[:, j + 1 :], tol.tau_rank)
        resid = images[:, j] - later @ (later.conj().T @ images[:, j])
        chain = max(chain, float(np.linalg.norm(resid) / s_norms[j]))
    report = {
        "phi_norms": norms.tolist(),
        "phi_min_norm": float(norms.min()),
        "phi_orthogonality": float(np.triu(gram, 1).max()),
        "phi_vs_tail": float((np.linalg.norm(phi - basis @ coords, axis=0) / unit).max()),
        "chain": chain,
        "last_chain": float(np.linalg.norm(s_phi[:, -1] - closing) / s_norms[-1]),
        "invariance_residual": float(_escape(perp, compressed)),
        "condition_limit": _CONDITION_LIMIT,
    }
    report["max_residual"] = max(report[name] for name in _CONDITIONS)
    return report


def _require_consistent(
    model: SubspaceModel, shift: NShift, working_order: int, tol: ToleranceConfig
) -> dict:
    """:func:`verify_model`'s report; a failed condition raises :class:`ModelInconsistencyError`."""
    return _consistent(verify_model(model, shift, working_order, tol), tol)


def _consistent(report: dict, tol: ToleranceConfig) -> dict:
    """A model report, unless a condition failed: then :class:`ModelInconsistencyError`."""
    if report["phi_min_norm"] <= tol.tau_rank:
        raise ModelInconsistencyError("some phi_i is numerically zero", condition="phi_nonzero")
    for name in _CONDITIONS:
        if report[name] > _CONDITION_LIMIT:
            raise ModelInconsistencyError(
                f"model condition {name} has residual {report[name]:.3e}", condition=name
            )
    return report


def build_subspace(
    model: SubspaceModel,
    shift: NShift,
    working_order: int,
    tol: ToleranceConfig | None = None,
) -> tuple[Subspace, dict]:
    """Orthonormal basis for the subspace a model describes, plus a report.

    The model structure conditions are checked first (raising
    :class:`ModelInconsistencyError` naming the failed condition).  The
    basis is the orthonormalized generator stack ``phi_i, z^n theta, ...``
    at the default tail depth; the report carries the verdicts of
    :func:`verify_model` (``invariance_residual`` is its exact certificate)
    and the orthonormality limit every basis is checked against.
    """
    tol = tol or DEFAULT_TOL
    report = _require_consistent(model, shift, working_order, tol)
    depth = default_tail_depth(model, working_order)
    gens, frontier = model_generators(model, working_order, depth)
    space = orthonormalize(gens, tol, frontier=frontier, invariant_certified=True)
    report["depth"] = depth
    report["dimension"] = space.dim
    report["frontier"] = frontier
    report["orthonormality_limit"] = _ORTHONORMALITY_LIMIT
    return space, report


def wandering_dimension(
    M: Subspace,
    shift: NShift,
    tol: ToleranceConfig | None = None,
) -> int:
    """Dimension of ``M`` minus ``S M``; 1 for every invariant subspace.

    The invariance of ``M`` (restricted below the generator frontier) is a
    precondition, not an outcome: a non-invariant input raises, and so does
    a certified invariant one whose truncation leaves no wandering vector.
    """
    tol = tol or DEFAULT_TOL
    if M.dim == 0:
        raise PreconditionError("subspace must be nonzero")
    _require_invariant(M, shift, tol)
    found = _recovery(M, shift, tol)
    return 1 if isinstance(found, SubspaceModel) else found[1].shape[1]


def _require_invariant(M: Subspace, shift: NShift, tol: ToleranceConfig) -> None:
    if not M.invariant_certified:
        resid = invariance_residual(M, shift)
        if resid > 10 * tol.tau_res:
            raise PreconditionError(
                f"subspace is not invariant at truncation (residual {resid:.3e})"
            )


def _truncation_error(M: Subspace) -> TruncationError:
    """What an empty peeling stage of a certified invariant ``M`` raises."""
    slack = 0 if M.frontier is None else M.working_order - M.frontier
    return TruncationError(f"no wandering vector at working order {M.working_order}: {slack} "
                           "rows of slack (N - frontier) do not hold the truncated tail; "
                           "raise --truncation")


def _recovery(
    M: Subspace, shift: NShift, tol: ToleranceConfig
) -> SubspaceModel | tuple[np.ndarray, np.ndarray]:
    """``M``'s model by :func:`_exact_model` (given a frontier), else its split ``(image, wander)``.

    The split of ``M`` into ``P_M S M`` and ``M (-) S M`` is in ``M.basis``
    coordinates; it raises :class:`TruncationError` when ``M`` is certified and
    ``wander`` empty.  The result is kept as ``M._wandering_memo`` (not a
    dataclass field) for this shift object and an equal ``tol``.
    """
    cached = getattr(M, "_wandering_memo", None)
    if cached is not None and cached[0] is shift and cached[1] == tol:
        return cached[2]
    found = _exact_model(M, shift, tol) if M.frontier is not None else None
    if found is None:
        found = _split(M.basis.conj().T @ (shift.S @ M.basis), tol.tau_rank)
        if found[1].shape[1] == 0 and M.invariant_certified:
            raise _truncation_error(M)
    object.__setattr__(M, "_wandering_memo", (shift, tol, found))
    return found


def _den_frame(theta: BlaschkeProduct, m: int) -> np.ndarray:
    """Column ``k``: ``theta.denominator()`` times the basis ``G_k`` of :func:`_tm_frame`."""
    zeros = np.concatenate([np.zeros(m), theta.zeros])
    out = np.zeros((zeros.size, zeros.size), dtype=np.complex128)
    for k, a in enumerate(zeros):
        # den G_k = c_k prod_{j<k} (z - l_j) prod_{j>k} (1 - conj(l_j) z): z^k den below m.
        if k == 0 or k >= m:
            factors = [[-x, 1.0] for x in zeros[m:k]]
            factors += [[1.0, -np.conj(x)] for x in zeros[max(k + 1, m) :] if x]
            col = functools.reduce(np.convolve, factors, np.sqrt([1.0 - abs(a) ** 2]))
        out[min(k, m) : min(k, m) + col.size, k] = col
    return out


def _exact_model(M: Subspace, shift: NShift, tol: ToleranceConfig) -> SubspaceModel | None:
    """The model of a generator stack with a frontier, read exactly; ``None`` unless certified.

    A column ``h`` of ``phi_i, z^n theta, .., z^{F-v} theta`` (frontier ``F``,
    theta's valuation ``v``) is ``p theta - q``, so ``den h`` (``den = prod (1 -
    conj(a) z)``, ``d`` nonzero zeros) vanishes past row ``F + d``.  Prony: for
    the least ``d``, ``den`` nulls the windows ``(h_k, .., h_{k-d})`` of all
    columns past ``F + d``; the zeros are the roots of its conjugate reversal.
    ``den h mod z^{n+w} prod (z - a)`` is ``den P_K h``, ``K = H^2 (-) z^{n+w-v}
    theta H^2``, of rank ``n`` at ``w = v``, one more per order past it, and
    at most ``n`` below; its range and the ``z^j theta`` span ``M cap K'``.
    Certificate: rows past ``F + d`` vanish, rank ``n``, ``dim M = F - v + 1``
    (the generator count), no read remainder, :func:`verify_model`; an
    uncertified ``M`` (the CLI's raw ``basis``) within ``tau_angle`` of the model's stack.
    """
    n, frontier, h = shift.n, M.frontier, M.basis
    for d in range(_PRONY_MAX_DEGREE + 1):
        start, stop = frontier + d + 1, min(h.shape[0], frontier + d + 1 + _PRONY_ROWS)
        if stop - start <= d:
            return None
        windows = np.stack([h[start - j : stop - j] for j in range(d + 1)], axis=-1)
        _, s, vh = np.linalg.svd(windows.reshape(-1, d + 1), full_matrices=False)
        if s[-1] <= _NULL_CUT:
            break
    else:
        return None
    den = vh[-1].conj() / (vh[-1, 0].conj() or 1.0)
    tail = sum(c * h[start - j : h.shape[0] - j] for j, c in enumerate(den))
    if np.abs(tail).max() > _NULL_CUT * np.linalg.norm(den):
        return None
    zeros = np.roots(den.conj())
    if ((np.abs(zeros) <= tol.tau_rank) | (np.abs(zeros) >= 1.0)).any():
        return None
    p = np.zeros((frontier + den.size, h.shape[1]), dtype=np.complex128)
    for j, c in enumerate(den):
        p[j:] += c * h[: p.shape[0] - j]
    found, rank = None, 0
    for v in range(frontier - n + 1):
        rem = _long_division(p, np.concatenate([np.zeros(n + v), P.polyfromroots(zeros)]))[1]
        s = np.linalg.svd(rem, compute_uv=False)
        rank = int(np.count_nonzero(s > tol.tau_rank * np.linalg.norm(den)))
        if rank > n:
            break
        found = (v, rank, rem)
    if rank <= n or found is None or found[1] != n or M.dim != frontier - found[0] + 1:
        return None
    try:
        model = _divided_model(shift, np.concatenate([np.zeros(found[0]), zeros]), found[2], tol)
    except (ExtractionError, ModelInconsistencyError):
        return None
    spanned = M.invariant_certified or principal_angles(
        M, orthonormalize(model_generators(model, M.working_order, M.dim - n - 1)[0], tol)
    ).max() <= tol.tau_angle
    return model if spanned else None


def _divided_model(
    shift: NShift, zeros: tuple | np.ndarray, rem: np.ndarray, tol: ToleranceConfig
) -> SubspaceModel:
    """The model of ``M`` from ``rem = den h mod z^n prod (z - a)`` over columns ``h`` of ``M``.

    ``a`` runs over theta's ``zeros`` (origin included) and ``den`` is theta's
    denominator, so ``rem`` is ``den P_K h``, ``K = H^2 (-) z^n theta H^2``; its
    range, solved against :func:`_den_frame` into frame coordinates, is ``M cap K``
    for :func:`_frame_model`, which projects out ``p_i, q_i``.  Theta's first
    significant Taylor coefficient is made positive real.  Certificate: read
    remainder at most ``_CONDITION_LIMIT`` (else :class:`ExtractionError`), then
    the model conditions at the read's order (:func:`_certificate`).
    """
    n = shift.n
    u = np.linalg.svd(rem, full_matrices=False)[0][:, :n]
    ref = BlaschkeProduct(1.0, tuple(zeros))
    head = blaschke_taylor(ref, ref.degree + 1).coeffs
    lead = head[np.flatnonzero(np.abs(head) > tol.tau_rank)[0]]
    theta = BlaschkeProduct(abs(lead) / lead, ref.zeros)
    m = max(2 * n, shift.S.block_size) + 1
    heads = np.linalg.solve(_den_frame(theta, m), np.pad(u, ((0, m - n), (0, 0))))
    model, remainder = _frame_model(shift, theta, m, heads, tol)
    if remainder > _CONDITION_LIMIT:
        raise ExtractionError(f"read remainder {remainder:.3e} exceeds {_CONDITION_LIMIT:.0e}")
    _consistent(_certificate(model, shift, tol, m), tol)
    return model


def _normalize_direction(vec: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Unit norm with the first significant coefficient rotated positive real."""
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        raise ExtractionError("cannot normalize the zero vector")
    out = vec / norm
    idx = np.flatnonzero(np.abs(out) > tol.tau_rank)
    if idx.size == 0:
        raise ExtractionError("vector has no significant coefficient")
    lead = out[idx[0]]
    return out * (abs(lead) / lead)


def extract_model(
    M: Subspace,
    shift: NShift,
    tol: ToleranceConfig | None = None,
) -> SubspaceModel:
    """Recover the classification data of an invariant subspace.

    :func:`_exact_model` reads a certified stack with a frontier, such as
    :func:`build_subspace` returns.  Otherwise this peels the wandering
    vectors ``phi_j`` of the nested images ``S^j M``, identifies the
    plain-shift wandering vector of ``S^n M`` with ``z^n theta`` and
    rationalizes ``theta`` into a finite Blaschke product; ``den phi_i`` (rows
    up to ``M.frontier``) is reduced mod ``z^n prod (z - a)`` by division, and
    :func:`_divided_model` reads ``p_i`` and ``q_i`` by the frame projection
    under its read-remainder certificate.

    Every stage lies in ``M``, which holds ``S M``, so :func:`_peel` runs in
    coordinates of ``M.basis`` from the split :func:`wandering_dimension`
    shares; nothing peeled reaches past ``M.frontier``: theta's window ends 8 below it.

    The wandering vector at each stage must be one-dimensional; anything
    else signals inadequate truncation or a non-invariant input, and an
    empty one on a certified invariant input raises :class:`TruncationError`.
    Theta's first significant Taylor coefficient is positive real, and each
    ``phi_i`` has unit norm with its first significant coefficient positive
    real; the returned polynomials inherit that scaling.
    """
    tol = tol or DEFAULT_TOL
    n = shift.n
    nw = M.working_order
    _require_invariant(M, shift, tol)

    found = _recovery(M, shift, tol)
    if isinstance(found, SubspaceModel):
        return found
    empty = _truncation_error(M) if M.invariant_certified else None
    phi_dirs, (cur, image) = _peel(shift.S, M.basis, n, tol, found, empty)
    g, _ = _peel(OperatorMatrix.toeplitz(Z_SYMBOL, nw), cur @ image, 1, tol)
    gvec = g[:, 0]
    if np.abs(gvec[:n]).max(initial=0.0) > _VANISHING_LIMIT:
        raise ExtractionError("image wandering vector does not vanish to order n")

    # Coefficients of the wandering vector lose accuracy toward the
    # generator frontier; keep a margin below it for the rational fit.
    theta_window = nw - n if M.frontier is None else max(16, M.frontier - n - 8)
    theta_raw = _normalize_direction(gvec[n:], tol)
    theta_vec = TruncatedVector(theta_raw[:theta_window])
    # Fast-fail screen; lags stay inside half the theta window because the
    # high lags are dominated by the truncated theta tail.  The decisive
    # validation is the read-remainder certificate below.
    _, diag = is_inner_numeric(theta_vec, tol, max_lag=min(24, theta_vec.working_order // 2))
    if diag["max_correlation"] > _INNER_SCREEN_LIMIT or diag["norm_defect"] > _INNER_SCREEN_LIMIT:
        raise ExtractionError(f"extracted tail generator fails the inner test: {diag}")
    theta = rational_inner_from_taylor(theta_vec, tol)
    rows, den = nw if M.frontier is None else M.frontier, theta.denominator().coeffs
    dh = np.column_stack([np.convolve(den, phi)[:rows] for phi in phi_dirs[:rows].T])
    divisor = np.concatenate([np.zeros(n), P.polyfromroots(theta.zeros)])
    return _divided_model(shift, theta.zeros, _long_division(dh, divisor)[1], tol)


def _peel(s: np.ndarray | OperatorMatrix, cur: np.ndarray, stages: int, tol: ToleranceConfig,
          first: tuple | None = None,
          empty: Exception | None = None) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Unit wandering vectors of ``V, s V, ...`` as columns, and the last ``(cur, image)``.

    ``cur`` is an orthonormal basis of an ``s``-invariant ``V``.  Every stage
    lies inside ``V``, so each is one SVD of ``cur* s cur``: its range half,
    mapped back through ``cur``, is the next ``cur`` (``cur @ image`` spans
    ``s^stages V``), and nothing is orthonormalized at the rows of ``V``.
    ``first`` is stage 0's split when the caller holds it.  Each stage must be
    one-dimensional, else :class:`ExtractionError`, or ``empty`` when empty.
    """
    phis = []
    for j in range(stages):
        cur = cur @ image if j else cur
        split = first if j == 0 and first else _split(cur.conj().T @ (s @ cur), tol.tau_rank)
        image, wander = split
        if wander.shape[1] == 0 and empty is not None:
            raise empty
        if wander.shape[1] != 1:
            raise ExtractionError(
                f"wandering dimension {wander.shape[1]} != 1 while peeling stage {j}"
            )
        phis.append(_normalize_direction(cur @ wander[:, 0], tol))
    return np.column_stack(phis), (cur, image)


def _convolution(coeffs: np.ndarray, cols: int) -> np.ndarray:
    """The ``(cols + deg) x cols`` matrix of multiplication by the polynomial ``coeffs``.

    Entry ``(j, i)`` is ``coeffs[j - i]``, read off the padded coefficients.
    """
    padded = np.concatenate([np.zeros(cols - 1), coeffs, np.zeros(cols - 1)])
    return padded[np.add.outer(np.arange(cols + coeffs.size - 1), np.arange(cols - 1, -1, -1))]


def _long_division(w: np.ndarray, divisor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quotient and remainder of ``w``'s columns by ``divisor`` from the top (roots in the disc).

    ``w = C quo + rem`` with ``C`` the convolution by ``divisor`` and ``rem`` on
    the rows below its degree: the rows from there on are upper triangular in
    ``quo``, solved by one LAPACK ``ztrtrs`` call.
    """
    w, k = np.asarray(w, dtype=np.complex128), divisor.size
    size = w.shape[0] - k + 1
    if size <= 0:
        return np.zeros((0,) + w.shape[1:], dtype=np.complex128), w.copy()
    conv = _convolution(divisor, size)
    top = w[k - 1 :].reshape(size, -1)
    quo = scipy.linalg.lapack.ztrtrs(conv[k - 1 :], top, lower=0)[0].reshape(w[k - 1 :].shape)
    return quo, w[: k - 1] - conv[: k - 1] @ quo


def _frame_model(
    shift: NShift, theta: BlaschkeProduct, m: int, lead: np.ndarray, tol: ToleranceConfig,
) -> tuple[SubspaceModel, float]:
    """The model whose ``M cap K'`` is spanned by ``lead`` and ``z^j theta``, ``n <= j < m``.

    :func:`_peel` reads the ``phi_i`` in :func:`_tm_frame` coordinates of ``K' =
    H^2 (-) z^m theta H^2`` (``m`` past ``2 n`` and the block of ``S``), and the
    same frame gives ``p_i, q_i`` by projection.  Theta is inner, so the columns
    ``z^j theta`` of ``Z`` are orthonormal; ``v_i = S^{n-i} phi_i = z^n p_i theta``
    stays in ``K'`` while ``n + deg p_i < m``, where the lifted ``S`` computes it
    exactly.  So ``p_i = Z[:, n:]* v_i``, and ``q_i = z^i p_i theta - phi_i``, a
    polynomial, is the first ``m`` rows of ``Z[:, i:] p_i - phi_i`` (``G_k = z^k``
    below ``m``).  The float is the largest relative read remainder: the part of
    ``v_i`` off the ``z^{n+j} theta`` and the rows of ``q_i`` past ``m``, which
    vanish unless ``m`` is too small or the model wrong.  The frame ``(A, Z)`` and
    the lifted ``S`` stay on the model as ``model._read_frame`` (not a dataclass
    field), for :func:`_model_space` and :func:`_certificate` at order ``m``.
    """
    n = shift.n
    a, shifted = _tm_frame(theta, m)
    s = _lift(shift.S, a)
    gens = np.hstack([np.eye(a.shape[0], lead.shape[0]) @ lead, shifted[:, n:]])
    phi, _ = _peel(s, _split(gens, tol.tau_rank)[0], n, tol)
    # Column i takes the steps t >= i, n - i in all.
    v = phi.copy()
    for t in range(n):
        v[:, : t + 1] = s @ v[:, : t + 1]
    tail = shifted[:, n:]
    p = tail.conj().T @ v
    q = np.column_stack([shifted[:, i : i + m - n] @ p[:, i] for i in range(n)]) - phi
    worst = max((np.linalg.norm(v - tail @ p, axis=0) / np.linalg.norm(v, axis=0)).max(),
                (np.linalg.norm(q[m:], axis=0) / np.linalg.norm(phi, axis=0)).max())
    model = SubspaceModel(n, theta, _trimmed(p), _trimmed(q[:m]))
    model.__dict__["_read_frame"] = (m, a, shifted, shift.S, s)
    return model, float(worst)


def _trimmed(columns: np.ndarray) -> tuple:
    """A polynomial per column, cut after its last coefficient above ``_ROUNDING`` of the largest."""
    mags = np.abs(columns)
    polys = []
    for col, mag, cut in zip(columns.T, mags.T, _ROUNDING * mags.max(axis=0, initial=0.0)):
        kept = np.flatnonzero(mag > cut)
        polys.append(Polynomial(col[: kept[-1] + 1] if kept.size else col[:0]))
    return tuple(polys)


def _closure_model(
    shift: NShift, coeffs, tol: ToleranceConfig | None = None
) -> tuple[SubspaceModel, dict]:
    """The model of the cyclic closure ``[f]`` of a polynomial seed, exactly.

    ``S^n f = z^n h`` with ``h`` a polynomial, and ``[f] = span{f, ..., S^{n-1} f}
    (+) z^n theta H^2`` with ``theta`` the Blaschke product of the roots of ``h``
    in the disc (Beurling).  :func:`_frame_model` reads it off the ``S^k f``
    (``k < n``), whose :func:`_tm_frame` coordinates are their coefficients
    for ``m`` past ``2 n``, the block of ``S`` and every ``S^k f``, ``k <= n``.
    The report carries the roots of ``h``, the largest read remainder and
    the read's ``order`` ``m``, at which :func:`_certificate` shares its frame.
    """
    tol = tol or DEFAULT_TOL
    n, nw = shift.n, shift.working_order
    orbit = [TruncatedVector.from_coefficients(coeffs, nw).coeffs]
    for _ in range(n):
        orbit.append(shift.S @ orbit[-1])
    orbit = np.column_stack(orbit)
    rows = np.flatnonzero(np.abs(orbit).max(axis=1))
    if rows.size == 0:
        raise PreconditionError("the seed must be nonzero")
    m = max(2 * n, rows[-1] + 1, shift.S.block_size) + 1
    if m > nw or orbit[-1].any():
        raise TruncationError(f"S^k f, k <= {n}, does not fit working order {nw}")
    roots = Polynomial(orbit[n:, n]).roots()
    theta = BlaschkeProduct(1.0, tuple(roots[np.abs(roots) < 1.0 - _BOUNDARY_MARGIN]))
    model, worst = _frame_model(shift, theta, m, orbit[:m, :n], tol)
    return model, {"h_roots": roots, "read_remainder": worst, "order": m}


def check_cyclic(
    M: Subspace | None,
    model: SubspaceModel,
    shift: NShift,
    tol: ToleranceConfig | None = None,
) -> tuple[bool, dict]:
    """Decide whether the subspace is the cyclic closure of its wandering vector.

    For 1-shifts ``S phi_0 = z p_0 theta``, so ``[phi_0] = C phi_0 (+) z theta
    B H^2`` with ``B`` the Blaschke product of the roots of ``p_0`` in the disc
    (Beurling): the model ``(1, theta B, p_0 / B, q_0)``.  The verdict is the
    outer test on ``p_0``.  The witness angles ``arcsin norm(P_{[phi_0]^perp}
    P_M)`` (forward) and ``arcsin norm(P_{M^perp} P_{[phi_0]})`` (reverse) are
    exact, in the coordinates of ``K_{z theta B}``; ``closure_codimension`` is
    the codimension of ``[phi_0]`` in ``M``.  ``M`` is not consulted.  For
    ``n > 1`` no criterion is available and the operation refuses.
    """
    tol = tol or DEFAULT_TOL
    if model.n != 1 or shift.n != 1:
        raise UnsupportedConfigurationError("cyclicity is only characterized for 1-shifts")
    p0 = model.p[0]
    roots = p0.roots()
    inside = np.abs(roots) < 1.0 - _BOUNDARY_MARGIN
    closure = model
    if inside.any():
        # B = prod (z - a) / (1 - conj(a) z): p_0 / B trades each root a inside for 1 - conj(a) z.
        b = BlaschkeProduct((-1.0) ** inside.sum(), tuple(roots[inside]))
        p_b = Polynomial.from_roots(roots[~inside], p0.coeffs[-1]).multiply(b.denominator())
        theta_b = BlaschkeProduct(model.theta.constant * b.constant, model.theta.zeros + b.zeros)
        closure = SubspaceModel(1, theta_b, (p_b,), model.q)
    # Reach 1 + len p_0 gives the closure the model's m, and theta's zeros lead
    # theta B, so K'_{z^m theta} is the leading coordinate block of K'_{z^m theta B}.
    _, basis, phi, _, closure_perp = _model_space(closure, tol, 1 + p0.coeffs.size)
    m_perp = closure_perp
    if closure is not model:
        _, m_basis, _, _, perp = _model_space(model, tol, 0)
        m_perp = basis[: m_basis.shape[0]].conj().T @ m_basis @ perp
    forward = _arcsin_norm(closure_perp.conj().T @ _split(m_perp, tol.tau_rank)[1])
    reverse = _arcsin_norm(m_perp.conj().T @ basis.conj().T @ phi / np.linalg.norm(phi))
    numeric = max(forward, reverse) < tol.tau_angle
    outer = is_outer_polynomial(p0)
    witness: dict = {
        "forward_max_angle": forward,
        "reverse_max_angle": reverse,
        "closure_codimension": closure_perp.shape[1] - m_perp.shape[1],
        "numeric_cyclic": numeric,
        "outer_polynomial": outer,
        "p0_roots": [complex(r) for r in roots],
        "consistent": outer == numeric,
        "verdict_basis": "outer-test",
    }
    return outer, witness


def _arcsin_norm(a: np.ndarray) -> float:
    return float(np.arcsin(min(1.0, np.linalg.norm(a, 2)))) if a.size else 0.0


def finite_codimension(
    M: Subspace | None,
    model: SubspaceModel,
    tol: ToleranceConfig | None = None,
) -> int:
    """Codimension of the modeled subspace; equals the Blaschke degree.

    It is ``dim M^perp`` for ``M^perp = K (-) span{phi_i}`` inside the model
    space ``K = H^2 (-) z^n theta H^2`` of dimension ``n + deg(theta)``,
    read off the model alone (``M``, the built subspace, is not consulted).
    """
    return _model_space(model, tol or DEFAULT_TOL, 0)[4].shape[1]
