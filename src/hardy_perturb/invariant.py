"""Invariant subspaces of n-shifts: construction, verification, extraction.

A nonzero closed subspace is invariant under an n-shift exactly when it
decomposes as

    span{phi_0, ..., phi_{n-1}}  (+)  z^n theta H^2

with an inner function ``theta``, polynomials ``p_i, q_i`` such that
``phi_i = z^i p_i theta - q_i``, each ``S phi_j`` falling into the span of
the later ``phi``'s plus the tail space, and ``S phi_{n-1} = z^n p_{n-1}
theta``.  This module realizes that decomposition numerically in both
directions and decides cyclicity for 1-shifts.
"""

from __future__ import annotations

from dataclasses import dataclass
import warnings

import numpy as np

from .core import (
    DEFAULT_TOL,
    Subspace,
    ToleranceConfig,
    TruncatedVector,
    band_spread,
    invariance_residual,
    krylov_closure,
    multiplication_by_z_matrix,
    numerical_rank,
    orthonormalize,
    principal_angles,
    subspace_difference,
)
from .errors import (
    ExtractionError,
    ModelInconsistencyError,
    PreconditionError,
    TruncationError,
    UnsupportedConfigurationError,
)
from .inner import (
    BlaschkeProduct,
    Polynomial,
    blaschke_taylor,
    is_inner_numeric,
    is_outer_polynomial,
    rational_inner_from_taylor,
)
from .shifts import NShift

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
        theta = blaschke_taylor(self.theta, working_order).coeffs
        pc = self.p[i].coeffs
        prod = np.convolve(pc, theta)[:working_order] if pc.size else np.zeros(working_order)
        vec = np.zeros(working_order, dtype=np.complex128)
        vec[i:] = prod[: working_order - i]
        qc = self.q[i].coeffs
        vec[: qc.size] -= qc[:working_order]
        return TruncatedVector(vec, working_order)

    def component_scaled(self, i: int, c: complex) -> "SubspaceModel":
        """Rescale the i-th component jointly: phi_i, p_i, q_i all scale by c."""
        p = list(self.p)
        q = list(self.q)
        p[i] = p[i].scale(c)
        q[i] = q[i].scale(c)
        return SubspaceModel(self.n, self.theta, tuple(p), tuple(q))

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "theta": self.theta.to_json(),
            "p": [[[c.real, c.imag] for c in poly.coeffs] for poly in self.p],
            "q": [[[c.real, c.imag] for c in poly.coeffs] for poly in self.q],
        }

    @classmethod
    def from_json(cls, d: dict) -> "SubspaceModel":
        theta = BlaschkeProduct.from_json(d["theta"])
        p = tuple(
            Polynomial(np.array([complex(x[0], x[1]) for x in poly], dtype=np.complex128))
            for poly in d["p"]
        )
        q = tuple(
            Polynomial(np.array([complex(x[0], x[1]) for x in poly], dtype=np.complex128))
            for poly in d["q"]
        )
        return cls(int(d["n"]), theta, p, q)


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


def _shifted_taylor(theta_vec: np.ndarray, k: int) -> np.ndarray:
    """Exact truncation of ``z^k theta``: coefficients shifted, overflow dropped."""
    n = theta_vec.shape[0]
    out = np.zeros(n, dtype=np.complex128)
    if k < n:
        out[k:] = theta_vec[: n - k]
    return out


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
    v_theta = theta.valuation(1e-14)
    cols = [model.phi(i, working_order).coeffs for i in range(n)]
    for k in range(depth + 1):
        cols.append(_shifted_taylor(theta.coeffs, n + k))
    frontier = min(working_order, n + depth + v_theta)
    return np.column_stack(cols), frontier


def default_tail_depth(model: SubspaceModel, working_order: int) -> int:
    """Tail-generator depth leaving a comfortable margin below the boundary."""
    slack = working_order - model.n - max(model.theta.degree, 1)
    return max(4, min(slack - 40, slack - 4))


def verify_model(
    model: SubspaceModel,
    shift: NShift,
    working_order: int,
    tol: ToleranceConfig | None = None,
    depth: int | None = None,
) -> dict:
    """Residuals of the model structure conditions against a given shift.

    Returns relative residuals for: mutual orthogonality of the ``phi_i``,
    orthogonality of each ``phi_i`` to the tail space, the chain inclusions
    ``S phi_j in span{phi_{j+1}..} (+) tail``, and the closing identity
    ``S phi_{n-1} = z^n p_{n-1} theta``.
    """
    tol = tol or DEFAULT_TOL
    n = model.n
    if depth is None:
        depth = default_tail_depth(model, working_order)
    s = shift.S.entries
    theta = blaschke_taylor(model.theta, working_order)
    phis = [model.phi(i, working_order) for i in range(n)]
    norms = [v.norm() for v in phis]
    report: dict = {"depth": depth, "phi_norms": norms}
    report["phi_min_norm"] = min(norms)

    ortho = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            if norms[i] > 0 and norms[j] > 0:
                ip = abs(np.vdot(phis[j].coeffs, phis[i].coeffs))
                ortho = max(ortho, ip / (norms[i] * norms[j]))
    report["phi_orthogonality"] = ortho

    tails = np.column_stack(
        [_shifted_taylor(theta.coeffs, n + k) for k in range(depth + 1)]
    )
    tail_res = 0.0
    for i in range(n):
        if norms[i] > 0:
            overlap = np.abs(tails.conj().T @ phis[i].coeffs).max()
            tail_res = max(tail_res, overlap / norms[i])
    report["phi_vs_tail"] = tail_res

    # Chain: S phi_j must fall into span{phi_{j+1}..} plus the tail space.
    chain = 0.0
    for j in range(n - 1):
        img = s @ phis[j].coeffs
        others = [phis[k].coeffs for k in range(j + 1, n)]
        basis = orthonormalize(np.column_stack(others + [tails]), tol)
        resid = img - basis.basis @ (basis.basis.conj().T @ img)
        frontier = n + depth
        denom = np.linalg.norm(img)
        if denom > 0:
            chain = max(chain, float(np.linalg.norm(resid[:frontier]) / denom))
    report["chain"] = chain

    closing = (
        s @ phis[n - 1].coeffs
        - _shifted_taylor(
            np.convolve(model.p[n - 1].coeffs, theta.coeffs)[:working_order]
            if model.p[n - 1].coeffs.size
            else np.zeros(working_order),
            n,
        )
    )
    guard = working_order - max(band_spread(s)[0], 1) - model.p[n - 1].coeffs.size
    denom = max(np.linalg.norm(s @ phis[n - 1].coeffs), 1e-300)
    report["last_chain"] = float(np.linalg.norm(closing[:guard]) / denom)
    report["max_residual"] = max(ortho, tail_res, chain, report["last_chain"])
    return report


def build_subspace(
    model: SubspaceModel,
    shift: NShift,
    working_order: int,
    tol: ToleranceConfig | None = None,
    depth: int | None = None,
) -> tuple[Subspace, dict]:
    """Orthonormal basis for the subspace a model describes, plus a report.

    The model structure conditions are checked first (raising
    :class:`ModelInconsistencyError` naming the failed condition); the
    report carries the invariance residual of the result under the shift,
    restricted to rows below the generator frontier.
    """
    tol = tol or DEFAULT_TOL
    if model.n != shift.n:
        raise PreconditionError(f"model has n = {model.n}, shift has n = {shift.n}")
    if depth is None:
        depth = default_tail_depth(model, working_order)
    checks = verify_model(model, shift, working_order, tol, depth)
    if checks["phi_min_norm"] <= tol.tau_rank:
        raise ModelInconsistencyError(
            "some phi_i is numerically zero", condition="phi_nonzero"
        )
    for name in ("phi_orthogonality", "phi_vs_tail", "chain", "last_chain"):
        if checks[name] > 1e-6:
            raise ModelInconsistencyError(
                f"model condition {name} has residual {checks[name]:.3e}",
                condition=name,
            )
    gens, frontier = model_generators(model, working_order, depth)
    space = orthonormalize(
        gens, tol, trusted_order=working_order, frontier=frontier,
        invariant_certified=True,
    )
    report = dict(checks)
    report["dimension"] = space.dim
    report["frontier"] = frontier
    report["invariance_residual"] = invariance_residual(space, shift)
    return space, report


def wandering_dimension(
    M: Subspace,
    shift: NShift,
    tol: ToleranceConfig | None = None,
    rows: int | None = None,
) -> int:
    """Dimension of ``M`` minus ``S M``; 1 for every invariant subspace.

    The invariance of ``M`` (restricted below the generator frontier) is a
    precondition, not an outcome: a non-invariant input raises.
    """
    tol = tol or DEFAULT_TOL
    if M.dim == 0:
        raise PreconditionError("subspace must be nonzero")
    if not M.invariant_certified:
        resid = invariance_residual(M, shift, rows=rows)
        if resid > 10 * tol.tau_res:
            raise PreconditionError(
                f"subspace is not invariant at truncation (residual {resid:.3e})"
            )
    return subspace_difference(M, shift, tol).dim


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


def _fit_polynomial_factor(
    target: np.ndarray,
    theta_coeffs: np.ndarray,
    offset: int,
    tol: ToleranceConfig,
    max_degree: int = 24,
) -> tuple[Polynomial, float]:
    """Least-squares fit of ``p`` in ``target = z^offset p theta``.

    Columns are the shifted theta expansions, which are near-orthonormal
    because theta is inner; the residual drop detects the polynomial degree
    without the noise amplification a raw series division suffers when
    ``1/theta`` has poles inside the disc.
    """
    nw = target.shape[0]
    dmax = min(max_degree, max(0, nw - offset - 8))
    rows = min(nw, offset + dmax + max(24, theta_coeffs.shape[0] // 4))
    cols = np.column_stack(
        [_shifted_taylor(theta_coeffs, offset + d)[:rows] for d in range(dmax + 1)]
    )
    t = target[:rows]
    scale = np.linalg.norm(t)
    if scale == 0.0:
        return Polynomial(np.zeros(0)), 0.0
    best: tuple[Polynomial, float] | None = None
    for d in range(dmax + 1):
        sol, *_ = np.linalg.lstsq(cols[:, : d + 1], t, rcond=None)
        resid = float(np.linalg.norm(cols[:, : d + 1] @ sol - t) / scale)
        if best is None or resid < best[1] * 0.9:
            best = (Polynomial(sol), resid)
        if resid < 1e-9:
            return Polynomial(sol), resid
    poly, resid = best
    if resid > 1e-7:
        warnings.warn(
            f"no polynomial factor up to degree {dmax} matches "
            f"(best relative residual {resid:.3e})",
            stacklevel=3,
        )
    return poly, resid


def _vector_to_polynomial(
    vec: TruncatedVector,
    tol: ToleranceConfig,
    label: str,
    cutoff: float | None = None,
) -> tuple[Polynomial, float]:
    """Truncate a trusted coefficient slice to a polynomial, reporting the tail.

    ``cutoff`` overrides the relative significance threshold; extraction
    passes its measured noise floor so noise never masquerades as degree.
    """
    floor = 0.0 if cutoff is None else cutoff
    c = vec.coeffs[: vec.trusted_order].copy()
    scale = float(np.abs(c).max()) if c.size else 0.0
    threshold = max(tol.tau_rank * scale, floor)
    if scale == 0.0 or scale <= threshold:
        return Polynomial(np.zeros(0)), float(np.linalg.norm(c))
    sig = np.flatnonzero(np.abs(c) > threshold)
    degree = int(sig[-1])
    tail = float(np.linalg.norm(c[degree + 1 :]))
    if degree >= vec.trusted_order - 4:
        warnings.warn(
            f"{label} does not truncate to a polynomial inside the trusted "
            f"block (significant coefficients up to index {degree}, "
            f"tail norm {tail:.3e})",
            stacklevel=3,
        )
    return Polynomial(c[: degree + 1]), tail


def extract_model(
    M: Subspace,
    shift: NShift,
    tol: ToleranceConfig | None = None,
) -> SubspaceModel:
    """Recover the classification data of an invariant subspace.

    Peels the wandering vectors ``phi_j`` of the nested images ``S^j M``,
    identifies the plain-shift wandering vector of ``S^n M`` with
    ``z^n theta``, rationalizes ``theta`` into a finite Blaschke product,
    and recovers each ``p_i`` from ``S^{n-i} phi_i = z^n p_i theta`` by a
    least-squares fit against shifted theta expansions (then
    ``q_i = z^i p_i theta - phi_i``).

    The wandering vector at each stage must be one-dimensional; anything
    else signals inadequate truncation or a non-invariant input.  Each
    ``phi_i`` is normalized to unit norm with its first significant
    coefficient positive real; the returned polynomials inherit that
    scaling.
    """
    tol = tol or DEFAULT_TOL
    n = shift.n
    nw = M.working_order
    s = shift.S.entries
    if not M.invariant_certified:
        resid = invariance_residual(M, shift)
        if resid > 10 * tol.tau_res:
            raise PreconditionError(
                f"subspace is not invariant at truncation (residual {resid:.3e})"
            )

    current = M
    phi_dirs = []
    for j in range(n):
        wander = subspace_difference(current, shift, tol)
        if wander.dim != 1:
            raise ExtractionError(
                f"wandering dimension {wander.dim} != 1 while peeling stage {j}; "
                "the truncation is inadequate or the subspace is not invariant"
            )
        phi_dirs.append(_normalize_direction(wander.basis[:, 0], tol))
        # The shift raises every generator valuation by exactly one.
        frontier = None if current.frontier is None else min(nw, current.frontier + 1)
        current = orthonormalize(
            s @ current.basis, tol,
            trusted_order=current.trusted_order, frontier=frontier,
            invariant_certified=current.invariant_certified,
        )

    mz = multiplication_by_z_matrix(nw)
    g = subspace_difference(current, mz, tol)
    if g.dim != 1:
        raise ExtractionError(
            f"image space has plain-shift wandering dimension {g.dim} != 1"
        )
    gvec = g.basis[:, 0]
    if np.abs(gvec[:n]).max(initial=0.0) > 1e-6:
        raise ExtractionError("image wandering vector does not vanish to order n")

    # Coefficients of the wandering vector lose accuracy toward the
    # generator frontier; keep a margin below it for the rational fit.
    theta_trusted = nw - n if current.frontier is None else max(16, current.frontier - n - 8)
    theta_raw = _normalize_direction(gvec[n:], tol)
    theta_vec = TruncatedVector(
        np.pad(theta_raw, (0, n)), min(theta_trusted, nw - n)
    )
    # Fast-fail screen; lags stay inside half the trusted window because the
    # high lags are dominated by the truncated theta tail.  The decisive
    # validation is the rational reconstruction below.
    _, diag = is_inner_numeric(
        theta_vec, tol, max_lag=min(24, theta_vec.trusted_order // 2)
    )
    if diag["max_correlation"] > 1e-3 or diag["norm_defect"] > 1e-3:
        raise ExtractionError(
            f"extracted tail generator fails the inner test: {diag}"
        )
    theta_b = rational_inner_from_taylor(theta_vec, tol)
    theta_exact = blaschke_taylor(theta_b, nw)

    p_list, q_list = [], []
    for i in range(n):
        img = phi_dirs[i]
        for _ in range(n - i):
            img = s @ img
        p_i, p_resid = _fit_polynomial_factor(img, theta_exact.coeffs, n, tol)
        prod = (
            np.convolve(p_i.coeffs, theta_exact.coeffs)[:nw]
            if p_i.coeffs.size
            else np.zeros(nw, dtype=np.complex128)
        )
        q_raw = _shifted_taylor(prod, i) - phi_dirs[i]
        q_i, _ = _vector_to_polynomial(
            TruncatedVector(q_raw, min(theta_vec.trusted_order, 48)), tol, f"q_{i}",
            cutoff=10.0 * p_resid,
        )
        p_list.append(p_i)
        q_list.append(q_i)

    return SubspaceModel(n, theta_b, tuple(p_list), tuple(q_list))


def check_cyclic(
    M: Subspace,
    model: SubspaceModel,
    shift: NShift,
    tol: ToleranceConfig | None = None,
    gap: int = 24,
    empirical: bool = False,
) -> tuple[bool, dict]:
    """Decide whether the subspace is the cyclic closure of its wandering vector.

    For 1-shifts the verdict is the outer test on ``p_0``; the decision is
    cross-validated by staggered-depth principal-angle containments between
    the model subspace and the cyclic closure of ``phi_0``.  For ``n > 1``
    no criterion is available and the operation refuses unless ``empirical``
    is set, in which case only the numeric containment verdict is reported.
    """
    tol = tol or DEFAULT_TOL
    if model.n != 1 and not empirical:
        raise UnsupportedConfigurationError(
            "cyclicity is only characterized for 1-shifts; "
            "pass empirical=True for a numeric-only verdict"
        )
    nw = M.working_order
    s = shift.S.entries
    spread = max(band_spread(s)[0], 1)
    deg_p = max((p.degree for p in model.p), default=0)
    max_depth = (nw - 2) // spread
    k_build = max_depth - gap - max(deg_p, 1)
    if k_build < 2:
        raise TruncationError(
            "working order leaves no room for staggered-depth comparison"
        )
    phi0 = model.phi(0, nw)
    space, _ = build_subspace(model, shift, nw, tol, depth=k_build)
    forward = principal_angles(
        space, krylov_closure(shift, phi0, max_depth, tol)
    )
    reverse = principal_angles(
        krylov_closure(shift, phi0, max(1, k_build - deg_p - 1), tol), space
    )
    numeric = bool(
        forward.size
        and reverse.size
        and forward.max() < tol.tau_angle
        and reverse.max() < tol.tau_angle
    )
    witness: dict = {
        "forward_max_angle": float(forward.max()) if forward.size else None,
        "reverse_max_angle": float(reverse.max()) if reverse.size else None,
        "build_depth": k_build,
        "krylov_depth": max_depth,
        "numeric_cyclic": numeric,
    }
    if empirical and model.n != 1:
        witness["verdict_basis"] = "empirical"
        return numeric, witness
    outer = is_outer_polynomial(model.p[0])
    witness["outer_polynomial"] = outer
    witness["p0_roots"] = [complex(r) for r in model.p[0].roots()]
    witness["consistent"] = outer == numeric
    witness["verdict_basis"] = "outer-test"
    return outer, witness


def finite_codimension(
    M: Subspace,
    model: SubspaceModel,
    tol: ToleranceConfig | None = None,
) -> int:
    """Codimension of the modeled subspace; equals the Blaschke degree.

    The tail space ``z^n theta H^2`` has codimension ``n + deg(theta)`` and
    the ``n`` wandering vectors claw back ``n`` of it.  The model value is
    cross-checked by a saturation count: stacking generators all the way to
    the working boundary leaves exactly ``deg(theta)`` numerically dead
    directions (those singular values decay like ``|zero|^N``), so the count
    must be stable across two block sizes.  An unstable count (zeros too
    close to the circle for this truncation) raises.
    """
    tol = tol or DEFAULT_TOL
    nw = M.working_order
    expected = model.theta.degree
    counts = []
    for rows in (nw, nw - 16):
        if rows < model.n + expected + 8:
            raise TruncationError("working order too small for a codimension count")
        gens, _ = model_generators(model, rows, rows - model.n - 1)
        counts.append(rows - numerical_rank(gens, tol))
    if counts[0] != counts[1] or counts[0] != expected:
        raise TruncationError(
            f"codimension not resolved at this truncation "
            f"(counts {counts}, Blaschke degree {expected}); zeros too close "
            "to the circle need a larger working order"
        )
    return counts[0]
