"""Dense N x N reference implementations of the operator-algebra layers.

These are the straightforward constructions on full truncated matrices:
triangular solves of order N, N x N products and a full SVD.  The library
builds the same objects as "lower Toeplitz + finite block"; the
differential tests compare the two.  The operator oracles take and return
plain arrays; ``window`` reads an operator's leading part from its block and
symbol.

``extract_model`` is the range side's orthogonal peel on N-row subspaces: each
stage is split under the dense ``S`` and ``S M_j`` is re-orthonormalized at N
rows, and ``p_i`` and ``q_i`` are fitted by least squares against shifted theta
expansions (``_fit_polynomial_factor``, ``_vector_to_polynomial``); the library
peels in coordinates of the input basis, or reads a certified generator stack
exactly, and reads ``p_i`` and ``q_i`` by exact division on every path.
``build_subspace`` builds the deep generator stacks this peel needs, at
``default_tail_depth``.

The model-side oracles (``verify_model``, ``finite_codimension``,
``hyperinvariance_check``, ``check_cyclic``) check a subspace model on
depth-truncated generator stacks and Krylov closures of N rows, where the
library works on the finite model space ``H^2 (-) z^n theta H^2``; they take
the library's model, shift and subspace types.  The ``taylor_*`` oracles
compute the same model-side verdicts on that space with every vector expanded
in Taylor coefficients to a length set by theta's zeros, where the library uses
closed-form Takenaka-Malmquist coordinates.

``model_generators`` stacks the generators one column at a time, each ``phi_i``
from its own Taylor series of theta, and ``lift`` compresses an operator to
those coordinates through the window of a Toeplitz operator built for it; the
library fills one array from one series and copies no symbol for that window.

``member_by_member`` and ``hyperinvariance_member_by_member`` build commutant
members one at a time, each with its own window solve, commutator, lift and
escape; the library builds the members of one kernel together, as a stack.
"""

import warnings

import numpy as np
import scipy.linalg

from hardy_perturb import (
    DEFAULT_TOL, BlaschkeProduct, OperatorMatrix, Polynomial, SubspaceModel, TruncatedVector,
    blaschke_taylor, commutant,
)
from hardy_perturb.core import (
    invariance_residual, krylov_closure, numerical_rank, orthonormalize, principal_angles,
    subspace_difference,
)
from hardy_perturb.errors import (
    ExtractionError, PreconditionError, TruncationError, UnsupportedConfigurationError,
)
from hardy_perturb.inner import (
    _BOUNDARY_MARGIN, is_inner_numeric, is_outer_polynomial, rational_inner_from_taylor,
)
from hardy_perturb.invariant import _model_space, _normalize_direction, _split
from hardy_perturb.shifts import f_basis_matrix


def band_spread(a, rel_tol=1e-12):
    """``(below, above)``: the largest ``i - j`` and ``j - i`` over significant entries."""
    mags = np.abs(a)
    top = mags.max() if mags.size else 0.0
    if top == 0.0:
        return 0, 0
    rows, cols = np.nonzero(mags > rel_tol * top)
    if rows.size == 0:
        return 0, 0
    return int(max(0, (rows - cols).max())), int(max(0, (cols - rows).max()))


def window(block, symbol, rows, cols):
    """Leading ``rows`` x ``cols`` part of "lower Toeplitz + block": one index write per diagonal."""
    out = np.zeros((rows, cols), dtype=np.complex128)
    for d, c in enumerate(symbol[:rows]):
        i = np.arange(d, min(rows, cols + d))
        out[i, i - d] = c
    k = block.shape[0]
    out[: min(rows, k), : min(cols, k)] = block[:rows, :cols]
    return out


def shift_matrix(nw):
    m = np.zeros((nw, nw), dtype=np.complex128)
    idx = np.arange(nw - 1)
    m[idx + 1, idx] = 1.0
    return m


def f_basis(kernel, nw):
    g = np.zeros((nw, nw), dtype=np.complex128)
    for m in range(nw):
        g[m, m] = kernel.a_at(m)
        if m + 1 < nw:
            g[m + 1, m] = kernel.b_at(m)
    return g


def toeplitz(coeffs, nw):
    col = np.zeros(nw, dtype=np.complex128)
    c = np.asarray(coeffs, dtype=np.complex128)
    col[: min(c.size, nw)] = c[:nw]
    row = np.zeros(nw, dtype=np.complex128)
    row[0] = col[0]
    return scipy.linalg.toeplitz(col, row)


def monomial_in_f_basis(kernel, m, nw):
    """Expansion of ``z^m`` in the f-basis, in closed form for kernels with ``a == 1``.

    The coefficient of ``f_{m+t}`` is ``(-1)^t * prod_{j<t} b_{m+j}``; the
    products vanish once they pick up a ``b`` index at or beyond ``n``, so
    the sum is finite.
    """
    if not all(x == 1.0 for x in kernel.a):
        raise UnsupportedConfigurationError("closed-form expansion assumes a == 1")
    if m < 0:
        raise ValueError("m must be nonnegative")
    out = np.zeros(nw, dtype=np.complex128)
    prod = 1.0 + 0.0j
    for t in range(nw - m):
        out[m + t] = (-1) ** t * prod
        prod *= kernel.b_at(m + t)
        if prod == 0:
            break
    return out


def shift_from_kernel(kernel, nw):
    """``(S, F)`` from the order-N change-of-basis solve."""
    g = f_basis(kernel, nw)
    s = scipy.linalg.solve_triangular(g, shift_matrix(nw) @ g, lower=True)
    s[np.abs(s) < 1e-14 * max(1.0, float(np.abs(s).max()))] = 0.0
    return s, s - shift_matrix(nw)


def commutant_element(coeffs, kernel, nw):
    """``(X, T, N)`` for the polynomial symbol with the given coefficients."""
    g = f_basis(kernel, nw)
    t = toeplitz(coeffs, nw)
    x = scipy.linalg.solve_triangular(g, t @ g, lower=True)
    x[np.abs(x) < 1e-14 * max(1.0, float(np.abs(x).max()))] = 0.0
    return x, t, x - t


def verify_commutation(x, s):
    nw = s.shape[0]
    guard = max(band_spread(x)[0], band_spread(s)[0], 1) + 1
    comm = x @ s - s @ x
    r = nw - guard
    return float(np.abs(comm[:r, :r]).max()) if r > 0 else 0.0


def verify_power_identities(s, n, m_max, tau_res=1e-8, seed=0):
    nw = s.shape[0]
    below, _ = band_spread(s)
    if m_max * max(below, 1) >= nw - 2:
        raise TruncationError("m_max too large for the working order")
    mz = shift_matrix(nw)
    rng = np.random.default_rng(seed)
    fvec = rng.standard_normal(nw) + 1j * rng.standard_normal(nw)
    fvec /= np.linalg.norm(fvec)
    s_powers = [np.eye(nw, dtype=np.complex128)]
    for _ in range(m_max):
        s_powers.append(s @ s_powers[-1])
    mz_powers = [np.eye(nw, dtype=np.complex128)]
    for _ in range(m_max + n):
        mz_powers.append(mz @ mz_powers[-1])
    checks = []
    guard = nw - m_max * max(below, 1) - 1
    for m in range(1, m_max + 1):
        row = {"m": m}
        img = s_powers[m] @ fvec
        row["low_rows"] = float(np.abs(img[:m]).max())
        if m >= n + 1:
            row["factor"] = float(np.abs(s_powers[m] - mz_powers[m - n] @ s_powers[n]).max())
        row["commute"] = float(np.abs(mz_powers[m + n] - s_powers[m] @ mz_powers[n]).max())
        p = (img[m:] - fvec[: nw - m])[:guard]
        mags = np.abs(p)
        sig = np.nonzero(mags > tau_res * max(1.0, mags.max(initial=0.0)))[0]
        row["p_degree"] = int(sig.max()) if sig.size else -1
        checks.append(row)
    worst = {
        "low_rows": max(c["low_rows"] for c in checks),
        "factor": max((c.get("factor", 0.0) for c in checks), default=0.0),
        "commute": max(c["commute"] for c in checks),
    }
    return {"checks": checks, "worst": worst,
            "passed": all(v < 1e-12 for v in worst.values())}


def self_commutator(s, tau_rank=1e-8, tau_res=1e-8, outside_cut=1e-12):
    """Masked ``S*S - SS*`` on the whole truncation and its verdicts."""
    nw = s.shape[0]
    comm = s.conj().T @ s - s @ s.conj().T
    comm[nw - 1, nw - 1] += 1.0
    mags = np.abs(comm)
    hits = np.nonzero(mags > outside_cut)
    k = int(max(hits[0].max(), hits[1].max())) + 1 if hits[0].size else 1
    block = comm[:k, :k].copy()
    outside = mags.copy()
    outside[:k, :k] = 0.0
    sv = np.linalg.svd(comm, compute_uv=False)
    rank = int(np.count_nonzero(sv > tau_rank * sv[0])) if sv[0] > 0 else 0
    min_eig = float(np.linalg.eigvalsh((block + block.conj().T) / 2.0)[0])
    return {
        "block": block,
        "block_size": k,
        "rank": rank,
        "essentially_normal": bool(outside.max() < outside_cut),
        "hyponormal": bool(min_eig >= -tau_res),
    }


def default_tail_depth(model, nw):
    """The oracles' tail-generator depth: a third of the span the working order leaves.

    The orthogonal extraction reads theta from a window of about ``depth - 8``
    coefficients, which must hold theta's mass (the inner-test screen wants
    ``r**(2 window) <= 1e-3`` for the largest zero modulus ``r``); the slack
    ``N - frontier`` must keep the truncation leak under the rank cut
    (``r**(2 slack) <= tau_rank = 1e-8``).  Both fail at the same ``r`` when
    window : slack is about 3 : 8, a depth of about 0.27 (N - n - deg theta);
    a third of that span is within the measured optimum.
    """
    slack = nw - model.n - max(model.theta.degree, 1)
    return max(4, min((nw - model.n - model.theta.degree) // 3, slack - 40))


def model_generators(model, nw, depth):
    """``[phi_0..phi_{n-1}, z^n theta, .., z^{n+depth} theta]`` one column at a time,
    each ``phi_i`` from its own Taylor series of theta, and the frontier."""
    cols = []
    for i in range(model.n):
        series = blaschke_taylor(model.theta, nw).coeffs
        pc, qc = model.p[i].coeffs, model.q[i].coeffs
        prod = np.convolve(pc, series)[:nw] if pc.size else np.zeros(nw)
        vec = np.zeros(nw, dtype=np.complex128)
        vec[i:] = prod[: nw - i]
        vec[: qc.size] -= qc[:nw]
        cols.append(vec)
    theta = blaschke_taylor(model.theta, nw)
    cols += [_shifted_taylor(theta.coeffs, model.n + k) for k in range(depth + 1)]
    return np.column_stack(cols), min(nw, model.n + depth + theta.valuation(1e-14))


def lift(op, a):
    """``P_{K'} op`` on ``K'``: the symbol at ``a`` by Horner, plus the block's
    departure from the window of a Toeplitz operator built for it."""
    out = np.zeros_like(a)
    for coeff in op.symbol[::-1]:
        out = out @ a + coeff * np.eye(len(a))
    k = op.block_size
    out[:k, :k] += op.block - OperatorMatrix.toeplitz(op.symbol, k).window(k)
    return out


def escape(perp, compressed):
    """How far ``op*`` moves ``M^perp`` out of itself: ``norm((I - P_M) op P_M)``."""
    moved = compressed.conj().T @ perp
    moved -= perp @ (perp.conj().T @ moved)
    return float(np.linalg.norm(moved, 2)) if moved.size else 0.0


def relabeled_window(kernel, symbol, width, nw):
    """``G^{-1} T G`` on the leading ``width`` window, one member at a time.

    The library's former per-member relabeling: one ``ztrtrs`` call per
    window, structural zeros snapped, Toeplitz outside the window.
    """
    t = OperatorMatrix.toeplitz(symbol, nw)
    g = f_basis_matrix(kernel, width)
    x = np.ascontiguousarray(scipy.linalg.lapack.ztrtrs(g, t.window(width) @ g, lower=1)[0])
    scale = max(1.0, t.max_abs(), float(np.abs(x).max()))
    x[np.abs(x) < 1e-14 * scale] = 0.0
    return OperatorMatrix(x, t.symbol, nw)


def member_by_member(symbol, kernel, nw, shift, tol=DEFAULT_TOL):
    """``(X, T, N, commutation residual)`` of one commutant member, built on its own.

    The library's former ``commutant_element``: its own window solve, its own
    ``X S - S X`` through :func:`verify_commutation`.
    """
    x = relabeled_window(kernel, symbol.coeffs, kernel.n + symbol.degree + 2, nw)
    t = OperatorMatrix.toeplitz(x.symbol, nw)
    n_op = OperatorMatrix(x.block - t.window(x.block_size), size=nw)
    return x, t, n_op, commutant.verify_commutation(x, shift, tol)


def hyperinvariance_member_by_member(model, shift, kernel, trials, tol=DEFAULT_TOL, seed=0,
                                     max_degree=8):
    """Largest escape of ``M^perp`` on the model space, lifting one member at a time."""
    a, basis, _, _, perp = _model_space(model, tol, kernel.n + max_degree + 2)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        symbol = commutant._random_symbol(rng, max_degree)
        x = lift(member_by_member(symbol, kernel, shift.working_order, shift, tol)[0], a)
        worst = max(worst, escape(perp, basis.conj().T @ x @ basis))
    return worst


def build_subspace(model, nw, tol=DEFAULT_TOL):
    """The model's generator stack at the oracles' depth, certified as a library build is."""
    gens, frontier = model_generators(model, nw, default_tail_depth(model, nw))
    return orthonormalize(gens, tol, frontier=frontier, invariant_certified=True)


def verify_model(model, shift, nw, tol=DEFAULT_TOL, depth=None):
    """Model condition residuals on a tail stack ``z^n theta .. z^{n+depth} theta``."""
    n = model.n
    if depth is None:
        depth = default_tail_depth(model, nw)
    s = shift.S.entries
    theta = blaschke_taylor(model.theta, nw)
    phis = [model.phi(i, nw).coeffs for i in range(n)]
    norms = [float(np.linalg.norm(v)) for v in phis]
    report = {"phi_min_norm": min(norms)}
    ortho = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            if norms[i] > 0 and norms[j] > 0:
                ortho = max(ortho, abs(np.vdot(phis[j], phis[i])) / (norms[i] * norms[j]))
    report["phi_orthogonality"] = ortho
    tails = np.column_stack([_shifted_taylor(theta.coeffs, n + k) for k in range(depth + 1)])
    report["phi_vs_tail"] = max(
        (np.abs(tails.conj().T @ phis[i]).max() / norms[i] for i in range(n) if norms[i] > 0),
        default=0.0,
    )
    chain = 0.0
    for j in range(n - 1):
        img = s @ phis[j]
        basis = orthonormalize(np.column_stack(phis[j + 1:] + [tails]), tol).basis
        resid = img - basis @ (basis.conj().T @ img)
        denom = np.linalg.norm(img)
        if denom > 0:
            chain = max(chain, float(np.linalg.norm(resid[: n + depth]) / denom))
    report["chain"] = chain
    p_last = model.p[n - 1].coeffs
    prod = np.convolve(p_last, theta.coeffs)[:nw] if p_last.size else np.zeros(nw)
    closing = s @ phis[n - 1] - _shifted_taylor(prod, n)
    guard = nw - max(band_spread(s)[0], 1) - p_last.size
    denom = max(np.linalg.norm(s @ phis[n - 1]), 1e-300)
    report["last_chain"] = float(np.linalg.norm(closing[:guard]) / denom)
    report["max_residual"] = max(report["phi_orthogonality"], report["phi_vs_tail"],
                                 report["chain"], report["last_chain"])
    return report


def _shifted_taylor(theta_vec, k):
    """Exact truncation of ``z^k theta``: coefficients shifted, overflow dropped."""
    n = theta_vec.shape[0]
    out = np.zeros(n, dtype=np.complex128)
    if k < n:
        out[k:] = theta_vec[: n - k]
    return out


def _fit_polynomial_factor(target, theta_coeffs, offset, tol, max_degree=24):
    """Least-squares fit of ``p`` in ``target = z^offset p theta``, and its residual.

    Columns are the shifted theta expansions, near-orthonormal because theta is
    inner; the fit stops at relative residual 1e-9, a higher degree replaces the
    best only below 0.9 of its residual, and a best residual above 1e-7 warns.
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
    best = None
    for d in range(dmax + 1):
        sol, *_ = np.linalg.lstsq(cols[:, : d + 1], t, rcond=None)
        resid = float(np.linalg.norm(cols[:, : d + 1] @ sol - t) / scale)
        if best is None or resid < best[1] * 0.9:
            best = (Polynomial(sol), resid)
        if resid < 1e-9:
            return Polynomial(sol), resid
    poly, resid = best
    if resid > 1e-7:
        warnings.warn(f"no polynomial factor up to degree {dmax} matches "
                      f"(best relative residual {resid:.3e})", stacklevel=3)
    return poly, resid


def _vector_to_polynomial(vec, tol, label, cutoff=None):
    """Truncate a coefficient slice to a polynomial, reporting the tail.

    ``cutoff`` overrides the relative significance threshold; extraction
    passes its measured noise floor so noise never masquerades as degree.
    """
    floor = 0.0 if cutoff is None else cutoff
    c = vec.coeffs.copy()
    scale = float(np.abs(c).max()) if c.size else 0.0
    threshold = max(tol.tau_rank * scale, floor)
    if scale == 0.0 or scale <= threshold:
        return Polynomial(np.zeros(0)), float(np.linalg.norm(c))
    sig = np.flatnonzero(np.abs(c) > threshold)
    degree = int(sig[-1])
    tail = float(np.linalg.norm(c[degree + 1 :]))
    if degree >= vec.working_order - 4:
        warnings.warn(f"{label} does not truncate to a polynomial inside the coefficient "
                      f"window (significant coefficients up to index {degree}, "
                      f"tail norm {tail:.3e})", stacklevel=3)
    return Polynomial(c[: degree + 1]), tail


def extract_model(M, shift, tol=DEFAULT_TOL):
    """The model of an invariant subspace, peeled on N-row subspaces.

    Stage ``j`` splits ``M_j`` under the dense ``S`` and re-orthonormalizes
    ``S M_j`` at N rows, one row of frontier further each time; ``S^n M`` is
    split under the dense ``M_z`` and theta is read up to 8 coefficients below
    its frontier.  Theta is rationalized as the library does; ``p_i`` and ``q_i``
    are fitted by least squares.
    """
    n, nw = shift.n, M.working_order
    s = shift.S.entries
    if not M.invariant_certified and invariance_residual(M, s) > 10 * tol.tau_res:
        raise PreconditionError("subspace is not invariant at truncation")
    current, phis = M, []
    for j in range(n):
        wander = subspace_difference(current, s, tol)
        if wander.dim == 0 and M.invariant_certified:
            raise TruncationError(f"no wandering vector at stage {j}")
        if wander.dim != 1:
            raise ExtractionError(f"wandering dimension {wander.dim} != 1 at stage {j}")
        phis.append(_normalize_direction(wander.basis[:, 0], tol))
        frontier = None if current.frontier is None else min(nw, current.frontier + 1)
        current = orthonormalize(s @ current.basis, tol, frontier=frontier,
                                 invariant_certified=M.invariant_certified)
    g = subspace_difference(current, shift_matrix(nw), tol)
    if g.dim != 1:
        raise ExtractionError(f"plain-shift wandering dimension {g.dim} != 1")
    if np.abs(g.basis[:n, 0]).max(initial=0.0) > 1e-6:
        raise ExtractionError("image wandering vector does not vanish to order n")
    window = nw - n if current.frontier is None else max(16, current.frontier - n - 8)
    theta_vec = TruncatedVector(_normalize_direction(g.basis[n:, 0], tol)[:window])
    _, diag = is_inner_numeric(theta_vec, tol, max_lag=min(24, theta_vec.working_order // 2))
    if diag["max_correlation"] > 1e-3 or diag["norm_defect"] > 1e-3:
        raise ExtractionError("extracted tail generator fails the inner test")
    theta = rational_inner_from_taylor(theta_vec, tol)
    exact = blaschke_taylor(theta, nw).coeffs
    p, q = [], []
    for i in range(n):
        img = phis[i]
        for _ in range(n - i):
            img = s @ img
        p_i, resid = _fit_polynomial_factor(img, exact, n, tol)
        prod = np.convolve(p_i.coeffs, exact)[:nw] if p_i.coeffs.size else np.zeros(nw)
        q_raw = _shifted_taylor(prod, i) - phis[i]
        q_i, _ = _vector_to_polynomial(TruncatedVector(q_raw[: min(theta_vec.working_order, 48)]),
                                       tol, f"q_{i}", cutoff=10.0 * resid)
        p.append(p_i)
        q.append(q_i)
    return SubspaceModel(n, theta, tuple(p), tuple(q))


def finite_codimension(model, nw, tol=DEFAULT_TOL):
    """Saturation count: generator stacks to the boundary at two block sizes."""
    expected = model.theta.degree
    counts = []
    for rows in (nw, nw - 16):
        if rows < model.n + expected + 8:
            raise TruncationError("working order too small for a codimension count")
        gens, _ = model_generators(model, rows, rows - model.n - 1)
        counts.append(rows - numerical_rank(gens, tol))
    if counts[0] != counts[1] or counts[0] != expected:
        raise TruncationError(f"codimension not resolved (counts {counts})")
    return counts[0]


def hyperinvariance_check(space, shift, kernel, trials, tol=DEFAULT_TOL, seed=0,
                          max_degree=8):
    """Largest escape ``norm((I - P) X P)`` of the built subspace under sampled ``X``."""
    if not space.invariant_certified:
        resid = invariance_residual(space, shift)
        if resid > 10 * tol.tau_res:
            raise PreconditionError(f"subspace is not invariant (residual {resid:.3e})")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        symbol = commutant._random_symbol(rng, max_degree)
        element = commutant.commutant_element(symbol, kernel, space.working_order, tol, shift)
        worst = max(worst, invariance_residual(space, element.X.entries))
    return {"max_residual": worst, "passed": worst < tol.tau_res}


# Slack between the Krylov depth and the generator depth of the cyclicity witness.
CYCLIC_GAP = 24


def check_cyclic(model, shift, tol=DEFAULT_TOL):
    """Outer test on ``p_0`` against staggered-depth principal angles.

    The model's generator stack is compared with Krylov closures of
    ``phi_0`` a little deeper (forward) and a little shallower (reverse).
    """
    nw = shift.working_order
    spread = max(band_spread(shift.S.entries)[0], 1)
    deg_p = model.p[0].degree
    max_depth = (nw - 2) // spread
    k_build = max_depth - CYCLIC_GAP - max(deg_p, 1)
    if k_build < 2:
        raise TruncationError("working order leaves no room for staggered-depth comparison")
    phi0 = model.phi(0, nw)
    gens, frontier = model_generators(model, nw, k_build)
    space = orthonormalize(gens, tol, frontier=frontier, invariant_certified=True)
    forward = principal_angles(space, krylov_closure(shift, phi0, max_depth, tol))
    reverse = principal_angles(
        krylov_closure(shift, phi0, max(1, k_build - deg_p - 1), tol), space
    )
    numeric = bool(forward.size and reverse.size
                   and max(forward.max(), reverse.max()) < tol.tau_angle)
    outer = is_outer_polynomial(model.p[0])
    return outer, {
        "forward_max_angle": float(forward.max()) if forward.size else None,
        "reverse_max_angle": float(reverse.max()) if reverse.size else None,
        "numeric_cyclic": numeric,
        "consistent": outer == numeric,
    }


# ------------------------------------------------ Taylor-expanded model space --
# The model-side verdicts on K = H^2 (-) z^n theta H^2 with every vector expanded
# in Taylor coefficients, up to a length L at which the largest zero modulus to
# the power of the extra rows falls below TAYLOR_TAIL.  L grows like
# 1 / (1 - max|zero|), so these oracles are for zeros up to about 0.98.

TAYLOR_TAIL = 1e-17


def taylor_model_space(model, tol, reach):
    """``(E, phi, closing, perp)`` on ``L`` Taylor rows: one banded solve.

    ``E``: orthonormal basis of ``K`` (``1..z^{n-1}``, then ``z^n`` times the
    Takenaka-Malmquist basis of ``K_theta``); ``phi``: the model vectors;
    ``closing``: ``z^n p_{n-1} theta``; ``perp``: orthonormal basis of
    ``K (-) span{phi_i}`` in ``E`` coordinates.  All columns are rational
    over theta's denominator.
    """
    n, zeros, d = model.n, model.theta.zeros, model.theta.degree
    top = max(map(abs, zeros), default=0.0)
    length = n + d + max(c.coeffs.size for c in model.p + model.q) + reach
    length += int(np.ceil(np.log(TAYLOR_TAIL) / np.log(top))) if top > 0.0 else 0
    num, den = model.theta.numerator(), model.theta.denominator()
    rhs = np.zeros((length, d + n + 1), dtype=np.complex128)
    for j, a in enumerate(zeros):
        tm = Polynomial.from_roots(zeros[:j]).multiply(
            BlaschkeProduct(1.0, zeros[j + 1:]).denominator()
        ).coeffs
        rhs[n: n + tm.size, j] = np.sqrt(1.0 - abs(a) ** 2) * tm
    for i, (p, q) in enumerate(zip(model.p, model.q)):
        head, low = p.multiply(num).coeffs, q.multiply(den).coeffs
        rhs[i: i + head.size, d + i] = head
        rhs[: low.size, d + i] -= low
    closing = model.p[n - 1].multiply(num).coeffs
    rhs[n: n + closing.size, -1] = closing
    banded = np.array([np.pad(np.full(length - k, c), (0, k)) for k, c in enumerate(den.coeffs)])
    cols = scipy.linalg.solve_banded((len(banded) - 1, 0), banded, rhs)
    basis = np.eye(length, n + d, dtype=np.complex128)
    basis[:, n:] = cols[:, :d]
    phi = cols[:, d: d + n]
    norms = np.linalg.norm(phi, axis=0)
    _, perp = _split(basis.conj().T @ phi / np.where(norms > 0.0, norms, 1.0), tol.tau_rank)
    return basis, phi, cols[:, -1], perp


def _taylor_compress(basis, op):
    """``E* op E`` with ``op`` applied as a "symbol + block" operator of order ``L``."""
    op = OperatorMatrix(op.block, op.symbol, basis.shape[0])
    return basis.conj().T @ np.column_stack([op @ col for col in basis.T])


def taylor_verify_model(model, shift, tol=DEFAULT_TOL):
    """The condition residuals and the ``S*`` escape of ``M^perp`` on ``L`` rows."""
    basis, phi, closing, perp = taylor_model_space(model, tol, shift.S.block_size)
    s = OperatorMatrix(shift.S.block, shift.S.symbol, basis.shape[0])
    coords = basis.conj().T @ phi
    norms = np.linalg.norm(phi, axis=0)
    unit = np.where(norms > 0.0, norms, 1.0)
    gram = np.abs(phi.conj().T @ phi) / np.outer(unit, unit)
    s_phi = np.column_stack([s @ col for col in phi.T])
    s_norms = np.maximum(np.linalg.norm(s_phi, axis=0), 1e-300)
    compressed = _taylor_compress(basis, shift.S)
    images = compressed @ coords
    chain = 0.0
    for j in range(model.n - 1):
        later, _ = _split(coords[:, j + 1:], tol.tau_rank)
        resid = images[:, j] - later @ (later.conj().T @ images[:, j])
        chain = max(chain, float(np.linalg.norm(resid) / s_norms[j]))
    report = {
        "phi_orthogonality": float(np.triu(gram, 1).max()),
        "phi_vs_tail": float((np.linalg.norm(phi - basis @ coords, axis=0) / unit).max()),
        "chain": chain,
        "last_chain": float(np.linalg.norm(s_phi[:, -1] - closing) / s_norms[-1]),
        "invariance_residual": escape(perp, compressed),
    }
    report["max_residual"] = max(v for k, v in report.items() if k != "invariance_residual")
    return report


def taylor_codimension(model, tol=DEFAULT_TOL):
    """``dim M^perp`` on ``L`` rows."""
    return taylor_model_space(model, tol, 0)[3].shape[1]


def taylor_hyperinvariance_check(model, shift, kernel, trials, tol=DEFAULT_TOL, seed=0,
                                 max_degree=8):
    """Largest escape of ``M^perp`` under the adjoints of sampled commutant members."""
    basis, _, _, perp = taylor_model_space(model, tol, kernel.n + max_degree + 2)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        symbol = commutant._random_symbol(rng, max_degree)
        x = commutant.commutant_element(symbol, kernel, shift.working_order, tol, shift).X
        worst = max(worst, escape(perp, _taylor_compress(basis, x)))
    return {"max_residual": worst, "passed": worst < tol.tau_res}


def taylor_check_cyclic(model, tol=DEFAULT_TOL):
    """Outer test on ``p_0`` and the exact witness angles in ``K_{z theta B}`` on ``L`` rows."""
    p0 = model.p[0]
    roots = p0.roots()
    inside = np.abs(roots) < 1.0 - _BOUNDARY_MARGIN
    closure = model
    if inside.any():
        b = BlaschkeProduct((-1.0) ** inside.sum(), tuple(roots[inside]))
        p_b = Polynomial.from_roots(roots[~inside], p0.coeffs[-1]).multiply(b.denominator())
        theta_b = BlaschkeProduct(model.theta.constant * b.constant, model.theta.zeros + b.zeros)
        closure = SubspaceModel(1, theta_b, (p_b,), model.q)
    basis, phi, _, closure_perp = taylor_model_space(closure, tol, 0)
    perp = closure_perp if closure is model else taylor_model_space(model, tol, 0)[3]
    # K_{z theta} is spanned by the first 1 + deg theta basis vectors of K_{z theta B}.
    m_perp = np.zeros((basis.shape[1], perp.shape[1]), dtype=np.complex128)
    m_perp[: perp.shape[0]] = perp
    forward = _split(m_perp, tol.tau_rank)[1]
    forward = closure_perp.conj().T @ forward
    reverse = m_perp.conj().T @ basis.conj().T @ phi / np.linalg.norm(phi)
    angles = [float(np.arcsin(min(1.0, np.linalg.norm(a, 2)))) if a.size else 0.0
              for a in (forward, reverse)]
    numeric = max(angles) < tol.tau_angle
    outer = is_outer_polynomial(p0)
    return outer, {"forward_max_angle": angles[0], "reverse_max_angle": angles[1],
                   "closure_codimension": closure_perp.shape[1] - perp.shape[1],
                   "numeric_cyclic": numeric, "consistent": outer == numeric}
