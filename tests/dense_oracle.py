"""Dense N x N reference implementations of the operator-algebra layers.

These are the straightforward constructions on full truncated matrices:
triangular solves of order N, N x N products and a full SVD.  The library
builds the same objects as "lower Toeplitz + finite block"; the
differential tests compare the two.  Everything here takes and returns
plain arrays.
"""

import numpy as np
import scipy.linalg

from hardy_perturb.errors import TruncationError


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
