"""Truncated Hardy-space linear algebra.

Functions on the truncated space work with plain complex ``numpy`` arrays
wrapped in three small value types:

* :class:`TruncatedVector` holds the monomial coefficients of a function up
  to a working order.  Shifts and their commutant members are lower
  triangular (an n-shift never lowers degree), so truncating them loses
  nothing below the working order; how far a generator stack reaches is
  its subspace's ``frontier``.
* :class:`OperatorMatrix` holds an operator in the monomial basis (column
  ``m`` is the image of ``z**m``) as a lower Toeplitz symbol plus a finite
  leading block; ``entries``, its dense matrix, is built anew on each read
  and kept nowhere.
* :class:`Subspace` holds an orthonormal basis of a finite-dimensional
  approximation of a closed subspace.

All types are immutable after construction and all operations are pure
functions, so everything here is safe to evaluate concurrently.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, TruncationError

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "TruncatedVector",
    "OperatorMatrix",
    "Subspace",
    "band_spread",
    "invariance_residual",
    "krylov_closure",
    "multiplication_by_z_matrix",
    "numerical_rank",
    "orthonormalize",
    "principal_angles",
    "rank_report",
    "subspace_difference",
]


@dataclass(frozen=True)
class ToleranceConfig:
    """Numerical thresholds shared by every rank/residual decision.

    Attributes
    ----------
    tau_rank : float
        Relative singular-value cutoff for rank decisions.
    tau_res : float
        Residual threshold for membership and invariance tests.
    tau_angle : float
        Principal-angle threshold for subspace equality.
    """

    tau_rank: float = 1e-8
    tau_res: float = 1e-8
    tau_angle: float = 1e-6

    def __post_init__(self):
        for name in ("tau_rank", "tau_res", "tau_angle"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be strictly positive")
        if self.tau_rank >= 1.0:
            raise ValueError("tau_rank must be < 1")

    def to_dict(self) -> dict:
        return {
            "tau_rank": self.tau_rank,
            "tau_res": self.tau_res,
            "tau_angle": self.tau_angle,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ToleranceConfig":
        known = {k: float(v) for k, v in d.items()}
        return cls(**known)


DEFAULT_TOL = ToleranceConfig()

# Largest entry of ``B* B - I`` a Subspace basis ``B`` may carry.
_ORTHONORMALITY_LIMIT = 1e-7


def _sealed(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself, checked finite and made read-only."""
    if not np.isfinite(arr).all():
        raise ValueError("entries must be finite")
    arr.setflags(write=False)
    return arr


def _frozen_array(a) -> np.ndarray:
    return _sealed(np.array(a, dtype=np.complex128, copy=True, order="C"))


@dataclass(frozen=True)
class TruncatedVector:
    """A Hardy-space element as monomial coefficients up to a working order.

    ``coeffs[j]`` is the coefficient of ``z**j``.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = _frozen_array(self.coeffs)
        if arr.ndim != 1:
            raise DimensionMismatchError("coefficients must form a 1-d array")
        object.__setattr__(self, "coeffs", arr)

    @property
    def working_order(self) -> int:
        return self.coeffs.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def valuation(self, cutoff: float = 0.0) -> int:
        """Index of the first coefficient with magnitude above ``cutoff``.

        Returns ``working_order`` for the (numerically) zero vector.
        """
        idx = np.flatnonzero(np.abs(self.coeffs) > cutoff)
        return int(idx[0]) if idx.size else self.working_order

    @classmethod
    def from_coefficients(
        cls,
        coeffs: Sequence[complex],
        working_order: int,
    ) -> "TruncatedVector":
        """Build a vector from a (possibly shorter) coefficient sequence.

        The sequence is zero-padded to ``working_order``; anything beyond is
        an error.
        """
        c = np.asarray(coeffs, dtype=np.complex128)
        if c.shape[0] > working_order:
            raise DimensionMismatchError(
                f"{c.shape[0]} coefficients exceed working order {working_order}"
            )
        full = np.zeros(working_order, dtype=np.complex128)
        full[: c.shape[0]] = c
        return cls(full)



# Default relative cut of band_spread; an OperatorMatrix caches its spread at it.
_SPREAD_CUT = 1e-12


def band_spread(a, rel_tol: float = _SPREAD_CUT) -> tuple[int, int]:
    """Index spread of a matrix band around the diagonal.

    Returns ``(below, above)`` where ``below`` is the largest ``i - j`` and
    ``above`` the largest ``j - i`` over entries with magnitude exceeding
    ``rel_tol`` times the largest magnitude.  ``below`` measures how far an
    operator raises degree; ``above`` how far it lowers it.  Both are 0 for
    the zero matrix.  ``a`` is an array or an :class:`OperatorMatrix`, whose
    Toeplitz diagonals are read off its symbol; an operator is immutable, so
    its spread at the default cut is computed once and kept.
    """
    if isinstance(a, OperatorMatrix) and rel_tol == _SPREAD_CUT:
        return a._spread
    return _band_spread(a, rel_tol)


def _band_spread(a, rel_tol: float) -> tuple[int, int]:
    if isinstance(a, OperatorMatrix):
        block, present = a.block, a._present()
        diags, diag_mags = np.flatnonzero(present), np.abs(a.symbol[present])
    else:
        block, diags, diag_mags = np.asarray(a), np.zeros(0, int), np.zeros(0)
    mags = np.abs(block)
    cut = rel_tol * max(mags.max(initial=0.0), diag_mags.max(initial=0.0))
    rows, cols = np.nonzero(mags > cut)
    kept = np.concatenate([rows - cols, diags[diag_mags > cut]])
    if kept.size == 0:
        return 0, 0
    return int(max(0, kept.max())), int(max(0, -kept.min()))


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """An operator in the monomial basis: lower Toeplitz part plus a finite block.

    Column ``m`` holds the image of ``z**m``.  On the ``size`` x ``size``
    truncation, entry ``(i, j)`` is ``block[i, j]`` inside the leading
    ``k`` x ``k`` block (``k = block_size``) and ``symbol[i - j]`` outside
    it (zero above the diagonal and beyond the symbol).  ``M_z`` is the
    symbol ``[0, 1]``, ``T_phi`` carries the coefficients of ``phi``, and a
    plain array is the degenerate case: no symbol, the whole matrix as the
    block.

    Window-exactness rule: outside a leading window that covers the blocks
    of the operands plus the symbol degree of the left factor, a product or
    difference of two such operators is exactly the Toeplitz matrix of the
    convolved (or subtracted) symbols.  Products, differences, max-norms and
    images of vectors and column stacks therefore work on that window and on
    the symbols, and cost nothing of order ``size**2`` unless a block is that
    large.  A window writes only the nonzero symbol diagonals, one strided
    slice each, so ``M_z**10`` costs one diagonal, not eleven.
    ``entries``, the dense matrix, is a read-only view built on each read
    and not kept; the library reads it only to dump a matrix.

    Arrays handed to the constructor are copied; the blocks and symbols of
    products and differences, which the operations form themselves, are
    kept as formed.  Either way every block and symbol is checked finite and
    is read-only.
    """

    block: np.ndarray
    symbol: np.ndarray = ()
    size: int | None = None

    def __post_init__(self):
        blk = _frozen_array(self.block)
        if blk.ndim != 2 or blk.shape[0] != blk.shape[1]:
            raise DimensionMismatchError("operator matrix must be square")
        size = blk.shape[0] if self.size is None else int(self.size)
        if size < blk.shape[0]:
            raise DimensionMismatchError("block exceeds the working order")
        sym = _frozen_array(np.asarray(self.symbol, dtype=np.complex128).ravel()[:size])
        object.__setattr__(self, "block", blk)
        object.__setattr__(self, "symbol", sym)
        object.__setattr__(self, "size", size)

    @classmethod
    def _formed(cls, block: np.ndarray, symbol: np.ndarray, size: int) -> "OperatorMatrix":
        """Wrap a square complex block and 1-d complex symbol formed here, without copies."""
        op = object.__new__(cls)
        object.__setattr__(op, "block", _sealed(block))
        object.__setattr__(op, "symbol", _sealed(symbol[:size]))
        object.__setattr__(op, "size", size)
        return op

    @classmethod
    def toeplitz(cls, symbol, size: int) -> "OperatorMatrix":
        """Lower Toeplitz matrix of multiplication by the given coefficients."""
        return cls(np.zeros((0, 0), dtype=np.complex128), symbol, size)

    @property
    def working_order(self) -> int:
        return self.size

    @property
    def block_size(self) -> int:
        return self.block.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return self.size, self.size

    @property
    def entries(self) -> np.ndarray:
        """The dense matrix: the block when it is the whole matrix, else a new read-only array."""
        if self.block_size == self.size:
            return self.block
        dense = self.window(self.size)
        dense.setflags(write=False)
        return dense

    def window(self, rows: int, cols: int | None = None) -> np.ndarray:
        """The dense leading ``rows`` x ``cols`` part of the matrix (a new array)."""
        cols = rows if cols is None else cols
        flat = np.zeros(rows * cols, dtype=np.complex128)
        # Diagonal d starts at flat index d * cols and steps by cols + 1.
        for d in self.symbol[:rows].nonzero()[0].tolist():
            count = min(rows - d, cols)
            flat[d * cols: d * cols + count * (cols + 1): cols + 1] = self.symbol[d]
        out = flat.reshape(rows, cols)
        k = self.block_size
        out[: min(rows, k), : min(cols, k)] = self.block[:rows, :cols]
        return out

    def reach(self, cols: int) -> int:
        """Number of leading rows holding every entry of the first ``cols`` columns."""
        if cols <= 0:
            return 0
        return min(self.size, max(self.block_size, cols + self._degree))

    @functools.cached_property
    def _spread(self) -> tuple[int, int]:
        return _band_spread(self, _SPREAD_CUT)

    @property
    def _degree(self) -> int:
        return max(self.symbol.shape[0] - 1, 0)

    def _present(self) -> np.ndarray:
        """Mask of the symbol diagonals with an entry outside the block."""
        d = np.arange(self.symbol.shape[0])
        return np.maximum(d, self.block_size) < self.size

    def last_nonzero_row(self) -> int:
        """Largest row index carrying a nonzero entry (-1 for the zero matrix)."""
        if (self.symbol[self._present()] != 0).any():
            return self.size - 1
        rows = np.flatnonzero(np.abs(self.block).max(axis=1, initial=0.0) > 0)
        return int(rows.max()) if rows.size else -1

    def max_abs(self, rows: slice = slice(None), cols: slice = slice(None)) -> float:
        """Largest entry magnitude over ``matrix[rows, cols]`` (0 when empty)."""
        r0, r1, _ = rows.indices(self.size)
        c0, c1, _ = cols.indices(self.size)
        k = self.block_size
        part = self.block[r0:min(r1, k), c0:min(c1, k)]
        out = float(np.abs(part).max()) if part.size else 0.0
        # Diagonal d holds (i, i - d); outside the block means i >= k.
        hit = [d for d in self.symbol.nonzero()[0].tolist()
               if max(r0, k, c0 + d) < min(r1, c1 + d)]
        if hit:
            out = max(out, float(np.abs(self.symbol[hit]).max()))
        return out

    def _check_size(self, other: "OperatorMatrix") -> None:
        if not isinstance(other, OperatorMatrix):
            raise TypeError("operand must be an OperatorMatrix")
        if other.size != self.size:
            raise DimensionMismatchError("working orders differ")

    def __matmul__(self, other):
        """Product with another operator, or the image of a vector or column stack."""
        if isinstance(other, np.ndarray) and other.ndim in (1, 2):
            if other.shape[0] != self.size:
                raise DimensionMismatchError("row count differs from working order")
            k = self.block_size
            out = np.zeros(other.shape, dtype=np.complex128)
            out[:k] = self.block @ other[:k]
            # Row i >= k is sum_d symbol[d] x[i - d]: one sliced add per diagonal.
            for d in np.flatnonzero(self.symbol):
                top = max(k, d)
                out[top:] += self.symbol[d] * other[top - d: self.size - d]
            return out
        self._check_size(other)
        # With A = T_a + D_a (D_a inside A's block), T_a D_b spills deg(a) rows
        # below the block of B; D_a T_b and D_a D_b stay inside the block of A
        # because both Toeplitz parts are lower triangular.
        w = max(self.block_size, other.block_size + self._degree if other.block_size else 0)
        w = min(w, self.size)
        block = self.window(w) @ other.window(w) if w else np.zeros((0, 0), np.complex128)
        if self.symbol.size and other.symbol.size:
            symbol = np.convolve(self.symbol, other.symbol)
        else:
            symbol = np.zeros(0, np.complex128)
        return OperatorMatrix._formed(block, symbol, self.size)

    def __sub__(self, other):
        self._check_size(other)
        w = max(self.block_size, other.block_size)
        symbol = np.zeros(max(self.symbol.size, other.symbol.size), dtype=np.complex128)
        symbol[: self.symbol.size] += self.symbol
        symbol[: other.symbol.size] -= other.symbol
        return OperatorMatrix._formed(self.window(w) - other.window(w), symbol, self.size)


def multiplication_by_z_matrix(working_order: int) -> np.ndarray:
    """Matrix of multiplication by ``z`` in the monomial basis (top row lost)."""
    m = np.zeros((working_order, working_order), dtype=np.complex128)
    idx = np.arange(working_order - 1)
    m[idx + 1, idx] = 1.0
    return m


def _as_operator(T) -> OperatorMatrix | np.ndarray:
    """The OperatorMatrix of an n-shift or an OperatorMatrix; a raw array as it is.

    Either result applies to a column stack with ``@`` and has a ``shape``.
    """
    if isinstance(T, OperatorMatrix):
        return T
    inner = getattr(T, "S", None)
    if isinstance(inner, OperatorMatrix):
        return inner
    return np.asarray(T, dtype=np.complex128)


@dataclass(frozen=True)
class Subspace:
    """Orthonormal basis of a (truncated) closed subspace.

    ``frontier`` records the largest valuation reached by the generators the
    subspace was built from.  Rows beyond the frontier are generator-depth
    artifacts; residual checks restrict to rows below it.  ``None`` means the
    subspace is not generator-truncated.

    ``invariant_certified`` marks subspaces whose invariance under the
    operator they were built from holds by construction (a cyclic closure
    maps each generator to the next one).  Such spaces skip norm-based
    invariance preconditions, which a depth-truncated generator set cannot
    meet near its frontier.
    """

    basis: np.ndarray
    frontier: int | None = None
    invariant_certified: bool = False

    def __post_init__(self):
        arr = _frozen_array(self.basis)
        if arr.ndim != 2:
            raise DimensionMismatchError("basis must be a 2-d array")
        object.__setattr__(self, "basis", arr)
        if arr.shape[1] > arr.shape[0]:
            raise DimensionMismatchError("subspace dimension exceeds working order")
        if arr.shape[1]:
            gram = arr.conj().T @ arr
            if np.abs(gram - np.eye(arr.shape[1])).max() > _ORTHONORMALITY_LIMIT:
                raise ValueError("basis columns are not orthonormal")

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @property
    def working_order(self) -> int:
        return self.basis.shape[0]


def orthonormalize(
    vectors,
    tol: ToleranceConfig | None = None,
    frontier: int | None = None,
    invariant_certified: bool = False,
) -> Subspace:
    """Orthonormal basis of the numerical span of the given vectors.

    Directions whose singular value falls below ``tau_rank`` times the
    largest are discarded, so the output dimension equals the numerical
    rank of the input.  An all-zero input yields the legal empty subspace
    (dimension 0), never an error.
    """
    tol = tol or DEFAULT_TOL
    if not isinstance(vectors, np.ndarray):
        cols = [v.coeffs if isinstance(v, TruncatedVector) else v for v in vectors]
        if not cols:
            raise ValueError("need at least one vector")
        vectors = np.column_stack(cols)
    a = np.asarray(vectors, dtype=np.complex128)
    if a.ndim == 1:
        a = a[:, None]
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    r, _ = _rank_cut(s, tol.tau_rank)
    return Subspace(u[:, :r], frontier, invariant_certified)


def _rank_cut(s: np.ndarray, rel: float) -> tuple[int, float | None]:
    """Rank and gap of descending singular values cut at ``rel`` times the largest.

    The rank counts the values strictly above the cut; it is 0 for an empty
    or all-zero spectrum.  The gap ratio is the last kept value over the
    first dropped one, ``None`` when either is missing or the dropped one
    is exactly zero.
    """
    if s.size == 0 or s[0] == 0.0:
        return 0, None
    rank = int(np.count_nonzero(s > rel * s[0]))
    # Python floats: a subnormal dropped value makes the ratio inf, with no overflow warning.
    gap = float(s[rank - 1]) / float(s[rank]) if rank < s.size and s[rank] > 0.0 else None
    return rank, gap


def numerical_rank(a, tol: ToleranceConfig | None = None) -> int:
    """Count of singular values above ``tau_rank`` times the largest."""
    return rank_report(a, tol)["rank"]


def rank_report(a, tol: ToleranceConfig | None = None) -> dict:
    """Rank plus diagnostics about the singular-value gap at the cutoff.

    Ties near the cutoff are never silently rounded; the report carries the
    singular values bracketing the cutoff and their ratio.  An operator whose
    symbol vanishes outside its block (every ``F``) is its block bordered by
    zeros and is ranked on the block; any other operator on its dense matrix
    (no caller in the library ranks one).
    """
    tol = tol or DEFAULT_TOL
    if isinstance(a, OperatorMatrix):
        mat = a.window(a.size) if a.symbol[a._present()].any() else a.block
    else:
        mat = a.basis if isinstance(a, Subspace) else np.asarray(a, dtype=np.complex128)
    s = np.linalg.svd(mat, compute_uv=False) if mat.size else np.zeros(0)
    if isinstance(a, OperatorMatrix) and s.size < a.size:
        s = np.append(s, 0.0)  # the zero rows and columns past the block
    rank, gap = _rank_cut(s, tol.tau_rank)
    if rank == 0:
        return {"rank": 0, "sigma_max": 0.0, "sigma_at_cut": None,
                "sigma_below_cut": None, "gap_ratio": None}
    below = float(s[rank]) if rank < s.size else None
    return {"rank": rank, "sigma_max": float(s[0]),
            "sigma_at_cut": float(s[rank - 1]), "sigma_below_cut": below,
            "gap_ratio": gap}


def subspace_difference(M: Subspace, T, tol: ToleranceConfig | None = None) -> Subspace:
    """Orthonormal basis of ``M`` minus ``T M`` (the wandering directions).

    The columns of ``T M`` are projected back into ``M``, orthonormalized
    there, and complemented within ``M``, so the result always lies inside
    ``M`` and is orthogonal to the projected image.
    """
    tol = tol or DEFAULT_TOL
    if M.dim == 0:
        raise ValueError("subspace must be nonzero")
    op = _as_operator(T)
    if op.shape[0] != M.working_order:
        raise DimensionMismatchError("operator and subspace working orders differ")
    coords = M.basis.conj().T @ (op @ M.basis)
    u, s, _ = np.linalg.svd(coords)
    r, _ = _rank_cut(s, tol.tau_rank)
    return Subspace(M.basis @ u[:, r:], M.frontier)


def krylov_closure(
    T,
    f: TruncatedVector,
    depth: int,
    tol: ToleranceConfig | None = None,
) -> Subspace:
    """Orthonormalize ``{f, Tf, ..., T^depth f}``.

    Approximates the cyclic subspace generated by ``f`` on the truncation.
    Requires ``depth * band_spread(T) < working_order`` so that the iterates
    stay inside the representable range.
    """
    tol = tol or DEFAULT_TOL
    op = _as_operator(T)
    if op.shape[0] != f.working_order:
        raise DimensionMismatchError("operator and vector working orders differ")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    spread = max(band_spread(op))
    if depth * spread >= max(1, f.working_order):
        raise TruncationError(
            f"depth {depth} times band spread {spread} exceeds "
            f"working order {f.working_order}"
        )
    iterates = np.empty((f.working_order, depth + 1), dtype=np.complex128)
    vec = f.coeffs.copy()
    iterates[:, 0] = vec
    for k in range(1, depth + 1):
        vec = op @ vec
        iterates[:, k] = vec
    frontier = min(f.working_order, f.valuation(1e-14 * max(1.0, f.norm())) + depth)
    # Invariance holds by construction: T maps each iterate to the next.
    return orthonormalize(iterates, tol, frontier=frontier, invariant_certified=True)


def principal_angles(M1: Subspace, M2: Subspace) -> np.ndarray:
    """Principal angles between two subspaces, in radians, ascending.

    With ``A`` the larger basis, angles below ``pi/4`` come from the singular
    values of ``(I - P_A) B`` (their sines), the rest from those of ``A* B``
    (their cosines): ``arccos`` alone cannot resolve angles below about
    1.5e-8.
    """
    if M1.working_order != M2.working_order:
        raise DimensionMismatchError("working orders differ")
    a, b = M1.basis, M2.basis
    if a.shape[1] == 0 or b.shape[1] == 0:
        return np.zeros(0)
    if a.shape[1] < b.shape[1]:
        a, b = b, a
    cross = a.conj().T @ b
    cosines = np.clip(np.linalg.svd(cross, compute_uv=False), 0.0, 1.0)
    sines = np.clip(np.linalg.svd(b - a @ cross, compute_uv=False)[::-1], 0.0, 1.0)
    return np.sort(np.where(sines < np.sqrt(0.5), np.arcsin(sines), np.arccos(cosines)))


def invariance_residual(M: Subspace, T, rows: int | None = None) -> float:
    """Spectral norm of ``(I - P_M) T P_M`` restricted to rows below ``rows``.

    ``rows`` defaults to the subspace frontier (generator-truncated spaces)
    or its working order.  Content the operator pushes past the frontier is
    a depth artifact of the truncation, not an invariance defect, and is
    excluded by the row restriction.
    """
    if rows is None:
        rows = M.frontier if M.frontier is not None else M.working_order
    image = _as_operator(T) @ M.basis
    resid = image - M.basis @ (M.basis.conj().T @ image)
    resid = resid[:rows, :]
    if resid.size == 0:
        return 0.0
    return float(np.linalg.norm(resid, 2))
