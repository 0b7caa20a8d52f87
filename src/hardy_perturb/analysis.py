"""Self-commutator analysis: essential normality and hyponormality tests.

The self-commutator ``S*S - SS*`` of an n-shift is a finite block plus
zeros, so essential normality is automatic and hyponormality reduces to the
eigenvalues of that block.  One truncation artifact needs care: the
truncated plain shift carries a spurious ``-1`` in the bottom-right corner
of ``S*S`` (its last column loses the pushed-out coefficient), absent from
the true operator.  That single entry is corrected and the correction is
recorded in every report.

Only the leading window of ``[S*, S]`` that covers the finite block of
``S`` is formed: outside it the commutator is the plain shift's, which is
zero once the corner artifact is masked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, ToleranceConfig, numerical_rank
from .errors import PreconditionError, TruncationError
from .shifts import Z_SYMBOL, NShift

__all__ = [
    "CommutatorReport",
    "essential_normality_witness",
    "self_commutator",
]

# Entries of the masked commutator above this magnitude count as nonzero:
# they set the block size, and any outside the block breaks essential
# normality.
_OUTSIDE_CUT = 1e-12


@dataclass(frozen=True)
class CommutatorReport:
    """Finite block of ``[S*, S]`` together with its spectral verdicts."""

    block: np.ndarray
    block_size: int
    rank: int
    min_eigenvalue: float
    det_principal: complex
    essentially_normal: bool
    hyponormal: bool
    hermitian_defect: float
    mask_note: str
    hyponormal_tolerance: float

    def to_json(self) -> dict:
        return {
            "block": [[[v.real, v.imag] for v in row] for row in self.block],
            "block_size": self.block_size,
            "rank": self.rank,
            "min_eigenvalue": self.min_eigenvalue,
            "det_principal": [self.det_principal.real, self.det_principal.imag],
            "essentially_normal": self.essentially_normal,
            "hyponormal": self.hyponormal,
            "hermitian_defect": self.hermitian_defect,
            "mask_note": self.mask_note,
            "hyponormal_tolerance": self.hyponormal_tolerance,
            "outside_cut": _OUTSIDE_CUT,
        }


def self_commutator(shift: NShift, tol: ToleranceConfig | None = None) -> CommutatorReport:
    """Compute ``S*S - SS*``, mask the corner artifact, and classify.

    Requires the working order to clear twice the perturbation support so
    the finite block sits away from the truncation boundary.  The
    commutator is formed on the leading window two past the block of ``S``
    (the whole matrix when ``S`` is a plain array); ``S`` must be ``M_z``
    outside its block for the rest to vanish.
    """
    tol = tol or DEFAULT_TOL
    nw = shift.working_order
    support = shift.perturbation_degree() + 1
    if nw <= 2 * support + 4:
        raise TruncationError(
            f"working order {nw} too small for perturbation support {support}"
        )
    s = shift.S
    w = min(nw, s.block_size + 2)
    if w < nw and not np.array_equal(s.symbol, Z_SYMBOL):
        raise PreconditionError("S must be M_z outside its finite block")
    cols = s.window(s.reach(w), w)
    top = cols[:w]
    comm = cols.conj().T @ cols - top @ top.conj().T
    if w == nw:
        comm[nw - 1, nw - 1] += 1.0
    note = (
        f"corner entry ({nw - 1}, {nw - 1}) raised by 1: the truncated plain "
        "shift loses its last column, which is absent from the true operator"
    )
    herm_defect = float(np.abs(comm - comm.conj().T).max())

    mags = np.abs(comm)
    hits = np.nonzero(mags > _OUTSIDE_CUT)
    k = int(max(hits[0].max(), hits[1].max())) + 1 if hits[0].size else 1
    block = comm[:k, :k].copy()
    outside = mags.copy()
    outside[:k, :k] = 0.0
    essentially_normal = bool(outside.max() < _OUTSIDE_CUT)

    herm_block = (block + block.conj().T) / 2.0
    eigs = np.linalg.eigvalsh(herm_block)
    min_eig = float(eigs[0])
    return CommutatorReport(
        block=block,
        block_size=k,
        rank=numerical_rank(comm, tol),
        min_eigenvalue=min_eig,
        det_principal=complex(np.linalg.det(block)) if k > 0 else 0.0 + 0.0j,
        essentially_normal=essentially_normal,
        hyponormal=bool(min_eig >= -tol.tau_res),
        hermitian_defect=herm_defect,
        mask_note=note,
        hyponormal_tolerance=tol.tau_res,
    )


def essential_normality_witness(shift: NShift) -> tuple[bool, int]:
    """Verdict and block size of :func:`self_commutator`, as a pair."""
    rep = self_commutator(shift)
    return rep.essentially_normal, rep.block_size
