"""The range side's peel in coordinates of the input basis, against the N-row peel.

``invariant.extract_model`` splits every stage inside ``M``; the oracle
(``dense_oracle.extract_model``) re-orthonormalizes each image ``S M_j`` at N
rows under the dense ``S`` and ``M_z``.  On each input both must raise the same
exception type or give the same model: theta's zeros within 1e-8 under the best
matching, and every ``p_i`` and ``q_i`` within 1e-8 relative.
"""

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from hardy_perturb import (
    BlaschkeProduct,
    TridiagonalKernel,
    build_subspace,
    extract_model,
    krylov_closure,
    s1_model,
    shift_from_kernel,
)
from hardy_perturb.core import DEFAULT_TOL, Subspace
from hardy_perturb.errors import (
    ExtractionError, HardyPerturbError, PreconditionError, TruncationError,
)
from hardy_perturb.invariant import _peel
from hardy_perturb.suite import sample_conditioned_trial

import dense_oracle as oracle

THETAS = (
    BlaschkeProduct(1.0, (0.5,)),
    BlaschkeProduct(-1.0, (0.3j, -0.4 + 0.2j)),
    BlaschkeProduct(1j, (0.5, 0.3j, -0.4 + 0.2j)),
)


def s1_space(theta, nw, b0=0.7):
    shift = shift_from_kernel(TridiagonalKernel(1, (1.0,), (b0,)), nw)
    space, _ = build_subspace(s1_model(1.0, b0, theta), shift, nw)
    return shift, space


def padded_gap(a, b):
    """Norm of the difference of two coefficient arrays, relative to the second."""
    size = max(a.size, b.size)
    a, b = np.pad(a, (0, size - a.size)), np.pad(b, (0, size - b.size))
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def outcome(extract, space, shift):
    """The model, or the type of the library error ``extract`` raises."""
    try:
        return extract(space, shift)
    except HardyPerturbError as exc:
        return type(exc)


def assert_same_outcome(space, shift):
    """Both peels agree on ``space``; returns the library's outcome."""
    got = outcome(extract_model, space, shift)
    want = outcome(oracle.extract_model, space, shift)
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
        return got
    a, b = np.asarray(got.theta.zeros), np.asarray(want.theta.zeros)
    assert a.size == b.size
    rows, cols = linear_sum_assignment(np.abs(a[:, None] - b[None, :]))
    assert np.abs(a[rows] - b[cols]).max(initial=0.0) < 1e-8
    for mine, theirs in zip(got.p + got.q, want.p + want.q):
        assert padded_gap(mine.coeffs, theirs.coeffs) < 1e-8
    return got


@pytest.mark.parametrize("nw", [96, 256])
@pytest.mark.parametrize("theta", THETAS, ids=["deg1", "deg2", "deg3"])
def test_s1_round_trips(nw, theta):
    shift, space = s1_space(theta, nw)
    model = assert_same_outcome(space, shift)
    assert len(model.theta.zeros) == theta.degree


def test_zero_at_0_955():
    shift, space = s1_space(BlaschkeProduct(1.0, (0.955 * np.exp(0.7j), 0.3)), 256, 0.5)
    assert len(assert_same_outcome(space, shift).theta.zeros) == 2


def test_zero_at_0_975_is_a_truncation_error_on_both():
    shift, space = s1_space(BlaschkeProduct(1.0, (0.975 * np.exp(0.7j), 0.3)), 256, 0.5)
    assert assert_same_outcome(space, shift) is TruncationError
    raw = Subspace(space.basis, space.frontier)
    assert assert_same_outcome(raw, shift) is PreconditionError


def test_raw_basis_as_the_cli_passes_it():
    # `subspace extract` rebuilds the basis without its invariance certificate.
    shift, space = s1_space(THETAS[2], 128)
    raw = Subspace(space.basis, space.frontier)
    assert len(assert_same_outcome(raw, shift).theta.zeros) == 3


def test_krylov_closures_of_conditioned_draws():
    rng = np.random.default_rng(14)
    orders = set()
    for _ in range(20):
        _, shift, seed_vec = sample_conditioned_trial(rng, 128, 40)
        model = assert_same_outcome(krylov_closure(shift, seed_vec, 40), shift)
        assert not isinstance(model, type)
        orders.add(model.n)
    assert orders == {1, 2, 3}


def test_an_empty_later_stage_raises_the_given_error():
    # s fixes e1 and e2 and sends e0 to e1: stage 0 peels e0, stage 1 is empty.
    s = np.array([[0, 0, 0], [1, 1, 0], [0, 0, 1]], dtype=complex)
    with pytest.raises(TruncationError, match="slack"):
        _peel(s, np.eye(3), 2, DEFAULT_TOL, empty=TruncationError("no slack"))
    with pytest.raises(ExtractionError, match="wandering dimension 0 != 1 while peeling stage 1"):
        _peel(s, np.eye(3), 2, DEFAULT_TOL)
    phis, image = _peel(s, np.eye(3), 1, DEFAULT_TOL)
    np.testing.assert_allclose(phis[:, 0], [1, 0, 0], atol=1e-15)
    np.testing.assert_allclose(np.abs(image.conj().T @ image), np.eye(2), atol=1e-15)
    assert np.abs(image[0]).max() < 1e-15
