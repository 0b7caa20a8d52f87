"""The range side's two exact readers against the dense oracle's orthogonal peel.

``invariant.extract_model`` reads a Krylov closure of the shift from its seed
(``_closure_model``) and every other basis as a generator stack
(``_exact_model``: theta's denominator off the rows past the frontier, then
the Takenaka-Malmquist peel and exact division; a raw basis must also span the
model's own stack); it refuses what neither certifies.  The oracle
(``dense_oracle.extract_model``) re-orthonormalizes each image ``S M_j`` at N
rows under the dense ``S`` and ``M_z``, on stacks at its own deep
``default_tail_depth``.  On each input both must raise the same exception type
or give the same model: theta's zeros within 1e-8 under the best matching (its
Taylor coefficients for repeated zeros), and every ``p_i`` and ``q_i`` within
1e-8 relative.  On criterion 6's closures the closure reader must give the
oracle's theta and ``phi_i`` within 1e-10, and a wrong theta must fail its
read remainder; a closure basis edited and wrapped again carries no seed and
is refused.
"""

import warnings

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from hardy_perturb import (
    BlaschkeProduct,
    SubspaceModel,
    TridiagonalKernel,
    TruncatedVector,
    blaschke_taylor,
    build_subspace,
    extract_model,
    krylov_closure,
    s1_model,
    shift_from_kernel,
    verify_model,
    wandering_dimension,
)
from hardy_perturb import invariant
from hardy_perturb.core import DEFAULT_TOL, Subspace, orthonormalize
from hardy_perturb.errors import (
    ExtractionError, HardyPerturbError, PreconditionError, TruncationError,
)
from hardy_perturb.invariant import _closure_model, _peel
from hardy_perturb.suite import _sample_trial, sample_conditioned_trial

import dense_oracle as oracle

THETAS = (
    BlaschkeProduct(1.0, (0.5,)),
    BlaschkeProduct(-1.0, (0.3j, -0.4 + 0.2j)),
    BlaschkeProduct(1j, (0.5, 0.3j, -0.4 + 0.2j)),
)


def kernel_shift(b0, nw):
    return shift_from_kernel(TridiagonalKernel(1, (1.0,), (b0,)), nw)


def s1_space(theta, nw, b0=0.7):
    """The s1 model's generator stack at the oracle's depth, certified."""
    return kernel_shift(b0, nw), oracle.build_subspace(s1_model(1.0, b0, theta), nw)


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


def read_exactly(space):
    """Whether the library's last reading of ``space`` gave a model (an exact reader)."""
    return isinstance(vars(space)["_wandering_memo"][2], SubspaceModel)


def read_by_closure(space, shift, seed_vec):
    """Whether the library's last reading of ``space`` was the closure reader's model of
    the seed: ``_closure_model``'s, with theta turned positive and ``p_i`` turned back."""
    got, (raw, _) = vars(space)["_wandering_memo"][2], _closure_model(shift, seed_vec.coeffs)
    turn = np.conj(got.theta.constant)
    return (got.theta.zeros == raw.theta.zeros
            and all(np.array_equal(a.coeffs, b.coeffs * turn) for a, b in zip(got.p, raw.p))
            and all(np.array_equal(a.coeffs, b.coeffs) for a, b in zip(got.q, raw.q)))


def assert_same_model(got, want, taylor=False):
    if taylor:
        nw = 64
        gap = blaschke_taylor(got.theta, nw).coeffs - blaschke_taylor(want.theta, nw).coeffs
        assert np.abs(gap).max() < 1e-8
    else:
        a, b = np.asarray(got.theta.zeros), np.asarray(want.theta.zeros)
        assert a.size == b.size
        rows, cols = linear_sum_assignment(np.abs(a[:, None] - b[None, :]))
        assert np.abs(a[rows] - b[cols]).max(initial=0.0) < 1e-8
    for mine, theirs in zip(got.p + got.q, want.p + want.q):
        assert padded_gap(mine.coeffs, theirs.coeffs) < 1e-8


def assert_same_outcome(space, shift, taylor=False):
    """Both extractions agree on ``space``; returns the library's outcome."""
    got = outcome(extract_model, space, shift)
    want = outcome(oracle.extract_model, space, shift)
    if isinstance(want, type) or isinstance(got, type):
        assert got is want
        return got
    assert_same_model(got, want, taylor)
    return got


@pytest.mark.parametrize("nw", [96, 256])
@pytest.mark.parametrize("theta", THETAS, ids=["deg1", "deg2", "deg3"])
def test_s1_round_trips(nw, theta):
    shift, space = s1_space(theta, nw)
    model = assert_same_outcome(space, shift)
    assert len(model.theta.zeros) == theta.degree
    assert read_exactly(space)


def test_zero_at_0_955():
    shift, space = s1_space(BlaschkeProduct(1.0, (0.955 * np.exp(0.7j), 0.3)), 256, 0.5)
    assert len(assert_same_outcome(space, shift).theta.zeros) == 2


def test_zero_at_0_975_is_a_truncation_error_on_both(monkeypatch):
    theta = BlaschkeProduct(1.0, (0.975 * np.exp(0.7j), 0.3))
    shift, space = s1_space(theta, 256, 0.5)
    # The exact path reads what the oracle's orthogonal peel cannot.
    exact = invariant._exact_model(space, shift, DEFAULT_TOL)
    assert np.abs(np.sort_complex(np.array(exact.theta.zeros))
                  - np.sort_complex(np.array(theta.zeros))).max() < 1e-10
    # Without it the library refuses the stack, and its split of M under S
    # finds no wandering vector, as the oracle's peel finds none.
    monkeypatch.setattr(invariant, "_exact_model", lambda *_: None)
    assert outcome(oracle.extract_model, space, shift) is TruncationError
    assert outcome(extract_model, space, shift) is ExtractionError
    assert outcome(wandering_dimension, space, shift) is TruncationError
    # Without the certificate the truncated tail fails the invariance
    # precondition, on the oracle's stack and on the library's.
    built, _ = build_subspace(s1_model(1.0, 0.5, theta), shift, 256)
    for stack in (space, built):
        raw = Subspace(stack.basis, stack.frontier)
        assert assert_same_outcome(raw, shift) is PreconditionError


def test_raw_basis_as_the_cli_passes_it():
    # `subspace extract` rebuilds the basis without its invariance certificate;
    # the exact path reads it once the model's own stack spans it.
    shift = kernel_shift(0.7, 128)
    built, _ = build_subspace(s1_model(1.0, 0.7, THETAS[2]), shift, 128)
    _, deep = s1_space(THETAS[2], 128)
    for space in (built, deep):
        raw = Subspace(space.basis, space.frontier)
        assert len(assert_same_outcome(raw, shift).theta.zeros) == 3
        assert read_exactly(raw)


def test_krylov_closures_of_conditioned_draws():
    rng = np.random.default_rng(14)
    orders = set()
    for _ in range(20):
        _, shift, seed_vec = sample_conditioned_trial(rng, 128, 40)
        space = krylov_closure(shift, seed_vec, 40)
        model = assert_same_outcome(space, shift)
        assert not isinstance(model, type)
        assert read_by_closure(space, shift, seed_vec)
        orders.add(model.n)
    assert orders == {1, 2, 3}


def test_an_empty_later_stage_is_refused():
    # s fixes e1 and e2 and sends e0 to e1: stage 0 peels e0, stage 1 is empty.
    s = np.array([[0, 0, 0], [1, 1, 0], [0, 0, 1]], dtype=complex)
    with pytest.raises(ExtractionError, match="wandering dimension 0 != 1 while peeling stage 1"):
        _peel(s, np.eye(3), 2, DEFAULT_TOL)
    np.testing.assert_allclose(_peel(s, np.eye(3), 1, DEFAULT_TOL)[:, 0], [1, 0, 0], atol=1e-15)


# ------------------------------------------------------------ the exact path --

def _disc(rng, radius):
    return complex(np.sqrt(rng.uniform()) * radius * np.exp(2j * np.pi * rng.uniform()))


def test_exact_path_matches_the_oracle_on_random_s1_models():
    rng = np.random.default_rng(17)
    passed = 0
    for degree in (1, 2, 3) * 4:
        b0 = _disc(rng, 0.9)
        theta = BlaschkeProduct(np.exp(2j * np.pi * rng.uniform()),
                                tuple(_disc(rng, 0.9) for _ in range(degree)))
        shift, space = s1_space(theta, 256, b0)
        want = outcome(oracle.extract_model, space, shift)
        got = extract_model(space, shift)
        assert read_exactly(space)
        if not isinstance(want, type):
            assert_same_model(got, want)
            passed += 1
    assert passed >= 10


def test_exact_path_matches_the_oracle_on_closure_models():
    # Models of conditioned cyclic closures, n = 1..3.
    rng = np.random.default_rng(5)
    orders = set()
    for _ in range(12):
        _, shift, seed_vec = sample_conditioned_trial(rng, 128, 40)
        model, _ = _closure_model(shift, seed_vec.coeffs)
        space = oracle.build_subspace(model, 128)
        got = assert_same_outcome(space, shift)
        assert not isinstance(got, type) and read_exactly(space)
        built, _ = build_subspace(model, shift, 128)
        assert_same_model(extract_model(built, shift), got)
        assert read_exactly(built)
        orders.add(model.n)
    assert orders == {1, 2, 3}


@pytest.mark.parametrize("zeros", [(0.5, 0.5), (0.3j, 0.3j, -0.4)])
def test_repeated_zeros_match_the_oracle(zeros):
    shift, space = s1_space(BlaschkeProduct(1.0, zeros), 256)
    model = assert_same_outcome(space, shift, taylor=True)
    assert read_exactly(space) and model.theta.degree == len(zeros)


def assert_round_trip(theta, nw, b0=0.7, raw=False):
    """Build at the default depth, then wandering dimension 1 and the model back.

    ``raw`` drops the invariance certificate, as ``subspace extract`` does.
    """
    model = s1_model(1.0, b0, theta)
    shift = kernel_shift(b0, nw)
    space, _ = build_subspace(model, shift, nw)
    if raw:
        space = Subspace(space.basis, space.frontier)
    assert wandering_dimension(space, shift) == 1
    rec = extract_model(space, shift)
    assert read_exactly(space)
    a, b = np.asarray(rec.theta.zeros), np.asarray(theta.zeros)
    rows, cols = linear_sum_assignment(np.abs(a[:, None] - b[None, :]))
    assert a.size == b.size and np.abs(a[rows] - b[cols]).max(initial=0.0) < 1e-10
    mine, true = rec.phi(0, nw).coeffs, model.phi(0, nw).coeffs
    cosine = abs(np.vdot(mine, true)) / (np.linalg.norm(mine) * np.linalg.norm(true))
    assert abs(cosine - 1.0) < 1e-10
    assert verify_model(rec, shift, nw)["max_residual"] < 1e-10
    return rec


@pytest.mark.parametrize("zeros", [(0.0,), (0.0, 0.5), (0.0, 0.0, -0.3j),
                                   ((1 - 1e-6) * np.exp(0.3j),),
                                   ((1 - 1e-6) * np.exp(2j), 0.6, -0.99)],
                         ids=["minus-z", "origin-and-half", "double-origin",
                              "near-circle", "near-circle-deg3"])
def test_round_trips_at_the_structural_depth(zeros):
    rec = assert_round_trip(BlaschkeProduct(1.0, zeros), 256)
    lead = blaschke_taylor(rec.theta, 8).coeffs
    first = lead[np.flatnonzero(np.abs(lead) > 1e-8)[0]]
    assert abs(first.imag) < 1e-14 and first.real > 0.0


@pytest.mark.parametrize("radius", [0.5, 0.9, 0.955])
def test_raw_stacks_round_trip_at_the_structural_depth(radius):
    # Theta's coefficients past 16 carry mass here; the exact path reads theta
    # off the rows past the frontier, not off a window below it.
    assert_round_trip(BlaschkeProduct(1.0, (radius * np.exp(0.7j), 0.3)), 256, 0.5, raw=True)


@pytest.mark.parametrize("nw", [32, 48, 64])
def test_round_trips_at_small_working_orders(nw):
    assert_round_trip(THETAS[2], nw)
    assert_round_trip(BlaschkeProduct(1.0, (0.0, 0.9j)), nw)


@pytest.mark.parametrize("certified", [True, False])
def test_a_perturbed_column_is_not_read_exactly(certified):
    theta = THETAS[2]
    shift = kernel_shift(0.7, 256)
    space, _ = build_subspace(s1_model(1.0, 0.7, theta), shift, 256)
    for row in (space.frontier + 8, 200):
        bent = space.basis.copy()
        bent[row, 1] += 1e-6
        bent = orthonormalize(bent, frontier=space.frontier, invariant_certified=certified)
        assert invariant._exact_model(bent, shift, DEFAULT_TOL) is None
        with pytest.raises((ExtractionError, PreconditionError)):
            extract_model(bent, shift)


def test_criterion_6_closures_take_the_closure_reader(monkeypatch):
    calls = []
    monkeypatch.setattr(invariant, "_exact_model", lambda *args: calls.append(args))
    rng = np.random.default_rng(0)
    for _ in range(100):
        _, shift, seed_vec = sample_conditioned_trial(rng, 128, 40)
        space = krylov_closure(shift, seed_vec, 40)
        assert wandering_dimension(space, shift) == 1
        assert read_by_closure(space, shift, seed_vec)
    assert calls == []


def test_unconditioned_closures_all_read_exactly():
    # Seeds whose h has roots near the circle leak past a depth-40 span; the
    # closure reader reads [f] from the seed, whatever the depth.
    rng = np.random.default_rng(1)
    for _ in range(100):
        shift, coeffs = _sample_trial(rng, 128)
        seed_vec = TruncatedVector.from_coefficients(coeffs, 128)
        space = krylov_closure(shift, seed_vec, 40)
        model = extract_model(space, shift)
        assert read_by_closure(space, shift, seed_vec)
        assert verify_model(model, shift, 128)["max_residual"] < 1e-6


def test_a_bent_closure_basis_is_refused():
    # The same span changed by 1e-6 past row 0 and wrapped again as certified,
    # with its frontier, carries no seed: the exact path declines it.
    rng = np.random.default_rng(3)
    for _ in range(10):
        _, shift, seed_vec = sample_conditioned_trial(rng, 128, 40)
        space = krylov_closure(shift, seed_vec, 40)
        extract_model(space, shift)
        bent = space.basis.copy()
        bent[1:] += 1e-6 * rng.standard_normal(bent[1:].shape)
        again = orthonormalize(bent, frontier=space.frontier, invariant_certified=True)
        with pytest.raises(ExtractionError, match="no exact reader certifies"):
            extract_model(again, shift)


@pytest.mark.parametrize("k", [0, 1, 3])
@pytest.mark.parametrize("kernel", [TridiagonalKernel(1, (1.0,), (0.7,)),
                                    TridiagonalKernel(2, (1.0, 1.0), (0.3, -0.4j))],
                         ids=["n1", "n2"])
def test_frontierless_truncations_read_exactly(monkeypatch, kernel, k):
    # z^k H^2 cut at N rows is exactly invariant; without a frontier every row
    # counts as exact, and theta = z^k is read with den = 1, as the oracle peels
    # it.  Dividing by z^{n+v} takes the top rows: no N-row division is built.
    shift = shift_from_kernel(kernel, 96)
    space = Subspace(np.eye(96)[:, k:], None, True)
    want = oracle.extract_model(space, shift)
    monkeypatch.setattr(invariant, "_long_division", None)
    model = extract_model(space, shift)
    assert_same_model(model, want)
    assert read_exactly(space) and model.theta.zeros == (0j,) * k


def criterion_6_closures():
    """Criterion 6's 100 conditioned trials: shift, seed and depth-40 Krylov closure."""
    rng = np.random.default_rng(0)
    for _ in range(100):
        _, shift, seed_vec = sample_conditioned_trial(rng, 128, 40)
        yield shift, seed_vec, krylov_closure(shift, seed_vec, 40)


def unit_gap(a, b):
    """Distance between the unit vectors along ``a`` and ``b``, phases aligned."""
    a, b = a / np.linalg.norm(a), b / np.linalg.norm(b)
    inner = np.vdot(b, a)
    return float(np.linalg.norm(a - b * inner / abs(inner)))


def test_criterion_6_closures_match_the_oracle_peel():
    # The closure reader gives the theta and phi_i directions the dense
    # orthogonal peel reads off the same depth-40 closure, with no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for shift, _, space in criterion_6_closures():
            got = extract_model(space, shift)
            want = oracle.extract_model(space, shift)
            a, b = np.asarray(got.theta.zeros), np.asarray(want.theta.zeros)
            rows, cols = linear_sum_assignment(np.abs(a[:, None] - b[None, :]))
            assert a.size == b.size and np.abs(a[rows] - b[cols]).max(initial=0.0) < 1e-10
            for i in range(shift.n):
                assert unit_gap(got.phi(i, 128).coeffs, want.phi(i, 128).coeffs) < 1e-10


def test_a_wrong_theta_fails_the_division_certificate(monkeypatch):
    # Theta's first zero moved by a relative 1e-3 before the closure reader's
    # projection leaves a read remainder far above the limit; a constant theta
    # has no zero to move.
    read = invariant._frame_model

    def moved(shift, theta, m, lead, tol):
        if theta.zeros:
            zeros = (theta.zeros[0] * (1 + 1e-3),) + theta.zeros[1:]
            theta = BlaschkeProduct(theta.constant, zeros)
        return read(shift, theta, m, lead, tol)

    honest = [extract_model(space, shift) for shift, _, space in criterion_6_closures()]
    monkeypatch.setattr(invariant, "_frame_model", moved)
    refused = 0
    for want, (shift, seed_vec, space) in zip(honest, criterion_6_closures()):
        if want.theta.degree:
            assert _closure_model(shift, seed_vec.coeffs)[1]["read_remainder"] > 1e-6
            with pytest.raises(ExtractionError, match="no exact reader certifies"):
                extract_model(space, shift)
            refused += 1
        else:
            assert_same_model(extract_model(space, shift), want)
    assert refused == 79


def test_factored_widths_follow_the_structure(monkeypatch):
    # Every matrix factored over build, wandering dimension and extraction is
    # at most the build's n + deg theta + 9 columns wide, at any N.
    widths = {}
    svd = np.linalg.svd

    def recorded(a, *args, **kwargs):
        widths[nw].append(a.shape[1])
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    theta = THETAS[2]
    for nw in (256, 1024):
        widths[nw] = []
        shift = kernel_shift(0.7, nw)
        space, _ = build_subspace(s1_model(1.0, 0.7, theta), shift, nw)
        assert wandering_dimension(space, shift) == 1
        assert extract_model(space, shift).theta.degree == 3
        assert space.dim == 1 + theta.degree + invariant._TAIL_MARGIN + 1
    assert max(widths[256]) == max(widths[1024]) == 1 + theta.degree + 9
