"""Exact models of cyclic closures, ``invariant._closure_model``.

``[f] = span{f, ..., S^{n-1} f} (+) z^n theta_h H^2`` with ``S^n f = z^n h``
and ``theta_h`` the Blaschke product of the roots of ``h`` in the disc.  The
numeric path (a depth-40 Krylov closure and ``extract_model``) is the oracle
on conditioned draws; hand-computed closures cover the edge cases.
"""

import numpy as np
import pytest

from hardy_perturb import (
    DEFAULT_TOL,
    BlaschkeProduct,
    Polynomial,
    extract_model,
    finite_codimension,
    krylov_closure,
    shift_from_columns,
    verify_model,
)
from hardy_perturb.errors import ExtractionError
from hardy_perturb.invariant import _closure_model, _long_division, _peel, _tm_frame
from hardy_perturb.suite import _sample_trial, check_random_trials, sample_conditioned_trial

from conftest import rank_one_shift, two_perturbation

NW = 128


def closure(shift, coeffs):
    """The closure model, after checking it verifies at rounding level."""
    model, report = _closure_model(shift, coeffs)
    assert verify_model(model, shift, shift.working_order)["max_residual"] < 1e-12
    assert report["read_remainder"] < 1e-12
    return model, report


def zero_distance(a, b):
    """Largest distance from a zero of either list to the nearest of the other."""
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    assert a.size == b.size
    if a.size == 0:
        return 0.0
    gaps = np.abs(a[:, None] - b[None, :])
    return float(max(gaps.min(axis=0).max(), gaps.min(axis=1).max()))


def test_matches_the_numeric_path_on_conditioned_draws():
    rng = np.random.default_rng(20)
    worst = 0.0
    for _ in range(40):
        _, shift, seed_vec = sample_conditioned_trial(rng, NW, 40)
        numeric = extract_model(krylov_closure(shift, seed_vec, 40), shift)
        exact, _ = closure(shift, seed_vec.coeffs)
        worst = max(worst, zero_distance(exact.theta.zeros, numeric.theta.zeros))
        assert finite_codimension(None, exact) == finite_codimension(None, numeric)
        assert finite_codimension(None, exact) == exact.theta.degree
    assert worst < 1e-8


def test_unconditioned_draws_verify_at_rounding_level():
    rng = np.random.default_rng(7)
    for _ in range(30):
        shift, coeffs = _sample_trial(rng, NW)
        model, report = closure(shift, coeffs)
        inside = np.abs(report["h_roots"]) < 1.0
        assert zero_distance(model.theta.zeros, report["h_roots"][inside]) == 0.0


def test_root_of_h_at_the_origin():
    # S 1 = z + z^2 and S z = z^2: f = z gives h = z, so [z] = z H^2.
    model, _ = closure(rank_one_shift(1.0, 1.0, NW), [0.0, 1.0])
    assert model.theta.zeros == (0j,)
    assert finite_codimension(None, model) == 1
    phi = model.phi(0, 8).coeffs
    np.testing.assert_allclose(phi, np.eye(8)[1], atol=1e-14)


def test_constant_h_closes_to_the_whole_space():
    # S 1 = 2 z: f = 1 gives h = 2, no zeros, and [1] = H^2.
    shift = shift_from_columns(1, [[0.0, 1.0]], NW)
    model, _ = closure(shift, [1.0])
    assert model.theta.zeros == ()
    assert finite_codimension(None, model) == 0
    np.testing.assert_allclose(model.phi(0, 8).coeffs, np.eye(8)[0], atol=1e-14)


def test_closure_of_one_under_the_two_perturbation():
    # S 1 = z + z^2, S z = 2 z^2: S^2 1 = z^2 (2 + z), whose root -2 is
    # outside, so [1] = span{1, z + z^2} (+) z^2 H^2 = H^2, peeled as 1 and z.
    model, report = closure(two_perturbation(NW), [1.0])
    np.testing.assert_allclose(report["h_roots"], [-2.0], atol=1e-14)
    assert model.theta.zeros == ()
    assert finite_codimension(None, model) == 0
    np.testing.assert_allclose(model.phi(0, 8).coeffs, np.eye(8)[0], atol=1e-14)
    np.testing.assert_allclose(model.phi(1, 8).coeffs, np.eye(8)[1], atol=1e-14)


def test_root_of_h_next_to_the_circle():
    # S 1 = z + b0 z^2: f = 1 gives h = 1 + b0 z, one root at -1 / b0.
    root = (1.0 - 1e-6) * np.exp(0.7j)
    model, _ = closure(rank_one_shift(1.0, -1.0 / root, NW), [1.0])
    assert model.theta.degree == 1
    assert abs(model.theta.zeros[0] - root) < 1e-12
    assert finite_codimension(None, model) == 1


@pytest.mark.parametrize("zeros", [(0.5,), (0.3j, -0.8), (0.0, 0.6 - 0.2j, -0.4j)])
def test_exact_division_by_z_n_theta(zeros):
    theta = BlaschkeProduct(np.exp(0.4j), zeros)
    r = np.array([0.7, -1.2 + 0.5j, 0.3j])
    # w = z^2 numerator r = z^2 theta (r denominator): the quotient is r.
    divisor = np.concatenate([np.zeros(2), theta.numerator().coeffs])
    w = np.convolve(divisor, r)
    quotient, remainder = _long_division(w, divisor)
    np.testing.assert_allclose(quotient[: r.size], r, atol=1e-14)
    assert np.abs(quotient[r.size :]).max(initial=0.0) < 1e-14
    assert np.linalg.norm(remainder) < 1e-15
    # Each kind of remainder is reported: below z^n, and left by a division.
    low = w.copy()
    low[1] += 1e-6
    assert np.linalg.norm(_long_division(low, divisor)[1]) > 1e-7
    off = w.copy()
    off[2] += 1e-6
    assert np.linalg.norm(_long_division(off, divisor)[1]) > 1e-7


def test_peel_refuses_two_generators():
    # Under S^2 the plain closure of 1 needs two generators, 1 and z.
    a, _ = _tm_frame(BlaschkeProduct(), 6)
    phis, _ = _peel(a, np.eye(6), 3, DEFAULT_TOL)
    np.testing.assert_allclose(phis, np.eye(6)[:, :3], atol=1e-15)
    with pytest.raises(ExtractionError, match="wandering dimension 2"):
        _peel(a @ a, np.eye(6), 1, DEFAULT_TOL)


def test_moved_theta_zero_fails_the_row(monkeypatch):
    assert check_random_trials(NW, DEFAULT_TOL, 0, trials=20)[0]["passed"]
    roots = Polynomial.roots
    monkeypatch.setattr(Polynomial, "roots", lambda self: roots(self) + 1e-6)
    row = check_random_trials(NW, DEFAULT_TOL, 0, trials=20)[0]
    assert row["passed"] is False
    assert row["computed"]["count"] > 0
    assert row["computed"]["worst_residual"] > 1e-6
