"""The closure read's divisions against the row and column loops of ``dense_oracle``.

``invariant._long_division`` solves the top rows of ``w = C quo + rem`` by one
triangular solve, and ``invariant._quotients`` forms ``den S^{n-i} phi_i`` and
divides all ``n`` columns at once; ``dense_oracle.long_division`` and
``dense_oracle.quotients`` divide one row and one column at a time.  The
summation order differs, so the results agree to a tolerance set from the
dtype, not bit for bit.
"""

import numpy as np
from numpy.polynomial import polynomial as P
import pytest

import dense_oracle as oracle
from hardy_perturb import TridiagonalKernel, invariant, shift_from_kernel
from hardy_perturb.invariant import _closure_model, _long_division
from hardy_perturb.suite import check_random_trials

# A thousand roundings of the largest term, fixed from the dtype before comparing.
RTOL = 1000 * np.finfo(np.complex128).eps


def unit_circle(rng, count):
    return np.exp(2j * np.pi * rng.uniform(size=count))


def divisor(rng, degree, valuation, modulus=None):
    """``z^valuation`` times a unimodular multiple of a monic polynomial, roots in the disc."""
    radii = rng.uniform(0.0, 0.999, degree) if modulus is None else np.full(degree, modulus)
    roots = radii * unit_circle(rng, degree)
    return np.concatenate([np.zeros(valuation), unit_circle(rng, 1) * P.polyfromroots(roots)])


def assert_division_matches(w, d):
    quo, rem = _long_division(w, d)
    want_quo, want_rem = oracle.long_division(w, d)
    assert quo.shape == want_quo.shape and rem.shape == want_rem.shape
    scale = np.abs(want_quo).max(initial=0.0)
    assert np.abs(quo - want_quo).max(initial=0.0) <= RTOL * scale
    # The remainder takes the quotient's error times the divisor's coefficients.
    bound = RTOL * (np.abs(w).max(initial=0.0) + d.size * np.abs(d).max() * scale)
    assert np.abs(rem - want_rem).max(initial=0.0) <= bound


@pytest.mark.parametrize("modulus", [None, 0.999], ids=["disc", "near-circle"])
@pytest.mark.parametrize("stacked", [False, True], ids=["vector", "stacked"])
def test_long_division_matches_the_row_loop(stacked, modulus):
    rng = np.random.default_rng([31, stacked, modulus is None])
    for _ in range(300):
        d = divisor(rng, int(rng.integers(0, 5)), int(rng.integers(0, 4)), modulus)
        # Shorter than the divisor (zero rows included) as well as longer.
        rows = int(rng.integers(0, d.size + 40))
        shape = (rows, int(rng.integers(1, 4))) if stacked else (rows,)
        w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        assert_division_matches(w, d)


def test_long_division_of_short_inputs_is_the_input():
    d = np.array([0.0, 0.0, -0.5, 1.0], dtype=np.complex128)
    for w in (np.zeros(0), np.zeros((0, 2)), np.arange(3.0), np.ones((2, 3))):
        quo, rem = _long_division(w, d)
        assert quo.shape == (0,) + w.shape[1:] and np.array_equal(rem, w)
        assert_division_matches(w, d)


def assert_quotients_match(args):
    p, q, worst = invariant._quotients(*args)
    want_p, want_q, want_worst = oracle.quotients(*args)
    # The phi_i have unit norm; a p_i or q_i that vanishes is rounding at that scale.
    scale = max([1.0] + [np.abs(c.coeffs).max(initial=0.0) for c in want_p + want_q])
    for got, want in zip(p + q, want_p + want_q, strict=True):
        size = max(got.coeffs.size, want.coeffs.size)
        a, b = (np.pad(c.coeffs, (0, size - c.coeffs.size)) for c in (got, want))
        assert np.abs(a - b).max(initial=0.0) <= RTOL * scale
    assert abs(worst - want_worst) <= RTOL * max(1.0, want_worst)


def test_quotients_match_the_column_loop_on_closure_reads(monkeypatch):
    seen = []
    real = invariant._quotients
    monkeypatch.setattr(invariant, "_quotients", lambda *args: seen.append(args) or real(*args))
    assert check_random_trials(128, invariant.DEFAULT_TOL, 7, trials=60)[0]["passed"]
    assert {args[0].n for args in seen} == {1, 2, 3}
    monkeypatch.undo()
    for args in seen:
        assert_quotients_match(args)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quotients_match_the_column_loop_near_the_circle(n, monkeypatch):
    # S acts as z on z^n H^2, so the closure of f = z^n g has S^n f = z^n (z^n g):
    # theta has n zeros at the origin and the roots of g in the disc, here two
    # at modulus 0.999.  For n = 1, f = g - g(0) b_0 z gives h = g itself.
    seen = []
    real = invariant._quotients
    monkeypatch.setattr(invariant, "_quotients", lambda *args: seen.append(args) or real(*args))
    rng = np.random.default_rng([32, n])
    for _ in range(4):
        b = tuple(rng.uniform(0.0, 0.9, n) * unit_circle(rng, n))
        shift = shift_from_kernel(TridiagonalKernel(n, (1.0,) * n, b), 64)
        g = P.polyfromroots(np.append(0.999 * unit_circle(rng, 2), 1.5 * unit_circle(rng, 1)))
        seeds = [np.concatenate([np.zeros(n), g])]
        if n == 1:
            seeds.append(P.polysub(g, [0.0, g[0] * b[0]]))
        for f in seeds:
            model, _ = _closure_model(shift, f)
            assert np.sum(np.abs(model.theta.zeros) > 0.99) == 2
    assert len(seen) == (8 if n == 1 else 4)
    monkeypatch.undo()
    for args in seen:
        assert_quotients_match(args)
