"""The reads' divisions and projections against the row and column loops of ``dense_oracle``.

``invariant._long_division`` solves the top rows of ``w = C quo + rem`` by one
triangular solve, where ``dense_oracle.long_division`` divides one row at a
time.  ``invariant._frame_model`` reads ``p_i`` and ``q_i`` by projecting
``S^{n-i} phi_i`` onto the read's orthonormal ``z^j theta``;
``dense_oracle.quotients`` divides ``den S^{n-i} phi_i`` of the same ``phi_i``
one column at a time, the arithmetic the projection replaced.  The summation
order differs, so the results agree to a tolerance set from the dtype, not bit
for bit.
"""

from hypothesis import example, given, settings, strategies as st
import numpy as np
from numpy.polynomial import polynomial as P
import pytest

import dense_oracle as oracle
from hardy_perturb import BlaschkeProduct, TridiagonalKernel, invariant, shift_from_kernel
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


def record_reads(monkeypatch):
    """``(shift, theta, m, phi, model, remainder)`` of every ``_frame_model`` read."""
    seen, peeled = [], []
    peel, read = invariant._peel, invariant._frame_model

    def recorded_peel(*args, **kwargs):
        peeled.append(peel(*args, **kwargs))
        return peeled[-1]

    def recorded_read(shift, theta, m, lead, tol):
        model, remainder = read(shift, theta, m, lead, tol)
        seen.append((shift, theta, m, peeled[-1][0], model, remainder))
        return model, remainder

    monkeypatch.setattr(invariant, "_peel", recorded_peel)
    monkeypatch.setattr(invariant, "_frame_model", recorded_read)
    return seen


def assert_read_matches_the_division(shift, theta, m, phi, model, remainder):
    # The division of the same phi_i, from their den-multiplied Taylor coefficients.
    want_p, want_q, _ = oracle.quotients(shift, theta, invariant._den_frame(theta, m) @ phi,
                                         phi[: shift.n])
    # The phi_i have unit norm; a p_i or q_i that vanishes is rounding at that scale.
    scale = max([1.0] + [np.abs(c.coeffs).max(initial=0.0) for c in want_p + want_q])
    for got, want in zip(model.p + model.q, want_p + want_q, strict=True):
        size = max(got.coeffs.size, want.coeffs.size)
        a, b = (np.pad(c.coeffs, (0, size - c.coeffs.size)) for c in (got, want))
        assert np.abs(a - b).max(initial=0.0) <= RTOL * scale
    assert remainder <= RTOL


def test_quotients_match_the_column_loop_on_closure_reads(monkeypatch):
    reads = record_reads(monkeypatch)
    assert check_random_trials(128, invariant.DEFAULT_TOL, 7, trials=60)[0]["passed"]
    assert {read[0].n for read in reads} == {1, 2, 3}
    for read in reads:
        assert_read_matches_the_division(*read)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quotients_match_the_column_loop_near_the_circle(n, monkeypatch):
    # S acts as z on z^n H^2, so the closure of f = z^n g has S^n f = z^n (z^n g):
    # theta has n zeros at the origin and the roots of g in the disc, here two
    # at modulus 0.999.  For n = 1, f = g - g(0) b_0 z gives h = g itself.
    reads = record_reads(monkeypatch)
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
    assert len(reads) == (8 if n == 1 else 4)
    for read in reads:
        assert_read_matches_the_division(*read)


ROOT_MODULI = st.one_of(st.floats(0.0, 3.0), st.just(0.99))


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 3), kernel_seed=st.integers(0, 2**32 - 1),
       moduli=st.lists(ROOT_MODULI, max_size=5), data=st.data())
@example(n=2, kernel_seed=0, moduli=[7.7e-167], data=None).via("a theta zero near the origin")
@example(n=1, kernel_seed=0, moduli=[5e-324], data=None).via("a subnormal singular value")
def test_quotients_match_the_column_loop_on_random_kernels_and_seeds(n, kernel_seed, moduli,
                                                                     data):
    # Kernels as the demo's random trials draw them: b uniform in the disc of radius 0.9.
    rng = np.random.default_rng(kernel_seed)
    b = tuple(np.sqrt(rng.uniform(size=n)) * 0.9 * unit_circle(rng, n))
    angles = (data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(moduli),
                                 max_size=len(moduli))) if data else [0.0] * len(moduli))
    shift = shift_from_kernel(TridiagonalKernel(n, (1.0,) * n, b), 128)
    seed = P.polyfromroots(np.multiply(moduli, np.exp(2j * np.pi * np.array(angles))))
    with pytest.MonkeyPatch.context() as patch:
        seen = record_reads(patch)
        _, report = _closure_model(shift, seed)
    assert len(seen) == 1 and report["read_remainder"] == seen[0][-1] < 1e-13
    assert_read_matches_the_division(*seen[0])



def test_the_column_loop_keeps_rows_that_cancel_near_the_origin(monkeypatch):
    # The oracle on its own terms, on the phi_i of one read.  With b = (0, 1/2),
    # S z = z^2 + z^3 / 2 and S acts as z on z^2 H^2.  The closure of z - a,
    # a = 7.7e-167, has theta with the one zero a, so theta = -z to rounding and
    # den's top coefficient is -a; phi_0 = z, phi_1 = z^2 to rounding.  So
    # p_0 = -1 - z / 2, p_1 = -1, q_0 = p_0 theta - z = z^2 / 2 and q_1 = 0.
    # den q_0 has a top row of size a, lost to rounding; the rows above it
    # cancel exactly, and the division by den must keep them.
    reads = record_reads(monkeypatch)
    shift = shift_from_kernel(TridiagonalKernel(2, (1.0, 1.0), (0.0, 0.5)), 128)
    _closure_model(shift, np.array([-7.7e-167, 1.0]))
    (_, theta, m, phi, _, _), = reads
    assert theta.zeros == (7.7e-167,)
    p, q, remainder = oracle.quotients(shift, theta, invariant._den_frame(theta, m) @ phi,
                                       phi[:2])
    assert remainder <= RTOL
    want = ([-1.0, -0.5], [-1.0], [0.0, 0.0, 0.5], [])
    for got, coeffs in zip(p + q, want, strict=True):
        size = max(got.coeffs.size, len(coeffs))
        a, b = (np.pad(c, (0, size - len(c))) for c in (got.coeffs, np.array(coeffs)))
        assert np.abs(a - b).max(initial=0.0) <= RTOL
