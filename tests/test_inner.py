import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hardy_perturb import (
    BlaschkeProduct,
    Polynomial,
    SubspaceModel,
    TruncatedVector,
    blaschke_eval,
    blaschke_taylor,
    is_inner_numeric,
    is_outer_polynomial,
    rational_inner_from_taylor,
)
from hardy_perturb.errors import EvaluationError, ExtractionError
from hardy_perturb.inner import _geometric_filter, _series_div_arrays
from hardy_perturb.jsonio import model_from_payload

from conftest import NW, theta_half_taylor_oracle


class TestBlaschkeEval:
    def test_value_at_origin(self, theta_half):
        assert blaschke_eval(theta_half, 0.0) == pytest.approx(0.5)

    def test_empty_product_is_constant(self):
        assert blaschke_eval(BlaschkeProduct(1.0, ()), 0.3 + 0.1j) == 1.0

    def test_value_at_one(self, theta_half):
        # (1/2 - 1) / (1 - 1/2) = -1
        assert blaschke_eval(theta_half, 1.0) == pytest.approx(-1.0)

    def test_pole_rejected(self, theta_half):
        with pytest.raises(EvaluationError):
            blaschke_eval(theta_half, 2.0)

    def test_zero_outside_disc_rejected(self):
        with pytest.raises(ValueError):
            BlaschkeProduct(1.0, (1.2,))

    def test_non_unimodular_constant_rejected(self):
        with pytest.raises(ValueError):
            BlaschkeProduct(0.5, ())


class TestBlaschkeTaylor:
    def test_constant_one(self):
        t = blaschke_taylor(BlaschkeProduct(1.0, ()), 8)
        assert np.array_equal(t.coeffs, np.eye(8)[0])

    def test_coordinate_function(self):
        # zeros {0} with constant -1 represents the function z itself
        t = blaschke_taylor(BlaschkeProduct(-1.0, (0.0,)), 8)
        assert np.array_equal(t.coeffs, np.eye(8)[1])

    def test_half_zero_coefficients(self, theta_half):
        # Oracle: hand expansion (1/2 - z) sum (z/2)^k.
        t = blaschke_taylor(theta_half, NW)
        assert np.abs(t.coeffs - theta_half_taylor_oracle(NW)).max() < 1e-15
        assert t.coeffs[2] == pytest.approx(-3.0 / 8.0)

    def test_norm_at_most_one(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            zeros = tuple(0.8 * rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
                          for _ in range(rng.integers(0, 4)))
            t = blaschke_taylor(BlaschkeProduct(1.0, zeros), NW)
            assert t.norm() <= 1.0 + 1e-12

    def test_taylor_eval_consistency(self, theta_half):
        # Partial sums converge geometrically inside |w| <= 1/2.  The
        # 2^(-order+4) tail bound is only observable above machine epsilon,
        # so it is exercised at a short order and floored at eps beyond.
        for order in (24, NW):
            t = blaschke_taylor(theta_half, order)
            bound = max(2.0 ** (-order + 4), 1e-13)
            for w in (0.5, -0.5, 0.25j, 0.3 - 0.4j):
                series = complex(np.polyval(t.coeffs[::-1], w))
                assert abs(series - blaschke_eval(theta_half, w)) < bound

    @pytest.mark.parametrize("constant, zeros", [
        (1.0, (1 - 1e-9,)),
        (np.exp(0.3j), (1 - 1e-9, 0.5j, -0.2 + 0.6j)),
        (-1.0, (0.6j, 0.6j)),
        (np.exp(2.0j), (-0.3 + 0.4j, -0.3 + 0.4j, 0.9)),
        (1j, (0.0, 0.7)),
        (1.0, (0.0, 0.0, 0.999999 * np.exp(1.1j))),
    ])
    def test_factor_by_factor_matches_series_quotient(self, constant, zeros):
        # One factor at a time against the quotient numerator / denominator;
        # the orders put the end of the series before, on and past the
        # boundaries of the filter's blocks.
        theta = BlaschkeProduct(constant, zeros)
        num, den = theta.numerator().coeffs, theta.denominator().coeffs
        for order in (1, 63, 64, 65, 200, 256):
            want = _series_div_arrays(np.pad(num, (0, max(0, order - num.size))), den, order)
            assert np.abs(blaschke_taylor(theta, order).coeffs - want).max() <= 1e-13

    def test_repeated_near_circle_zero_against_exact_arithmetic(self):
        # A repeated zero at modulus 0.999 is where the quotient recurrence
        # drifts (3e-14 here at order 256); one factor at a time stays at rounding.
        mpmath = pytest.importorskip("mpmath")
        a = 0.999 * np.exp(0.4j)
        theta = BlaschkeProduct(1.0, (a, a, 0.35))
        order = 256
        # The same quotient recurrence, in 40-digit arithmetic.
        num = [mpmath.mpc(1)]
        den = [mpmath.mpc(1)]
        with mpmath.workdps(40):
            for z in theta.zeros:
                z = mpmath.mpc(z)
                num = [(num[k] * z if k < len(num) else 0) - (num[k - 1] if k else 0)
                       for k in range(len(num) + 1)]
                den = [(den[k] if k < len(den) else 0) - (mpmath.conj(z) * den[k - 1] if k else 0)
                       for k in range(len(den) + 1)]
            out = []
            for k in range(order):
                acc = num[k] if k < len(num) else mpmath.mpc(0)
                acc -= mpmath.fsum(den[j] * out[k - j] for j in range(1, min(k, len(den) - 1) + 1))
                out.append(acc)
            exact = np.array([complex(c) for c in out])
        assert np.abs(blaschke_taylor(theta, order).coeffs - exact).max() < 1e-15

    @pytest.mark.parametrize("c", [0.0, 0.5, -0.3 + 0.9j, 0.999999 * np.exp(2.0j)])
    def test_geometric_filter_is_the_recurrence(self, c):
        rng = np.random.default_rng(5)
        for length in (1, 2, 63, 64, 65, 130):
            x = rng.standard_normal(length) + 1j * rng.standard_normal(length)
            want = np.empty(length, dtype=np.complex128)
            acc = 0.0
            for k in range(length):
                acc = x[k] + c * acc
                want[k] = acc
            got = _geometric_filter(x, c)
            assert got.shape == (length,)
            assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())

    def test_boundary_unimodularity(self, theta_half):
        for t_ in np.linspace(0.0, 2 * np.pi, 64, endpoint=False):
            w = np.exp(1j * t_)
            assert abs(abs(blaschke_eval(theta_half, w)) - 1.0) < 1e-12

    def test_degree_two_boundary_unimodularity(self):
        theta = BlaschkeProduct(np.exp(0.7j), (0.3, -0.4 + 0.2j))
        for t_ in np.linspace(0.0, 2 * np.pi, 64, endpoint=False):
            w = np.exp(1j * t_)
            assert abs(abs(blaschke_eval(theta, w)) - 1.0) < 1e-12


class TestIsInnerNumeric:
    def test_monomial(self):
        ok, _ = is_inner_numeric(TruncatedVector.from_coefficients([0.0, 0.0, 1.0], NW))
        assert ok

    def test_one_plus_z_is_not(self):
        ok, diag = is_inner_numeric(TruncatedVector.from_coefficients([1, 1], NW))
        assert not ok
        assert diag["max_correlation"] == pytest.approx(1.0)

    def test_blaschke_taylor_is_inner(self, theta_half):
        ok, diag = is_inner_numeric(blaschke_taylor(theta_half, 128))
        assert ok
        assert diag["max_correlation"] < 1e-8 and diag["norm_defect"] < 1e-8


class TestIsOuter:
    def test_constant(self):
        assert is_outer_polynomial(Polynomial([1.0]))

    def test_coordinate_is_not(self):
        assert not is_outer_polynomial(Polynomial([0.0, 1.0]))

    def test_model_polynomial_is_outer(self):
        # p = 1 + (b0/a0)|theta(0)|^2 z has its root at modulus >= 1 whenever
        # |b0| <= |a0| and |theta(0)| <= 1.
        for a0, b0, t0 in ((1.0, 1.0, 0.5), (2.0, 1.5, 0.9), (1.0, 1.0, 1.0)):
            p = Polynomial([1.0, (b0 / a0) * t0 ** 2])
            assert is_outer_polynomial(p)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            is_outer_polynomial(Polynomial([]))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.sampled_from([0.2, 0.45, 1.3, 2.5, -0.3, -1.8]),
                    min_size=1, max_size=4),
           st.lists(st.sampled_from([0.1, 0.5, 1.6, 3.0, -0.55, -2.2]),
                    min_size=1, max_size=4))
    def test_multiplicative(self, roots_p, roots_q):
        p = Polynomial.from_roots(roots_p)
        q = Polynomial.from_roots(roots_q)
        both = is_outer_polynomial(p) and is_outer_polynomial(q)
        assert is_outer_polynomial(p.multiply(q)) == both


class TestSeriesDivide:
    # _series_div_arrays is the power-series quotient behind _blaschke_from_fraction.
    def test_identity_recovery(self, theta_half):
        theta = blaschke_taylor(theta_half, NW).coeffs
        num = np.concatenate([[0], theta[:-1]])
        out = _series_div_arrays(num, theta, NW)
        assert abs(out[1] - 1.0) < 1e-12
        assert np.abs(np.delete(out, 1)).max() < 1e-12

    def test_forward_multiply_round_trip(self, theta_half):
        # (z p theta) / theta = z p for p = 1 + z/4.
        theta = blaschke_taylor(theta_half, NW).coeffs
        p = np.array([1.0, 0.25])
        num = np.convolve(np.convolve(p, theta), [0, 1])[:NW]
        out = _series_div_arrays(num, theta, NW)
        assert np.abs(out[1:3] - p).max() < 1e-12
        assert abs(out[0]) < 1e-12 and np.abs(out[3:]).max() < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-1, 1), min_size=3, max_size=8),
           st.lists(st.floats(-1, 1), min_size=2, max_size=6))
    def test_round_trip_property(self, f, g):
        g = [1.0] + g  # keep g(0) away from zero
        prod = np.convolve(f, g)[:32]
        out = _series_div_arrays(np.asarray(prod), np.asarray(g), 32)
        scale = max(1.0, np.abs(f).max())
        assert np.abs(out[: len(f)] - np.array(f)).max() < 1e-9 * scale


class TestSeriesMultiply:
    def test_truncated_cauchy_product(self):
        prod = Polynomial((1, 1)).multiply(Polynomial((1, -1)))
        assert np.allclose(prod.coeffs[:3], [1, 0, -1])


class TestRationalRecovery:
    def test_degree_one(self, theta_half):
        rec = rational_inner_from_taylor(blaschke_taylor(theta_half, NW))
        assert len(rec.zeros) == 1
        assert abs(rec.zeros[0] - 0.5) < 1e-9
        assert abs(rec.constant - 1.0) < 1e-9

    def test_degree_two_with_phase(self):
        theta = BlaschkeProduct(np.exp(1.1j), (0.3, -0.4 + 0.2j))
        rec = rational_inner_from_taylor(blaschke_taylor(theta, NW))
        assert len(rec.zeros) == 2
        got = sorted(rec.zeros, key=lambda z: z.real)
        want = sorted(theta.zeros, key=lambda z: z.real)
        assert max(abs(g - w) for g, w in zip(got, want)) < 1e-8
        assert abs(rec.constant - theta.constant) < 1e-8

    def test_constant_function(self):
        rec = rational_inner_from_taylor(
            blaschke_taylor(BlaschkeProduct(np.exp(0.4j), ()), NW)
        )
        assert rec.zeros == ()
        assert abs(rec.constant - np.exp(0.4j)) < 1e-10

    def test_zero_at_origin(self):
        theta = BlaschkeProduct(-1.0, (0.0, 0.45))
        rec = rational_inner_from_taylor(blaschke_taylor(theta, NW))
        moduli = sorted(abs(z) for z in rec.zeros)
        assert moduli[0] < 1e-9 and abs(moduli[1] - 0.45) < 1e-9

    def test_non_inner_rejected(self):
        junk = TruncatedVector.from_coefficients([1.0, 1.0], NW)
        with pytest.raises(ExtractionError):
            rational_inner_from_taylor(junk)

    def test_round_trip_against_taylor(self, theta_half):
        rec = rational_inner_from_taylor(blaschke_taylor(theta_half, NW))
        diff = blaschke_taylor(rec, NW).coeffs - blaschke_taylor(theta_half, NW).coeffs
        assert np.abs(diff).max() < 1e-9


class TestPolynomialType:
    def test_trailing_zeros_stripped(self):
        p = Polynomial([1.0, 2.0, 0.0, 0.0])
        assert p.degree == 1

    def test_zero_polynomial(self):
        p = Polynomial([0.0, 0.0])
        assert p.is_zero and p.degree == -1

    def test_roots_match_construction(self):
        p = Polynomial.from_roots([0.5, -2.0])
        assert sorted(np.round(p.roots().real, 10)) == [-2.0, 0.5]

    def test_evaluation(self):
        p = Polynomial([1.0, 0.0, 4.0])
        assert p(0.5j) == pytest.approx(1.0 + 4.0 * (0.5j) ** 2)


def test_blaschke_json_round_trip(theta_half):
    model = SubspaceModel(1, theta_half, (Polynomial([1.0]),), (Polynomial([]),))
    again = model_from_payload(model.to_json()).theta
    assert again.zeros == theta_half.zeros
    assert again.constant == theta_half.constant


def test_inner_product_of_blaschke_with_itself(theta_half):
    t = blaschke_taylor(theta_half, 128)
    assert np.vdot(t.coeffs, t.coeffs).real == pytest.approx(1.0, abs=1e-12)
