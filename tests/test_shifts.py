import numpy as np
import pytest

from hardy_perturb import (
    TridiagonalKernel,
    multiplication_by_z_matrix,
    numerical_rank,
    shift_from_columns,
    shift_from_kernel,
    validate_n_shift,
    verify_power_identities,
)
from hardy_perturb.jsonio import kernel_from_payload
from hardy_perturb.shifts import f_basis_matrix, gram_columns
from hardy_perturb.errors import (
    DefinitionViolationError,
    InvalidKernelError,
    UnsupportedConfigurationError,
)

from conftest import NW, rank_one_shift
from dense_oracle import monomial_in_f_basis


class TestKernelData:
    def test_pattern_accessors(self):
        k = TridiagonalKernel(2, (1.0, 1.0), (0.5, 0.2))
        assert k.b_at(0) == 0.5 and k.b_at(5) == 0.0
        assert k.a_at(7) == 1.0

    def test_zero_a_rejected(self):
        with pytest.raises(InvalidKernelError):
            TridiagonalKernel(2, (1.0, 0.0), (0.1, 0.1))

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidKernelError):
            TridiagonalKernel(2, (1.0,), (0.1, 0.1))

    def test_json_round_trip(self):
        k = TridiagonalKernel(2, (1.0, 2.0 + 1j), (0.5j, 0.0))
        again = kernel_from_payload(k.to_json())
        assert again == k


class TestCCoeff:
    # The lagged differences c_{m,p} = b_m - b_{m+p} of the kernel data.
    def test_direct_difference(self):
        k = TridiagonalKernel(2, (1.0, 1.0), (0.5, 0.2))
        assert k.b_at(0) - k.b_at(1) == pytest.approx(0.3)

    def test_vanishes_beyond_truncation(self):
        k = TridiagonalKernel(2, (1.0, 1.0), (0.5, 0.2))
        assert k.b_at(2) - k.b_at(3) == 0.0
        assert k.b_at(5) - k.b_at(8) == 0.0

    def test_long_lag(self):
        k = TridiagonalKernel(1, (1.0,), (0.7,))
        assert k.b_at(0) - k.b_at(2) == pytest.approx(0.7)


class TestMonomialInFBasis:
    def test_unperturbed_identity(self):
        k = TridiagonalKernel(1, (1.0,), (0.0,))
        for m in (0, 3):
            out = monomial_in_f_basis(k, m, 12)
            assert np.array_equal(out, np.eye(12)[m])

    def test_rank_one_expansion(self):
        # z^0 = f_0 - b0 f_1 and z^m = f_m for m >= 1.
        b0 = 0.37 - 0.5j
        k = TridiagonalKernel(1, (1.0,), (b0,))
        out = monomial_in_f_basis(k, 0, 12)
        assert out[0] == 1.0 and out[1] == -b0 and np.abs(out[2:]).max() == 0.0
        assert np.array_equal(monomial_in_f_basis(k, 1, 12), np.eye(12)[1])

    def test_rank_two_expansion(self):
        # z^0 = f_0 - b0 f_1 + b0 b1 f_2.
        b0, b1 = 0.4, -0.25j
        k = TridiagonalKernel(2, (1.0, 1.0), (b0, b1))
        out = monomial_in_f_basis(k, 0, 12)
        assert out[0] == 1.0 and out[1] == -b0 and out[2] == b0 * b1
        assert np.abs(out[3:]).max() == 0.0

    def test_oracle_against_change_of_basis(self):
        # Independent check: G @ (expansion of z^m) must give the monomial.
        k = TridiagonalKernel(3, (1.0, 1.0, 1.0), (0.3, -0.6j, 0.2 + 0.1j))
        g = f_basis_matrix(k, 16)
        for m in range(5):
            expansion = monomial_in_f_basis(k, m, 16)
            assert np.abs(g @ expansion - np.eye(16)[m]).max() < 1e-14

    def test_general_a_rejected(self):
        k = TridiagonalKernel(1, (2.0,), (0.1,))
        with pytest.raises(UnsupportedConfigurationError):
            monomial_in_f_basis(k, 0, 8)


class TestShiftFromKernel:
    def test_unperturbed(self):
        k = TridiagonalKernel(1, (1.0,), (0.0,))
        s = shift_from_kernel(k, NW)
        assert np.array_equal(s.S.entries, multiplication_by_z_matrix(NW))
        assert np.abs(s.F.entries).max() == 0.0

    def test_rank_one_matrix_display(self):
        # Column 0 is a0 z + b0 z^2; all later columns plain shifts.
        a0, b0 = 0.8 + 0.1j, 0.5
        s = shift_from_kernel(TridiagonalKernel(1, (a0,), (b0,)), NW)
        col0 = np.zeros(NW, dtype=complex)
        col0[1], col0[2] = a0, b0
        assert np.abs(s.S.entries[:, 0] - col0).max() < 1e-14
        assert np.array_equal(s.S.entries[:, 1:], multiplication_by_z_matrix(NW)[:, 1:])

    def test_closed_form_oracle_for_unit_a(self):
        # Independent construction of the shift columns from the closed-form
        # monomial expansion: z f_m = f_{m+1} + c_{m,1} (z^{m+2} in f-basis)
        # with the difference coefficient c_{m,1} = b_m - b_{m+1}.
        k = TridiagonalKernel(2, (1.0, 1.0), (0.45, -0.3 + 0.2j))
        s = shift_from_kernel(k, NW)
        for m in range(6):
            expected = np.zeros(NW, dtype=complex)
            expected[m + 1] = 1.0
            c = k.b_at(m) - k.b_at(m + 1)
            expected += c * monomial_in_f_basis(k, m + 2, NW)
            assert np.abs(s.S.entries[:, m] - expected).max() < 1e-14

    def test_perturbation_columns_confined(self):
        k = TridiagonalKernel(3, (1.0, 1.0, 1.0), (0.3, 0.5, -0.2))
        s = shift_from_kernel(k, NW)
        assert np.abs(s.F.entries[:, 3:]).max() == 0.0
        assert numerical_rank(s.F) <= 3

    def test_validation_embedded(self, one_plus_z_shift):
        assert validate_n_shift(one_plus_z_shift).passed


class TestShiftFromColumns:
    def test_two_perturbation_example(self, two_perturbation_shift):
        s = two_perturbation_shift
        gram = gram_columns(s, 2)
        assert np.abs(gram - np.array([[2, 2], [2, 4]])).max() < 1e-14
        assert numerical_rank(s.F) == 1

    def test_weighted_shift(self, weighted_shift):
        assert weighted_shift.S.entries[1, 0] == 2.0
        assert gram_columns(weighted_shift, 1)[0, 0] == pytest.approx(4.0)

    def test_rank_one_family(self):
        s = rank_one_shift(0.7, 0.4)
        assert s.S.entries[1, 0] == pytest.approx(0.7)
        assert s.S.entries[2, 0] == pytest.approx(0.4)

    def test_wrong_column_count(self):
        with pytest.raises(DefinitionViolationError):
            shift_from_columns(2, [[0, 0, 1.0]], NW)

    def test_constant_image_violates_support(self):
        with pytest.raises(DefinitionViolationError) as err:
            shift_from_columns(1, [[1.0]], NW)
        assert "(ii)" in err.value.clauses

    def test_vanishing_weight_violates_invertibility(self):
        with pytest.raises(DefinitionViolationError) as err:
            shift_from_columns(1, [[0.0, -1.0]], NW)
        assert "(iii)" in err.value.clauses

    def test_lenient_mode_reports_instead(self):
        s = shift_from_columns(1, [[1.0]], NW, strict=False)
        report = validate_n_shift(s)
        assert not report.clause_ii and "(ii)" in report.failures


class TestValidate:
    def test_unperturbed_passes_with_unit_eigenvalue(self):
        k = TridiagonalKernel(1, (1.0,), (0.0,))
        report = validate_n_shift(shift_from_kernel(k, NW))
        assert report.passed and report.min_eigenvalue == pytest.approx(1.0)

    def test_two_perturbation_block_eigenvalues(self, two_perturbation_shift):
        # Oracle: eigenvalues of [[2,2],[2,4]] are 3 +- sqrt(5).
        report = validate_n_shift(two_perturbation_shift)
        assert report.passed
        assert report.min_eigenvalue == pytest.approx(3.0 - np.sqrt(5.0))

    def test_gram_deviation_confined(self):
        k = TridiagonalKernel(2, (1.0, 1.0), (0.6, 0.3j))
        s = shift_from_kernel(k, NW)
        gram = s.S.entries.conj().T @ s.S.entries
        dev = np.abs(gram - np.eye(NW))
        bound = 2 + s.perturbation_degree()
        dev[:bound, :bound] = 0.0
        assert dev[: NW - 2, : NW - 2].max() < 1e-13


class TestPowerIdentities:
    def test_unperturbed_exact(self):
        k = TridiagonalKernel(1, (1.0,), (0.0,))
        rep = verify_power_identities(shift_from_kernel(k, NW), 5)
        assert max(rep["worst"].values()) == 0.0

    def test_two_perturbation(self, two_perturbation_shift):
        rep = verify_power_identities(two_perturbation_shift, 5)
        assert max(rep["worst"].values()) < 1e-14

    def test_rank_one_p_recovery(self):
        # S^m 1 = z^m (1 + p) with p = (a0 - 1) + b0 z for every m >= 1:
        # one perturbation hit, then pure shifting.
        a0, b0 = 1.3, 0.6 - 0.2j
        s = rank_one_shift(a0, b0)
        e0 = np.eye(NW)[:, 0].astype(complex)
        img = e0.copy()
        for m in range(1, 5):
            img = s.S.entries @ img
            p = img[m:].copy()
            p[: NW - m] -= e0[: NW - m]
            assert abs(p[0] - (a0 - 1.0)) < 1e-14
            assert abs(p[1] - b0) < 1e-14
            assert np.abs(p[2 : NW - m]).max() < 1e-14
        rep = verify_power_identities(s, 5)
        assert max(rep["worst"].values()) < 1e-14
        assert all(c["p_degree"] <= 1 for c in rep["checks"])

    def test_commutation_defect_is_nonzero(self, two_perturbation_shift):
        # The factorization S^m = M_z^{m-n} S^n holds even though the two
        # factors do not commute.
        s = two_perturbation_shift.S.entries
        mz = multiplication_by_z_matrix(NW)
        lhs = mz @ (s @ s)
        rhs = s @ (s @ mz)
        assert np.abs(lhs - rhs).max() > 0.5
        assert np.abs(np.linalg.matrix_power(s, 3) - lhs).max() < 1e-14

    def test_random_kernels(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(1, 4))
            b = tuple(0.9 * np.sqrt(rng.uniform(0, 1, n))
                      * np.exp(2j * np.pi * rng.uniform(0, 1, n)))
            s = shift_from_kernel(TridiagonalKernel(n, (1.0,) * n, b), NW)
            assert validate_n_shift(s).passed
            rep = verify_power_identities(s, n + 4)
            assert max(rep["worst"].values()) < 1e-13
