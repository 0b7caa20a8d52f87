import numpy as np
import pytest

from hardy_perturb import (
    DEFAULT_TOL,
    commutant,
    NShift,
    OperatorMatrix,
    Polynomial,
    Subspace,
    TridiagonalKernel,
    TruncatedVector,
    build_subspace,
    commutant_element,
    finite_codimension,
    hyperinvariance_check,
    irreducibility_probe,
    multiplication_by_z_matrix,
    orthonormalize,
    s1_model,
    shift_from_kernel,
    verify_commutation,
)
from hardy_perturb.errors import PreconditionError
from hardy_perturb.invariant import _closure_model, _escape

import dense_oracle as oracle
from conftest import NW


@pytest.fixture
def kernels():
    return [
        TridiagonalKernel(1, (1.0,), (1.0,)),
        TridiagonalKernel(2, (1.0, 1.0), (0.6, -0.3 + 0.4j)),
        TridiagonalKernel(3, (1.0, 1.0, 1.0), (0.5j, 0.4, -0.2)),
    ]


class TestCommutantElement:
    def test_coordinate_symbol_gives_the_shift(self, one_plus_z_kernel, one_plus_z_shift):
        element = commutant_element(Polynomial([0.0, 1.0]), one_plus_z_kernel, NW)
        assert np.abs(element.X.entries - one_plus_z_shift.S.entries).max() < 1e-14
        assert np.abs(element.N.entries - one_plus_z_shift.F.entries).max() < 1e-14

    def test_constant_symbol_gives_identity(self, one_plus_z_kernel):
        element = commutant_element(Polynomial([1.0]), one_plus_z_kernel, NW)
        assert np.abs(element.X.entries - np.eye(NW)).max() < 1e-14
        assert np.abs(element.N.entries).max() < 1e-14

    def test_decomposition_is_exact(self, one_plus_z_kernel):
        symbol = Polynomial([0.2, 0.5j, -0.1])
        element = commutant_element(symbol, one_plus_z_kernel, NW)
        assert np.abs(element.X.entries - element.T.entries - element.N.entries).max() == 0.0

    def test_correction_action_on_rank_one_space(self, one_plus_z_kernel):
        # N sends 1 to z (phi - phi(0)) and kills every other monomial.
        symbol = Polynomial([0.4, -0.7 + 0.2j, 0.3, 0.1j])
        element = commutant_element(symbol, one_plus_z_kernel, NW)
        expected = np.zeros(NW, dtype=complex)
        expected[2:5] = symbol.coeffs[1:]
        assert np.abs(element.N.entries[:, 0] - expected).max() < 1e-14
        assert np.abs(element.N.entries[:, 1:]).max() < 1e-14

    def test_displayed_first_column(self, one_plus_z_kernel):
        # First column of the multiplication matrix on the a0 = b0 = 1
        # space: alpha_0, alpha_1, alpha_2 + alpha_1, alpha_3 + alpha_2, ...
        symbol = Polynomial([0.3, -0.2 + 0.1j, 0.7, 0.05j])
        element = commutant_element(symbol, one_plus_z_kernel, NW)
        a = np.zeros(NW + 1, dtype=complex)
        a[:4] = symbol.coeffs
        expected = np.array([a[0], a[1]] + [a[j] + a[j - 1] for j in range(2, 8)])
        assert np.abs(element.X.entries[:8, 0] - expected).max() < 1e-14

    def test_toeplitz_part_carries_the_symbol(self, kernels):
        symbol = Polynomial([0.25, 0.5, -0.125j])
        for kernel in kernels:
            element = commutant_element(symbol, kernel, NW)
            t = element.T.entries
            for k, alpha in enumerate(symbol.coeffs):
                diag = np.diagonal(t, offset=-k)
                assert np.abs(diag - alpha).max() < 1e-14
            assert np.abs(np.triu(t, 1)).max() == 0.0

    def test_correction_lower_block_closed_form(self):
        # Oracle: in rows at and beyond n, the correction matrix carries the
        # difference coefficients times the symbol, entry (t, m) being
        # c_{m, t-m-1} alpha_{t-m-1} with c_{m, p} = b_m - b_{m+p}.
        kernel = TridiagonalKernel(2, (1.0, 1.0), (0.45, -0.3 + 0.2j))
        alpha = np.array([0.3, -0.2 + 0.1j, 0.7, 0.05j, -0.4, 0.22])
        element = commutant_element(Polynomial(alpha), kernel, NW)
        for m in range(kernel.n):
            for t in range(kernel.n, 30):
                k = t - m - 1
                if k < 1:
                    continue
                c = kernel.b_at(m) - kernel.b_at(m + k)
                expected = c * (alpha[k] if k < alpha.size else 0.0)
                assert abs(element.N.entries[t, m] - expected) < 1e-14

    def test_correction_support(self, kernels):
        rng = np.random.default_rng(9)
        for kernel in kernels:
            for _ in range(5):
                deg = int(rng.integers(1, 9))
                symbol = Polynomial(rng.standard_normal(deg + 1)
                                    + 1j * rng.standard_normal(deg + 1))
                element = commutant_element(symbol, kernel, NW)
                assert np.abs(element.N.entries[:, kernel.n:]).max() < 1e-12


class TestVerifyCommutation:
    def test_square_of_the_shift_commutes(self, one_plus_z_shift):
        sq = one_plus_z_shift.S.entries @ one_plus_z_shift.S.entries
        assert verify_commutation(sq, one_plus_z_shift) < 1e-14

    def test_constructed_elements_commute(self, kernels):
        rng = np.random.default_rng(31)
        for kernel in kernels:
            shift = shift_from_kernel(kernel, NW)
            for _ in range(5):
                deg = int(rng.integers(1, 7))
                symbol = Polynomial(rng.standard_normal(deg + 1))
                element = commutant_element(symbol, kernel, NW, shift=shift)
                assert verify_commutation(element.X, shift) < 1e-10

    def test_plain_shift_escapes_the_commutant(self, one_plus_z_shift):
        # [M_z, F] != 0: the unperturbed shift does not commute with S.
        mz = multiplication_by_z_matrix(NW)
        resid = verify_commutation(mz, one_plus_z_shift)
        f = one_plus_z_shift.F.entries
        defect = np.abs(mz @ f - f @ mz).max()
        assert resid > 0.5 and defect > 0.5

    def test_algebra_closure(self, one_plus_z_kernel, one_plus_z_shift):
        a = commutant_element(Polynomial([0.2, 1.0]), one_plus_z_kernel, NW)
        b = commutant_element(Polynomial([0.0, 0.5, -0.3]), one_plus_z_kernel, NW)
        prod = a.X.entries @ b.X.entries
        assert verify_commutation(prod, one_plus_z_shift) < 1e-10


class TestHyperinvariance:
    def test_beurling_space_under_toeplitz(self, theta_half):
        kernel = TridiagonalKernel(1, (1.0,), (0.0,))
        shift = shift_from_kernel(kernel, NW)
        from hardy_perturb import SubspaceModel

        model = SubspaceModel(1, theta_half, (Polynomial([1.0]),), (Polynomial([]),))
        rep = hyperinvariance_check(model, shift, kernel, 20, seed=1)
        assert rep["passed"] and rep["max_residual"] < 1e-10

    def test_model_subspace(self, one_plus_z_kernel, one_plus_z_shift, theta_half):
        model = s1_model(1.0, 1.0, theta_half)
        rep = hyperinvariance_check(model, one_plus_z_shift, one_plus_z_kernel, 50, seed=3)
        assert rep["passed"] and rep["max_residual"] < 1e-8

    def test_non_invariant_subspace_rejected(self, one_plus_z_kernel, one_plus_z_shift,
                                             theta_half):
        # The model of the b0 = 1/2 shift describes no invariant subspace of
        # the b0 = 1 shift.
        wrong = s1_model(1.0, 0.5, theta_half)
        with pytest.raises(PreconditionError):
            hyperinvariance_check(wrong, one_plus_z_shift, one_plus_z_kernel, 3)

    def test_precondition_and_verdict_share_one_threshold(self, one_plus_z_kernel,
                                                          one_plus_z_shift):
        # A 1e-6 edit of q_0 near a zero of modulus 0.999 meets every model
        # condition (residual 1e-6) but leaves an invariance residual of about
        # 4.4e-8: above tau_res, so the check refuses it rather than report
        # passed: false on tolerance alone.  The exact model is the control.
        from hardy_perturb import BlaschkeProduct, SubspaceModel

        model = s1_model(1.0, 1.0, BlaschkeProduct(1.0, (0.999,)))
        q = model.q[0].coeffs.copy()
        q[1] += 1e-6
        edited = SubspaceModel(1, model.theta, model.p, (Polynomial(q),))
        with pytest.raises(PreconditionError, match="invariance residual 4.4"):
            hyperinvariance_check(edited, one_plus_z_shift, one_plus_z_kernel, 20, seed=1)
        rep = hyperinvariance_check(model, one_plus_z_shift, one_plus_z_kernel, 20, seed=1)
        assert rep["passed"] and rep["max_residual"] < 1e-14

    @pytest.mark.parametrize("trials", [0, -3])
    def test_no_trials_is_refused(self, one_plus_z_kernel, one_plus_z_shift, theta_half,
                                  trials):
        # A check that samples no symbol cannot fail, so it must not pass.
        model = s1_model(1.0, 1.0, theta_half)
        with pytest.raises(PreconditionError, match="at least one trial"):
            hyperinvariance_check(model, one_plus_z_shift, one_plus_z_kernel, trials)


class TestIrreducibility:
    def test_backward_shift_escapes_coordinate_beurling(self):
        kernel = TridiagonalKernel(1, (1.0,), (0.0,))
        shift = shift_from_kernel(kernel, NW)
        # z H^2: apply the adjoint to z and you land on the constants.
        cols = [np.eye(NW)[:, k] for k in range(1, 40)]
        space = orthonormalize(np.column_stack(cols), frontier=40,
                               invariant_certified=True)
        rep = irreducibility_probe(shift, kernel, subspaces=[space])
        sample = rep["samples"][0]
        assert not sample["reducing"]
        assert sample["adjoint_escape"] > 0.9

    def test_model_subspace_not_reducing(self, one_plus_z_kernel, one_plus_z_shift,
                                         theta_half):
        model = s1_model(1.0, 1.0, theta_half)
        space, _ = build_subspace(model, one_plus_z_shift, NW)
        rep = irreducibility_probe(one_plus_z_shift, one_plus_z_kernel,
                                   subspaces=[space])
        assert rep["passed"]

    def test_trivial_subspaces_excluded(self, one_plus_z_kernel, one_plus_z_shift):
        from hardy_perturb.core import Subspace

        rep = irreducibility_probe(one_plus_z_shift, one_plus_z_kernel,
                                   subspaces=[Subspace(np.eye(NW, dtype=np.complex128))])
        assert rep["samples"][0].get("skipped") == "trivial"
        # A verdict on no nontrivial sample could not have failed, so it must not pass.
        assert not rep["passed"]
        assert rep["reason"] == "no nontrivial subspace among the 1 given"

    def test_one_nontrivial_given_subspace_passes(self, one_plus_z_kernel, one_plus_z_shift,
                                                  theta_half):
        # Control: next to a trivial sample, one nontrivial subspace is enough.
        from hardy_perturb.core import Subspace

        space, _ = build_subspace(s1_model(1.0, 1.0, theta_half), one_plus_z_shift, NW)
        rep = irreducibility_probe(one_plus_z_shift, one_plus_z_kernel,
                                   subspaces=[Subspace(np.eye(NW, dtype=np.complex128)), space])
        assert [sample.get("skipped") for sample in rep["samples"]] == ["trivial", None]
        assert rep["passed"] and "reason" not in rep

    def test_default_family(self, one_plus_z_kernel, one_plus_z_shift):
        rep = irreducibility_probe(one_plus_z_shift, one_plus_z_kernel, seed=5)
        assert rep["passed"]
        assert len(rep["samples"]) == 3


class TestIrreducibilityOnModelSpaces:
    KERNELS = [
        TridiagonalKernel(1, (1.0,), (1.0,)),
        TridiagonalKernel(2, (1.0, 1.0), (0.6, -0.3 + 0.4j)),
        TridiagonalKernel(3, (1.0, 1.0, 1.0), (0.5j, 0.4, -0.2)),
        TridiagonalKernel(1, (1.0,), (0.0,)),
    ]

    @staticmethod
    def closures(shift, seed, count):
        """The probe's first ``count`` closure models: the same seeded draws."""
        rng = np.random.default_rng(seed)
        models = []
        for _ in range(count):
            deg = int(rng.integers(1, 5))
            coeffs = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            models.append(_closure_model(shift, coeffs)[0])
        return models

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("k", range(4))
    def test_escape_and_codimension_match_the_taylor_oracle(self, k, seed):
        kernel = self.KERNELS[k]
        shift = shift_from_kernel(kernel, NW)
        rep = irreducibility_probe(shift, kernel, seed=seed)
        models = self.closures(shift, seed, len(rep["samples"]))
        assert sum(model.theta.degree > 0 for model in models) == 3 and rep["passed"]
        for sample, model in zip(rep["samples"], models, strict=True):
            assert sample["codimension"] == model.theta.degree == finite_codimension(None, model)
            if sample["codimension"] == 0:
                assert sample == {"codimension": 0, "skipped": "trivial"}
                continue
            want = oracle.taylor_adjoint_escape(model, shift)
            assert abs(sample["adjoint_escape"] - want) <= 1e-12
            assert sample["adjoint_escape"] > 0.1 and not sample["reducing"]

    def test_probe_is_independent_of_the_working_order(self, one_plus_z_kernel):
        small, large = (irreducibility_probe(shift_from_kernel(one_plus_z_kernel, nw),
                                             one_plus_z_kernel, seed=3)["samples"]
                        for nw in (NW, 4096))
        for a, b in zip(small, large, strict=True):
            assert (a["codimension"], a["reducing"]) == (b["codimension"], b["reducing"])
            assert a["adjoint_escape"] == pytest.approx(b["adjoint_escape"], abs=1e-12)

    def test_reducing_subspace_is_reported(self):
        # Control: a coordinate subspace of a diagonal operator reduces it.
        diag = OperatorMatrix(np.diag(np.arange(1.0, 11.0)), size=NW)
        shift = NShift(1, diag, diag)
        space = Subspace(np.eye(NW, dtype=np.complex128)[:, [0, 2, 5]])
        rep = irreducibility_probe(shift, None, subspaces=[space])
        sample = rep["samples"][0]
        assert sample["adjoint_escape"] < DEFAULT_TOL.tau_res and sample["reducing"] is True
        assert rep["nontrivial_reducing_found"] and not rep["passed"]

    def test_escape_helper_on_a_reducing_and_a_moved_complement(self):
        # Control on _escape: a diagonal operator keeps a coordinate
        # complement, the backward shift moves e_1 onto e_0.
        perp = np.eye(6, dtype=np.complex128)[:, [1, 4]]
        assert _escape(perp, np.diag(np.arange(1.0, 7.0))) < DEFAULT_TOL.tau_res
        assert _escape(perp, np.eye(6, k=-1)) == pytest.approx(1.0)

    @pytest.mark.parametrize("k,seed", [(0, 221), (2, 62)])
    def test_probe_draws_past_trivial_closures(self, k, seed):
        # The first three closures drawn at these seeds are the whole space.
        kernel = self.KERNELS[k]
        rep = irreducibility_probe(shift_from_kernel(kernel, NW), kernel, seed=seed)
        codims = [sample["codimension"] for sample in rep["samples"]]
        assert codims[:3] == [0, 0, 0] and rep["passed"] and "reason" not in rep
        assert sum(codim > 0 for codim in codims) == 3 and codims[-1] > 0

    def test_probe_without_a_nontrivial_closure_fails(self, one_plus_z_kernel,
                                                      one_plus_z_shift, monkeypatch):
        # Control: every draw closes to the whole space (h = 1 + z has its root on
        # the circle, outside the boundary margin).
        real = commutant._closure_model
        monkeypatch.setattr(commutant, "_closure_model",
                            lambda shift, coeffs, tol: real(shift, [1.0], tol))
        rep = irreducibility_probe(one_plus_z_shift, one_plus_z_kernel, seed=0)
        assert [s["codimension"] for s in rep["samples"]] == [0] * commutant._PROBE_DRAWS
        assert not rep["passed"] and not rep["nontrivial_reducing_found"]
        assert rep["reason"] == f"0 nontrivial closures in {commutant._PROBE_DRAWS} draws, 3 needed"

    def test_probe_refuses_a_kernel_that_builds_another_shift(self, kernels):
        shift = shift_from_kernel(kernels[2], NW)
        with pytest.raises(PreconditionError, match="kernel has n = 1, shift has n = 3"):
            irreducibility_probe(shift, kernels[0], seed=0)
        moved = TridiagonalKernel(3, (1.0, 1.0, 1.0), (0.5j, 0.4, -0.25))
        with pytest.raises(PreconditionError, match="blocks differ by 5.000e-02"):
            irreducibility_probe(shift, moved, seed=0)
        assert irreducibility_probe(shift, kernels[2], seed=0)["passed"]

    def test_probe_reads_no_dense_matrix(self, one_plus_z_kernel, no_dense):
        rep = irreducibility_probe(shift_from_kernel(one_plus_z_kernel, 65536),
                                   one_plus_z_kernel, seed=0)
        assert rep["passed"] and [s["codimension"] for s in rep["samples"]] == [1, 1, 1]


def test_toeplitz_matrix_shape():
    t = OperatorMatrix.toeplitz(Polynomial([1.0, 2.0]).coeffs, 5).entries
    assert np.array_equal(np.diagonal(t), np.ones(5))
    assert np.array_equal(np.diagonal(t, -1), 2.0 * np.ones(4))
    assert np.abs(np.triu(t, 1)).max() == 0.0
