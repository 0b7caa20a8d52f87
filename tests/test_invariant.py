import numpy as np
import pytest

from hardy_perturb import (
    BlaschkeProduct,
    Polynomial,
    SubspaceModel,
    blaschke_taylor,
    build_subspace,
    check_cyclic,
    extract_model,
    finite_codimension,
    krylov_closure,
    multiplication_by_z_matrix,
    orthonormalize,
    principal_angles,
    s1_model,
    shift_from_columns,
    shift_from_kernel,
    verify_model,
    wandering_dimension,
)
from hardy_perturb import TridiagonalKernel, TruncatedVector, core, invariant, numerical_rank
from hardy_perturb.core import DEFAULT_TOL, Subspace, ToleranceConfig, subspace_difference
from hardy_perturb.shifts import gram_columns
from hardy_perturb.jsonio import model_from_payload
from hardy_perturb.errors import (
    ModelInconsistencyError,
    PreconditionError,
    TruncationError,
    UnsupportedConfigurationError,
)
from hardy_perturb.suite import sample_conditioned_trial

import dense_oracle as oracle
from conftest import NW, rank_one_shift, theta_span


class TestS1Model:
    def test_vanishing_theta_at_origin(self):
        theta = BlaschkeProduct(-1.0, (0.0,))  # the function z
        model = s1_model(1.0, 1.0, theta)
        assert model.p[0].coeffs.tolist() == [1.0]
        assert model.q[0].is_zero
        phi = model.phi(0, NW)
        assert np.abs(phi.coeffs - blaschke_taylor(theta, NW).coeffs).max() < 1e-14

    def test_reference_instance_values(self, theta_half):
        model = s1_model(1.0, 1.0, theta_half)
        phi = model.phi(0, NW)
        assert np.polyval(phi.coeffs[::-1], 1.0).real == pytest.approx(-1.75, abs=1e-10)
        assert np.polyval(phi.coeffs[::-1], -1.0).real == pytest.approx(1.25, abs=1e-10)

    def test_rational_structure(self, theta_half):
        # phi (1 - z/2) must be the polynomial 1/2 - (11/8) z: the only pole
        # of phi sits at z = 2.
        model = s1_model(1.0, 1.0, theta_half)
        phi = model.phi(0, NW)
        prod = np.convolve(phi.coeffs, [1.0, -0.5])[:NW]
        assert prod[0] == pytest.approx(0.5, abs=1e-12)
        assert prod[1] == pytest.approx(-11.0 / 8.0, abs=1e-12)
        assert np.abs(prod[2:]).max() < 1e-12

    def test_hypothesis_violations(self, theta_half):
        with pytest.raises(PreconditionError):
            s1_model(1.0, 0.0, theta_half)
        with pytest.raises(PreconditionError):
            s1_model(0.5, 1.0, theta_half)


class TestBuildSubspace:
    def test_beurling_case(self, theta_half):
        # F = 0: the model subspace is theta H^2 itself.
        kernel = TridiagonalKernel(1, (1.0,), (0.0,))
        shift = shift_from_kernel(kernel, NW)
        model = SubspaceModel(1, theta_half, (Polynomial([1.0]),), (Polynomial([]),))
        space, report = build_subspace(model, shift, NW)
        assert report["invariance_residual"] < 1e-10
        explicit = theta_span(theta_half, space.dim)
        assert explicit.dim == space.dim
        assert principal_angles(space, explicit).max() < 1e-6

    def test_reference_instance(self, one_plus_z_shift, theta_half):
        model = s1_model(1.0, 1.0, theta_half)
        space, report = build_subspace(model, one_plus_z_shift, NW)
        assert report["invariance_residual"] < 1e-10
        assert report["max_residual"] < 1e-12

    def test_vanishing_theta_gives_pure_beurling(self, theta_half):
        # theta(0) = 0 forces phi = theta and the subspace is generated the
        # same way by the plain shift and by the perturbed one.
        theta = BlaschkeProduct(-1.0, (0.0,))
        shift = rank_one_shift(1.0, 1.0)
        model = s1_model(1.0, 1.0, theta)
        space, _ = build_subspace(model, shift, NW)
        phi = model.phi(0, NW)
        mz_closure = krylov_closure(multiplication_by_z_matrix(NW), phi, 40)
        s_closure = krylov_closure(shift, phi, 40)
        assert principal_angles(mz_closure, space).max() < 1e-7
        assert principal_angles(s_closure, space).max() < 1e-7

    def test_inconsistent_model_rejected(self, one_plus_z_shift, theta_half):
        # Perturbing q breaks orthogonality to the tail space.
        bad = SubspaceModel(
            1, theta_half,
            (Polynomial([1.0, 0.25]),),
            (Polynomial([0.3, 0.5]),),
        )
        with pytest.raises(ModelInconsistencyError) as err:
            build_subspace(bad, one_plus_z_shift, NW)
        assert err.value.condition is not None

    def test_degenerate_phi_rejected(self, one_plus_z_shift, theta_half):
        zero = SubspaceModel(1, theta_half, (Polynomial([]),), (Polynomial([]),))
        with pytest.raises(ModelInconsistencyError) as err:
            build_subspace(zero, one_plus_z_shift, NW)
        assert err.value.condition == "phi_nonzero"

    def test_mismatched_n_rejected(self, two_perturbation_shift, theta_half):
        model = s1_model(1.0, 1.0, theta_half)
        with pytest.raises(PreconditionError):
            build_subspace(model, two_perturbation_shift, NW)


class TestWanderingDimension:
    def test_full_space(self, two_perturbation_shift):
        # Oracle: the defect operator I - S (S*S)^{-1} S* is the projection
        # onto the cokernel, whose rank is the wandering dimension.
        # S*S is the identity outside its 2x2 Gram block, so the left inverse
        # (S*S)^{-1} S* only needs that block inverted.
        full = Subspace(np.eye(NW, dtype=np.complex128))
        dim = wandering_dimension(full, two_perturbation_shift)
        s = two_perturbation_shift.S.entries
        gram_inv = np.eye(NW, dtype=np.complex128)
        gram_inv[:2, :2] = np.linalg.inv(gram_columns(two_perturbation_shift, 2))
        defect = np.eye(NW) - s @ gram_inv @ s.conj().T
        guard = NW - 4
        assert dim == numerical_rank(defect[:guard, :guard]) == 1

    def test_beurling_subspace(self, theta_half):
        kernel = TridiagonalKernel(1, (1.0,), (0.0,))
        shift = shift_from_kernel(kernel, NW)
        model = SubspaceModel(1, theta_half, (Polynomial([1.0]),), (Polynomial([]),))
        space, _ = build_subspace(model, shift, NW)
        assert wandering_dimension(space, shift) == 1

    def test_model_subspace_spanned_by_phi(self, one_plus_z_shift, theta_half):
        from hardy_perturb import subspace_difference

        model = s1_model(1.0, 1.0, theta_half)
        space, _ = build_subspace(model, one_plus_z_shift, NW)
        assert wandering_dimension(space, one_plus_z_shift) == 1
        w = subspace_difference(space, one_plus_z_shift)
        phi = model.phi(0, NW)
        overlap = abs(np.vdot(phi.coeffs / phi.norm(), w.basis[:, 0]))
        assert abs(overlap - 1.0) < 1e-10

    def test_non_invariant_input_rejected(self, one_plus_z_shift):
        line = orthonormalize([TruncatedVector.monomial(0, NW)])
        with pytest.raises(PreconditionError):
            wandering_dimension(line, one_plus_z_shift)


class TestExtractModel:
    def test_beurling_round_trip(self, theta_half):
        kernel = TridiagonalKernel(1, (1.0,), (0.0,))
        shift = shift_from_kernel(kernel, NW)
        model = SubspaceModel(1, theta_half, (Polynomial([1.0]),), (Polynomial([]),))
        space, _ = build_subspace(model, shift, NW)
        rec = extract_model(space, shift)
        assert len(rec.theta.zeros) == 1
        assert abs(rec.theta.zeros[0] - 0.5) < 1e-8
        p, q = (poly.coeffs / rec.p[0].coeffs[0] for poly in (rec.p[0], rec.q[0]))
        assert p.size == 1
        assert q.size == 0 or np.abs(q).max() < 1e-9

    def test_reference_round_trip(self, one_plus_z_shift, theta_half):
        model = s1_model(1.0, 1.0, theta_half)
        space, _ = build_subspace(model, one_plus_z_shift, NW)
        rec = extract_model(space, one_plus_z_shift)
        assert abs(rec.theta.zeros[0] - 0.5) < 1e-8
        # Rescale to the p(0) = 1 convention of the forward construction.
        p, q = (poly.coeffs / rec.p[0].coeffs[0] for poly in (rec.p[0], rec.q[0]))
        assert np.abs(p - np.array([1.0, 0.25])).max() < 1e-9
        assert np.abs(q - np.array([0.0, 0.5])).max() < 1e-9
        angle = principal_angles(
            theta_span(rec.theta, 40), theta_span(theta_half, 40)
        ).max()
        assert angle < 1e-6
        assert verify_model(rec, one_plus_z_shift, NW)["max_residual"] < 1e-8

    def test_krylov_sourced_extraction(self, two_perturbation_shift):
        # Cyclic closure of a seed inside z H^2 for the 2-perturbation.
        seed = TruncatedVector.from_coefficients([0.0, 1.0, -0.3, 0.2], NW)
        space = krylov_closure(two_perturbation_shift, seed, 36)
        model = extract_model(space, two_perturbation_shift)
        assert model.n == 2
        report = verify_model(model, two_perturbation_shift, NW)
        assert report["max_residual"] < 1e-6

    @staticmethod
    def near_circle(modulus, nw=256):
        """The s1 model with b0 = 1/2 and zeros {modulus e^{0.7i}, 0.3}, built at ``nw``."""
        theta = BlaschkeProduct(1.0, (modulus * np.exp(0.7j), 0.3))
        shift = shift_from_kernel(TridiagonalKernel(1, (1.0,), (0.5,)), nw)
        space, _ = build_subspace(s1_model(1.0, 0.5, theta), shift, nw)
        return theta, shift, space

    def test_zero_at_0_955_round_trips_at_256(self):
        theta, shift, space = self.near_circle(0.955)
        assert wandering_dimension(space, shift) == 1
        rec = extract_model(space, shift)
        assert len(rec.theta.zeros) == 2
        for a in theta.zeros:
            assert min(abs(a - b) for b in rec.theta.zeros) < 1e-6

    def test_zero_at_0_975_is_a_truncation_error(self, monkeypatch):
        # On the oracles' deep stack the exact path reads the model, but the
        # orthogonal peel finds no wandering vector: the slack below the
        # working order does not hold the truncated tail.
        theta, shift, _ = self.near_circle(0.975)
        space = oracle.build_subspace(s1_model(1.0, 0.5, theta), 256)
        rec = extract_model(space, shift)
        for a in theta.zeros:
            assert min(abs(a - b) for b in rec.theta.zeros) < 1e-10
        peeled = Subspace(space.basis, space.frontier, True)
        monkeypatch.setattr(invariant, "_exact_model", lambda *_: None)
        with pytest.raises(TruncationError, match=r"\d+ rows of slack .*raise --truncation"):
            wandering_dimension(peeled, shift)
        with pytest.raises(TruncationError, match="raise --truncation"):
            extract_model(peeled, shift)
        # Without the invariance certificate the same basis meets the
        # norm-based precondition, which the truncated tail fails.
        raw = Subspace(space.basis, space.frontier)
        with pytest.raises(PreconditionError):
            wandering_dimension(raw, shift)
        with pytest.raises(PreconditionError):
            extract_model(raw, shift)

    def test_raw_basis_must_be_invariant(self, one_plus_z_shift):
        rng = np.random.default_rng(0)
        junk = orthonormalize(rng.standard_normal((NW, 4)))
        with pytest.raises(PreconditionError):
            extract_model(junk, one_plus_z_shift)


class TestCheckCyclic:
    def test_reference_instance_is_cyclic(self, one_plus_z_shift, theta_half):
        model = s1_model(1.0, 1.0, theta_half)
        space, _ = build_subspace(model, one_plus_z_shift, NW)
        verdict, witness = check_cyclic(space, model, one_plus_z_shift)
        assert verdict and witness["consistent"]
        assert witness["forward_max_angle"] < 1e-6
        assert witness["reverse_max_angle"] < 1e-6

    def test_beurling_is_cyclic(self, theta_half):
        kernel = TridiagonalKernel(1, (1.0,), (0.0,))
        shift = shift_from_kernel(kernel, NW)
        model = SubspaceModel(1, theta_half, (Polynomial([1.0]),), (Polynomial([]),))
        space, _ = build_subspace(model, shift, NW)
        verdict, witness = check_cyclic(space, model, shift)
        assert verdict and witness["consistent"]

    def test_synthetic_non_cyclic(self):
        # The 1-shift sending 1 to z + 4 z^3 admits the invariant subspace
        # C 1 (+) z H^2 with p = 1 + 4 z^2 (roots +- i/2, inside the disc):
        # the cyclic closure of the wandering vector misses the z-direction
        # because 1/(1 + 4 z^2) has poles inside the disc.
        shift = shift_from_columns(1, [[0.0, 0.0, 0.0, 4.0]], NW)
        model = SubspaceModel(
            1, BlaschkeProduct(1.0, ()),
            (Polynomial([1.0, 0.0, 4.0]),), (Polynomial([0.0, 0.0, 4.0]),),
        )
        space, report = build_subspace(model, shift, NW)
        assert report["max_residual"] < 1e-12
        verdict, witness = check_cyclic(space, model, shift)
        assert not verdict
        assert witness["consistent"]
        assert witness["forward_max_angle"] > 0.5  # the closure of phi_0 is strictly smaller
        assert max(abs(r) for r in witness["p0_roots"]) < 1.0

    def test_refuses_higher_n(self, two_perturbation_shift, theta_half):
        model = SubspaceModel(
            2, theta_half,
            (Polynomial([1.0]), Polynomial([1.0])),
            (Polynomial([]), Polynomial([])),
        )
        space = Subspace(np.eye(NW, dtype=np.complex128))
        with pytest.raises(UnsupportedConfigurationError):
            check_cyclic(space, model, two_perturbation_shift)

    def test_weighted_shift_cyclic(self, weighted_shift, theta_half):
        t0 = theta_half(0.0)
        model = SubspaceModel(
            1, theta_half, (Polynomial([1.0]),), (Polynomial([t0 / 2.0]),)
        )
        space, report = build_subspace(model, weighted_shift, NW)
        assert report["invariance_residual"] < 1e-10
        verdict, witness = check_cyclic(space, model, weighted_shift)
        assert verdict and witness["consistent"]


class TestFiniteCodimension:
    def test_coordinate_inner_function(self):
        kernel = TridiagonalKernel(1, (1.0,), (0.0,))
        shift = shift_from_kernel(kernel, NW)
        theta = BlaschkeProduct(-1.0, (0.0,))
        model = SubspaceModel(1, theta, (Polynomial([1.0]),), (Polynomial([]),))
        space, _ = build_subspace(model, shift, NW)
        assert finite_codimension(space, model) == 1

    def test_reference_space(self, one_plus_z_shift, theta_half):
        model = s1_model(1.0, 1.0, theta_half)
        space, _ = build_subspace(model, one_plus_z_shift, NW)
        assert finite_codimension(space, model) == 1

    def test_degree_three(self, one_plus_z_shift):
        theta = BlaschkeProduct(1.0, (0.5, -0.3, 0.2j))
        model = s1_model(1.0, 1.0, theta)
        space, _ = build_subspace(model, one_plus_z_shift, NW)
        assert finite_codimension(space, model) == 3

    def test_zero_at_0_9_resolves_codimension_one(self, one_plus_z_shift):
        # The count is dim M^perp on the model space, of dimension n + deg theta
        # whatever the working order and however close the zero is to the circle.
        theta = BlaschkeProduct(1.0, (0.9,))
        model = s1_model(1.0, 1.0, theta)
        space, _ = build_subspace(model, one_plus_z_shift, NW)
        assert finite_codimension(space, model) == 1


class TestRandomTrials:
    def test_wandering_and_extraction(self):
        # Smaller companion of the acceptance property suite.
        rng = np.random.default_rng(4242)
        for _ in range(20):
            kernel, shift, seed_vec = sample_conditioned_trial(rng, 128, 40)
            space = krylov_closure(shift, seed_vec, 40)
            assert wandering_dimension(space, shift) == 1
            model = extract_model(space, shift)
            assert verify_model(model, shift, 128)["max_residual"] < 1e-6


def test_model_json_round_trip(theta_half):
    # The CLI reads model payloads in the format to_json writes.
    model = s1_model(1.0, 1.0, theta_half)
    again = model_from_payload(model.to_json())
    assert again.n == model.n
    assert np.array_equal(again.p[0].coeffs, model.p[0].coeffs)
    assert np.array_equal(again.q[0].coeffs, model.q[0].coeffs)
    assert again.theta.zeros == model.theta.zeros


def test_restriction_norm_witness(theta_half):
    # The restriction to the invariant subspace is isometric exactly when
    # theta vanishes at the origin.
    shift = rank_one_shift(1.0, 1.0)
    model = s1_model(1.0, 1.0, theta_half)
    phi = model.phi(0, NW)
    ratio = np.linalg.norm(shift.S.entries @ phi.coeffs) / phi.norm()
    assert abs(ratio - 1.0) > 1e-3
    theta0 = BlaschkeProduct(-1.0, (0.0,))
    phi0 = s1_model(1.0, 1.0, theta0).phi(0, NW)
    ratio0 = np.linalg.norm(shift.S.entries @ phi0.coeffs) / phi0.norm()
    assert abs(ratio0 - 1.0) < 1e-10


class TestRangeSideStructure:
    """The round trip applies S through its block and symbol, splitting M once."""

    @staticmethod
    def round_trip_model(nw):
        theta = BlaschkeProduct(1.0, (0.5, 0.3j, -0.4 + 0.2j))
        shift = shift_from_kernel(TridiagonalKernel(1, (1.0,), (0.7,)), nw)
        return s1_model(1.0, 0.7, theta), shift

    @classmethod
    def round_trip_space(cls, nw=NW):
        model, shift = cls.round_trip_model(nw)
        space, _ = build_subspace(model, shift, nw)
        return model, shift, space

    @classmethod
    def peeled_space(cls, monkeypatch, nw=NW):
        """The round trip's model as a raw stack at the oracles' depth, read by the
        orthogonal peel: the exact path declines."""
        model, shift = cls.round_trip_model(nw)
        space = oracle.build_subspace(model, nw)
        monkeypatch.setattr(invariant, "_exact_model", lambda *_: None)
        return model, shift, Subspace(space.basis, space.frontier)

    @staticmethod
    def count_splits(monkeypatch):
        """Record the size of every matrix ``invariant._split`` factors."""
        sizes = []
        split = invariant._split

        def counted(a, rel):
            sizes.append(a.shape[0])
            return split(a, rel)

        monkeypatch.setattr(invariant, "_split", counted)
        return sizes

    def test_wandering_split_is_shared_with_extraction(self, monkeypatch):
        model, shift, space = self.peeled_space(monkeypatch)
        fresh = Subspace(space.basis, space.frontier, space.invariant_certified)
        sizes = self.count_splits(monkeypatch)
        assert wandering_dimension(space, shift) == 1
        rec = extract_model(space, shift)
        # One split of M under S and one plain-shift split of S M, not three; the
        # exact division splits only in the model space, of n + deg theta + m rows.
        bound = shift.n + model.theta.degree + max(2 * shift.n, shift.S.block_size) + 1
        assert [k for k in sizes if k > bound] == [space.dim, space.dim - 1]
        again = extract_model(fresh, shift)
        assert [k for k in sizes if k > bound] == [space.dim, space.dim - 1] * 2
        assert rec.theta.zeros == again.theta.zeros
        assert np.array_equal(rec.p[0].coeffs, again.p[0].coeffs)

    def test_another_shift_object_recomputes(self, monkeypatch):
        _, shift, space = self.peeled_space(monkeypatch)
        twin = shift_from_kernel(TridiagonalKernel(1, (1.0,), (0.7,)), NW)
        other = shift_from_kernel(TridiagonalKernel(1, (1.0,), (-0.2,)), NW)
        sizes = self.count_splits(monkeypatch)
        wandering_dimension(space, shift)
        wandering_dimension(space, twin)
        assert len(sizes) == 2
        # The split under another operator is that operator's, not the memo.
        image, wander = invariant._recovery(space, other, DEFAULT_TOL)
        assert len(sizes) == 3
        assert image.shape == (space.dim, space.dim - 1) and wander.shape == (space.dim, 1)
        split = Subspace(space.basis @ wander)
        want = subspace_difference(space, other)
        assert principal_angles(split, want).max(initial=0.0) < 1e-12
        assert split.dim == want.dim
        assert principal_angles(split, subspace_difference(space, shift)).max() > 1e-3

    def test_another_tolerance_recomputes(self, monkeypatch):
        _, shift, space = self.peeled_space(monkeypatch)
        sizes = self.count_splits(monkeypatch)
        wandering_dimension(space, shift, ToleranceConfig())
        wandering_dimension(space, shift, ToleranceConfig())
        assert len(sizes) == 1
        wandering_dimension(space, shift, ToleranceConfig(tau_rank=1e-10))
        assert len(sizes) == 2

    def test_exact_recovery_is_shared_with_extraction(self, monkeypatch):
        _, shift, space = self.round_trip_space()
        twin = shift_from_kernel(TridiagonalKernel(1, (1.0,), (0.7,)), NW)
        calls = []
        exact = invariant._exact_model

        def counted(*args):
            calls.append(exact(*args))
            return calls[-1]

        monkeypatch.setattr(invariant, "_exact_model", counted)
        assert wandering_dimension(space, shift) == 1
        assert extract_model(space, shift) is calls[0] is not None
        assert len(calls) == 1
        assert vars(space)["_wandering_memo"] == (shift, DEFAULT_TOL, calls[0])
        wandering_dimension(space, twin)
        wandering_dimension(space, twin, ToleranceConfig(tau_rank=1e-10))
        fresh = Subspace(space.basis, space.frontier, space.invariant_certified)
        assert extract_model(fresh, shift).theta.zeros == calls[0].theta.zeros
        assert len(calls) == 4

    def test_only_the_input_subspace_keeps_its_split(self, monkeypatch, two_perturbation_shift):
        # n = 2 peels a second stage in coordinates of M: no N-row subspace is
        # built for S M, so only the input holds a memo.
        seed = TruncatedVector.from_coefficients([0.0, 1.0, -0.3, 0.2], NW)
        space = krylov_closure(two_perturbation_shift, seed, 36)
        built = []

        def recorded(*args, **kwargs):
            built.append(orthonormalize(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(invariant, "orthonormalize", recorded)
        assert extract_model(space, two_perturbation_shift).n == 2
        assert built == []
        shift, tol, (image, wander) = vars(space)["_wandering_memo"]
        assert shift is two_perturbation_shift and tol == DEFAULT_TOL
        assert image.shape == (space.dim, space.dim - 1) and wander.shape == (space.dim, 1)

    def test_round_trip_factors_n_rows_once(self, monkeypatch):
        # Mirrors test_round_trip_builds_no_dense_operator for factorizations:
        # on the orthogonal peel only the stack is factored at N rows.
        rows = []
        svd = np.linalg.svd

        def recorded(a, *args, **kwargs):
            rows.append(a.shape[0])
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recorded)
        _, shift, space = self.peeled_space(monkeypatch, 256)
        assert wandering_dimension(space, shift) == 1
        assert len(extract_model(space, shift).theta.zeros) == 3
        assert rows.count(256) == 1
        assert max(r for r in rows if r != 256) <= space.dim

    def test_round_trip_builds_no_dense_operator(self, monkeypatch):
        # Mirrors test_model_side_builds_no_square_array for the range side.
        def refuse(*_):
            raise AssertionError("the range side built a dense M_z")

        for module in (core, invariant):
            monkeypatch.setattr(module, "multiplication_by_z_matrix", refuse, raising=False)
        model, shift, space = self.round_trip_space(256)
        assert wandering_dimension(space, shift) == 1
        rec = extract_model(space, shift)
        cyclic, _ = check_cyclic(space, model, shift)
        assert cyclic and finite_codimension(space, model) == 3
        assert len(rec.theta.zeros) == 3
        assert "entries" not in vars(shift.S)
