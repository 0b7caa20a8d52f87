import numpy as np
import pytest

from hardy_perturb import (
    OperatorMatrix,
    Subspace,
    ToleranceConfig,
    TruncatedVector,
    krylov_closure,
    multiplication_by_z_matrix,
    numerical_rank,
    orthonormalize,
    principal_angles,
    subspace_difference,
)
from hardy_perturb import core
from hardy_perturb.core import band_spread, invariance_residual, rank_report
from hardy_perturb.errors import DimensionMismatchError, TruncationError

import dense_oracle as oracle
from conftest import NW, theta_half_taylor_oracle, two_perturbation


def vec(coeffs, nw=NW):
    return TruncatedVector.from_coefficients(coeffs, nw)


class TestMulByZ:
    # Multiplication by z on monomial coefficients is the plain shift matrix.
    def test_single_shift(self):
        out = multiplication_by_z_matrix(NW) @ vec([1]).coeffs
        assert out[1] == 1.0 and abs(out).sum() == 1.0

    def test_double_shift(self):
        mz = multiplication_by_z_matrix(NW)
        out = mz @ (mz @ vec([2, 3]).coeffs)
        assert out[2] == 2.0 and out[3] == 3.0

    def test_overflow_dropped(self):
        f = vec([0] * (NW - 1) + [7])
        assert np.linalg.norm(multiplication_by_z_matrix(NW) @ f.coeffs) == 0.0


class TestOrthonormalize:
    def test_independent_pair(self):
        assert orthonormalize([vec([1]), vec([0, 1])]).dim == 2

    def test_dependent_pair_collapses(self):
        assert orthonormalize([vec([1, 1]), vec([2, 2])]).dim == 1

    def test_blaschke_shifts_are_independent(self):
        # Oracle: classical Gram-Schmidt with explicit residual norms.
        theta = theta_half_taylor_oracle(NW)
        K = 12
        cols = []
        for k in range(K + 1):
            c = np.zeros(NW, dtype=np.complex128)
            c[k:] = theta[: NW - k]
            cols.append(c)
        basis = []
        for c in cols:
            w = c.copy()
            for b in basis:
                w -= np.vdot(b, w) * b
            assert np.linalg.norm(w) > 0.5  # inner multiplication is isometric
            basis.append(w / np.linalg.norm(w))
        out = orthonormalize(np.column_stack(cols))
        assert out.dim == K + 1

    def test_zero_input_gives_empty_subspace(self):
        out = orthonormalize([TruncatedVector(np.zeros(NW))])
        assert out.dim == 0

    def test_output_is_orthonormal(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((NW, 9)) + 1j * rng.standard_normal((NW, 9))
        b = orthonormalize(a).basis
        assert np.abs(b.conj().T @ b - np.eye(b.shape[1])).max() < 1e-10


class TestNumericalRank:
    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((6, 6))) == 0

    def test_two_perturbation_has_rank_one(self, two_perturbation_shift):
        assert numerical_rank(two_perturbation_shift.F) == 1

    def test_unitary_invariance(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
        a[:, 10:] = a[:, :10] @ rng.standard_normal((10, 10))  # rank <= 10... keep general
        q, _ = np.linalg.qr(rng.standard_normal((20, 20))
                            + 1j * rng.standard_normal((20, 20)))
        assert numerical_rank(a) == numerical_rank(q @ a @ q.conj().T)

    def test_rank_report_gap(self):
        rep = rank_report(np.diag([1.0, 0.5, 1e-12]))
        assert rep["rank"] == 2
        assert rep["gap_ratio"] > 1e9


def _zero_symbol_operators(nw=128):
    """Operators whose symbol vanishes outside the block: zero, full-rank and
    order-size blocks, and blocks of random rank 1-4, with no symbol, a zero
    symbol (a kernel shift's ``F``) or a symbol the whole block covers."""
    rng = np.random.default_rng(41)

    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    blocks = [("zero", np.zeros((5, 5))), ("empty", np.zeros((0, 0)))]
    blocks += [(f"full-{k}", gauss(k, k)) for k in (1, 3, 7)]
    blocks += [("order-size", gauss(nw, nw)), ("order-size-rank-3", gauss(nw, 3) @ gauss(3, nw))]
    for rank in (1, 2, 3, 4):
        k = int(rng.integers(rank + 1, 12))
        blocks.append((f"rank-{rank}-of-{k}", gauss(k, rank) @ gauss(rank, k)))
    ops = []
    for name, block in blocks:
        ops.append((name, OperatorMatrix(block, size=nw)))
        ops.append((name + "-zero-symbol", OperatorMatrix(block, (0.0, 0.0), nw)))
    ops.append(("order-size-covers-symbol", OperatorMatrix(blocks[5][1], (0.0, 1.0), nw)))
    return ops


ZERO_SYMBOL_OPERATORS = _zero_symbol_operators()


class TestRankOnTheBlock:
    @pytest.mark.parametrize("name,op", ZERO_SYMBOL_OPERATORS,
                             ids=[name for name, _ in ZERO_SYMBOL_OPERATORS])
    def test_report_equals_the_dense_svd(self, name, op):
        got, want = rank_report(op), oracle.rank_report(op)
        assert set(got) == set(want)
        assert got["rank"] == want["rank"]
        top = want["sigma_max"]
        for key in ("sigma_max", "sigma_at_cut"):
            assert (got[key] is None) == (want[key] is None)
            if want[key] is not None:
                assert got[key] == pytest.approx(want[key], rel=1e-12)
        # Past the cut only rounding is left: equal to the SVD's rounding floor.
        below = (got["sigma_below_cut"], want["sigma_below_cut"])
        assert (below[0] is None) == (below[1] is None)
        if below[1] is not None:
            assert abs(below[0] - below[1]) <= 1e-13 * top
        gaps = (got["gap_ratio"], want["gap_ratio"])
        if below[1] is not None and below[1] > 1e-10 * top:
            assert gaps[0] == pytest.approx(gaps[1], rel=1e-9)
        else:
            assert all(g is None or g > 1e9 for g in gaps)

    def test_a_nonzero_symbol_is_ranked_on_the_dense_matrix(self):
        op = OperatorMatrix(np.zeros((1, 1)), (0.0, 1.0), 16)  # the truncated M_z
        assert rank_report(op) == oracle.rank_report(op)
        assert numerical_rank(op) == 15

    def test_rank_of_f_at_order_65536_reads_only_the_block(self, no_dense):
        assert numerical_rank(two_perturbation(65536).F) == 1

    def test_rank_two_f_fails_the_rank_row(self, monkeypatch):
        # Control: F with columns z^2 and z^3 has rank 2, which the
        # "2-perturbation: rank F" row must refuse.
        from hardy_perturb import shift_from_columns, suite

        def rank_two(nw):
            return shift_from_columns(2, [[0, 0, 1.0], [0, 0, 0, 1.0]], nw)

        assert numerical_rank(rank_two(128).F) == 2
        monkeypatch.setattr(suite, "_two_perturbation_example", rank_two)
        row = {r["claim"]: r for r in suite.check_two_perturbation_block(128, core.DEFAULT_TOL)}
        assert row["2-perturbation: rank F"]["computed"] == 2
        assert not row["2-perturbation: rank F"]["passed"]


class TestSubspaceDifference:
    def test_full_space_under_plain_shift(self):
        full = Subspace(np.eye(NW, dtype=np.complex128))
        w = subspace_difference(full, multiplication_by_z_matrix(NW))
        assert w.dim == 1
        assert abs(abs(w.basis[0, 0]) - 1.0) < 1e-12  # spans the constants

    def test_beurling_wandering_vector(self):
        theta = theta_half_taylor_oracle(NW)
        cols = []
        for k in range(40):
            c = np.zeros(NW, dtype=np.complex128)
            c[k:] = theta[: NW - k]
            cols.append(c)
        space = orthonormalize(np.column_stack(cols))
        w = subspace_difference(space, multiplication_by_z_matrix(NW))
        assert w.dim == 1
        overlap = abs(np.vdot(theta, w.basis[:, 0]))
        assert abs(overlap - 1.0) < 1e-10

    def test_result_is_orthogonal_to_image(self):
        # Monomial block: z^2..z^8 shifts into z^3..z^9, leaving z^2 behind.
        cols = [np.eye(NW)[:, k] for k in range(2, 9)]
        space = orthonormalize(np.column_stack(cols))
        t = multiplication_by_z_matrix(NW)
        w = subspace_difference(space, t)
        assert w.dim == 1
        image = t @ space.basis
        assert np.abs(w.basis.conj().T @ image).max() < 1e-8

    def test_generic_subspace_can_have_empty_difference(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((NW, 7)) + 1j * rng.standard_normal((NW, 7))
        w = subspace_difference(orthonormalize(a), multiplication_by_z_matrix(NW))
        assert w.dim == 0


    def test_plain_array_and_symbol_agree(self):
        # A plain array is applied as it is, not copied into an operator; the
        # Toeplitz M_z gives the same split and residual through its symbol.
        cols = [np.eye(NW)[:, k] for k in range(2, 9)]
        space = orthonormalize(np.column_stack(cols))
        dense = multiplication_by_z_matrix(NW)
        assert core._as_operator(dense) is dense
        toeplitz = OperatorMatrix.toeplitz((0.0, 1.0), NW)
        assert abs(invariance_residual(space, dense) - invariance_residual(space, toeplitz)) < 1e-15
        w_dense = subspace_difference(space, dense)
        w_toeplitz = subspace_difference(space, toeplitz)
        assert w_dense.dim == w_toeplitz.dim == 1
        assert principal_angles(w_dense, w_toeplitz).max() < 1e-12
        with pytest.raises(DimensionMismatchError):
            subspace_difference(space, np.eye(NW - 1))


class TestKrylovClosure:
    def test_constants_generate_everything(self):
        out = krylov_closure(
            multiplication_by_z_matrix(NW), TruncatedVector.from_coefficients([1.0], NW), NW - 1
        )
        assert out.dim == NW

    def test_blaschke_seed_matches_explicit_span(self):
        theta = TruncatedVector(theta_half_taylor_oracle(NW))
        out = krylov_closure(multiplication_by_z_matrix(NW), theta, 30)
        cols = []
        for k in range(31):
            c = np.zeros(NW, dtype=np.complex128)
            c[k:] = theta.coeffs[: NW - k]
            cols.append(c)
        explicit = orthonormalize(np.column_stack(cols))
        angles = principal_angles(out, explicit)
        assert out.dim == explicit.dim == 31
        assert angles.max() < 1e-7

    def test_depth_exhaustion(self):
        f = TruncatedVector.from_coefficients([1], 10)
        with pytest.raises(TruncationError):
            krylov_closure(multiplication_by_z_matrix(10), f, 50)


class TestPrincipalAngles:
    def test_self_comparison(self):
        rng = np.random.default_rng(3)
        a = orthonormalize(rng.standard_normal((NW, 5)))
        assert principal_angles(a, a).max() < 1e-14

    @pytest.mark.parametrize("angle", [1e-10, 1e-7, 0.3, np.pi / 4, 1.2, np.pi / 2 - 1e-9])
    def test_known_angle_is_resolved(self, angle):
        # Below about 1.5e-8 an arccos of the cosine returns 0.
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((NW, 2)) + 1j * rng.standard_normal((NW, 2)))
        line = orthonormalize(q[:, 0])
        tilted = orthonormalize(np.cos(angle) * q[:, 0] + np.sin(angle) * q[:, 1])
        found = principal_angles(line, tilted)
        assert found.size == 1
        assert abs(found[0] - angle) < 1e-6 * angle

    def test_unequal_dimensions(self):
        # A line at angle t from a 3-plane, and two lines inside a 3-plane.
        angle = 1e-9
        plane = orthonormalize([vec([1]), vec([0, 1]), vec([0, 0, 1])])
        line = orthonormalize([vec([0, np.cos(angle), 0, 0, 0, np.sin(angle)])])
        pair = orthonormalize([vec([1, 1]), vec([0, 0, 1])])
        for a, b in ((plane, line), (line, plane)):
            found = principal_angles(a, b)
            assert found.size == 1 and abs(found[0] - angle) < 1e-6 * angle
        assert principal_angles(plane, pair).max() < 1e-15
        assert principal_angles(pair, plane).size == 2

    def test_orthogonal_lines(self):
        one = orthonormalize([vec([1])])
        z = orthonormalize([vec([0, 1])])
        assert principal_angles(one, z).min() == pytest.approx(np.pi / 2)


class TestToleranceConfig:
    def test_defaults(self):
        tol = ToleranceConfig()
        assert tol.tau_rank == 1e-8
        assert tol.tau_res == 1e-8 and tol.tau_angle == 1e-6

    @pytest.mark.parametrize("field", ["tau_rank", "tau_res", "tau_angle"])
    def test_positivity(self, field):
        with pytest.raises(ValueError):
            ToleranceConfig(**{field: 0.0})

    def test_rank_cutoff_below_one(self):
        with pytest.raises(ValueError):
            ToleranceConfig(tau_rank=1.5)

    @pytest.mark.parametrize("field", ["tau_res", "tau_angle"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_thresholds_are_finite(self, field, value):
        # tau_res = inf would pass every residual check, however large.
        with pytest.raises(ValueError, match="finite"):
            ToleranceConfig(**{field: value})


def test_band_spread_of_plain_shift():
    assert band_spread(multiplication_by_z_matrix(8)) == (1, 0)
    assert band_spread(multiplication_by_z_matrix(8).T) == (0, 1)
    assert band_spread(np.zeros((4, 4))) == (0, 0)


def test_non_finite_values_rejected():
    with pytest.raises(ValueError):
        TruncatedVector(np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        OperatorMatrix(np.full((3, 3), np.inf))
