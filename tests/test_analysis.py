import numpy as np
import pytest

from hardy_perturb import (
    TridiagonalKernel,
    essential_normality_witness,
    self_commutator,
    shift_from_kernel,
)
from hardy_perturb.errors import TruncationError
from hardy_perturb.shifts import gram_columns

from conftest import NW, rank_one_shift


def displayed_block(a0, b0):
    """The 3x3 self-commutator block of the rank-one 1-shift, by hand."""
    return np.array([
        [abs(a0) ** 2 + abs(b0) ** 2, np.conj(b0), 0.0],
        [b0, 1.0 - abs(a0) ** 2, -a0 * np.conj(b0)],
        [0.0, -np.conj(a0) * b0, -abs(b0) ** 2],
    ], dtype=complex)


class TestSelfCommutator:
    def test_unperturbed_is_a_rank_one_projection(self):
        kernel = TridiagonalKernel(1, (1.0,), (0.0,))
        rep = self_commutator(shift_from_kernel(kernel, NW))
        assert rep.block_size == 1
        assert rep.block[0, 0] == pytest.approx(1.0)
        assert rep.rank == 1
        assert rep.hyponormal and rep.essentially_normal

    @pytest.mark.parametrize("a0,b0", [(1.0, 1.0), (1.0, 0.5), (0.9, 0.7j)])
    def test_block_matches_hand_formula(self, a0, b0):
        rep = self_commutator(rank_one_shift(a0, b0))
        assert np.abs(rep.block[:3, :3] - displayed_block(a0, b0)).max() < 1e-12

    def test_rank_three_and_negative_determinant(self):
        rep = self_commutator(rank_one_shift(1.0, 1.0))
        assert rep.rank == 3
        assert rep.det_principal.real == pytest.approx(-1.0, abs=1e-10)
        assert abs(rep.det_principal.imag) < 1e-12
        assert rep.min_eigenvalue < -0.05
        assert not rep.hyponormal
        assert rep.essentially_normal

    def test_half_weight_determinant(self):
        rep = self_commutator(rank_one_shift(1.0, 0.5))
        assert rep.det_principal.real == pytest.approx(-0.25, abs=1e-10)

    def test_hermitian_after_masking(self):
        rep = self_commutator(rank_one_shift(1.0, 0.5))
        assert rep.hermitian_defect < 1e-12

    def test_block_independent_of_working_order(self):
        r1 = self_commutator(rank_one_shift(1.0, 1.0, 64))
        r2 = self_commutator(rank_one_shift(1.0, 1.0, 128))
        assert r1.block_size == r2.block_size
        assert np.abs(r1.block - r2.block).max() < 1e-14

    def test_phase_covariance(self):
        # Replacing (a0, b0) by (w a0, w b0) with |w| = 1 keeps the rank and
        # the eigenvalues of the block.
        base = self_commutator(rank_one_shift(0.8, 0.6))
        w = np.exp(0.9j)
        rotated = self_commutator(rank_one_shift(0.8 * w, 0.6 * w))
        assert rotated.rank == base.rank
        eb = np.linalg.eigvalsh(base.block)
        er = np.linalg.eigvalsh(rotated.block)
        assert np.abs(eb - er).max() < 1e-12

    def test_small_working_order_rejected(self):
        with pytest.raises(TruncationError):
            self_commutator(rank_one_shift(1.0, 1.0, 8))


class TestGramBlock:
    def test_two_perturbation(self, two_perturbation_shift):
        block = gram_columns(two_perturbation_shift, 2)
        assert np.abs(block - np.array([[2.0, 2.0], [2.0, 4.0]])).max() < 1e-12

    def test_unperturbed_identity(self):
        kernel = TridiagonalKernel(1, (1.0,), (0.0,))
        block = gram_columns(shift_from_kernel(kernel, NW), 5)
        assert np.abs(block - np.eye(5)).max() < 1e-14

    def test_weighted_shift(self, weighted_shift):
        assert gram_columns(weighted_shift, 1)[0, 0] == pytest.approx(4.0)


class TestEssentialNormality:
    def test_rank_one_shift_block(self):
        ok, k = essential_normality_witness(rank_one_shift(1.0, 1.0))
        assert ok and k == 3

    def test_unperturbed(self):
        kernel = TridiagonalKernel(1, (1.0,), (0.0,))
        ok, k = essential_normality_witness(shift_from_kernel(kernel, NW))
        assert ok and k == 1

    def test_two_perturbation_finite_block(self, two_perturbation_shift):
        ok, k = essential_normality_witness(two_perturbation_shift)
        assert ok
        assert 1 <= k <= 6

    def test_every_kernel_shift_is_essentially_normal(self):
        rng = np.random.default_rng(13)
        for _ in range(8):
            n = int(rng.integers(1, 4))
            b = tuple(0.9 * np.sqrt(rng.uniform(0, 1, n))
                      * np.exp(2j * np.pi * rng.uniform(0, 1, n)))
            shift = shift_from_kernel(TridiagonalKernel(n, (1.0,) * n, b), NW)
            ok, k = essential_normality_witness(shift)
            assert ok and k <= 2 * n + 2


def test_report_json_round_trips():
    import json

    rep = self_commutator(rank_one_shift(1.0, 0.5))
    doc = json.dumps(rep.to_json())
    again = json.loads(doc)
    assert again["rank"] == 3
    assert again["block_size"] == 3
    assert again["hyponormal"] is False
