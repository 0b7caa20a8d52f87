"""Acceptance gate: every pinned numeric claim at its stated tolerance.

Each criterion is one test that prints a pass/fail line (visible with
``pytest -s``); the assertions carry the stated tolerances directly.
Everything here runs at working order 128.
"""

import numpy as np
import pytest

from hardy_perturb import (
    BlaschkeProduct,
    Polynomial,
    SubspaceModel,
    TridiagonalKernel,
    blaschke_taylor,
    build_subspace,
    check_cyclic,
    commutant_element,
    essential_normality_witness,
    extract_model,
    hyperinvariance_check,
    krylov_closure,
    multiplication_by_z_matrix,
    numerical_rank,
    orthonormalize,
    principal_angles,
    s1_model,
    self_commutator,
    shift_from_columns,
    shift_from_kernel,
    subspace_difference,
    validate_n_shift,
    verify_model,
    wandering_dimension,
)
from hardy_perturb.shifts import gram_columns
from hardy_perturb.suite import sample_conditioned_trial

from conftest import rank_one_shift, theta_span, two_perturbation

NW = 128
THETA_HALF = BlaschkeProduct(1.0, (0.5,))


def _announce(number, text):
    print(f"PASS criterion {number}: {text}")


def test_criterion_1_two_perturbation_block():
    shift = two_perturbation(NW)
    block = gram_columns(shift, 2)
    assert np.abs(block - np.array([[2.0, 2.0], [2.0, 4.0]])).max() < 1e-12
    assert numerical_rank(shift.F) == 1
    _announce(1, "2-perturbation Gram block [[2,2],[2,4]] and rank-1 F")


def test_criterion_2_self_commutator():
    for a0, b0, det in ((1.0, 1.0, -1.0), (1.0, 0.5, -0.25)):
        rep = self_commutator(rank_one_shift(a0, b0, NW))
        displayed = np.array([
            [abs(a0) ** 2 + abs(b0) ** 2, np.conj(b0), 0.0],
            [b0, 1.0 - abs(a0) ** 2, -a0 * np.conj(b0)],
            [0.0, -np.conj(a0) * b0, -abs(b0) ** 2],
        ])
        assert np.abs(rep.block[:3, :3] - displayed).max() < 1e-12
        assert abs(rep.det_principal - det) < 1e-10
        if (a0, b0) == (1.0, 1.0):
            assert rep.rank == 3
            assert rep.min_eigenvalue < -0.05
            assert not rep.hyponormal
            ess, k = essential_normality_witness(rank_one_shift(a0, b0, NW))
            assert ess and k == 3
    _announce(2, "self-commutator block, rank 3, determinant, non-hyponormality")


def test_criterion_3_model_vector_boundary_values():
    model = s1_model(1.0, 1.0, THETA_HALF)
    phi = model.phi(0, NW)
    assert abs(np.polyval(phi.coeffs[::-1], 1.0) - (-1.75)) < 1e-10
    assert abs(np.polyval(phi.coeffs[::-1], -1.0) - 1.25) < 1e-10
    _announce(3, "model vector values phi(1) = -7/4 and phi(-1) = 5/4")


def test_criterion_4_subspace_pipeline():
    kernel = TridiagonalKernel(1, (1.0,), (1.0,))
    shift = shift_from_kernel(kernel, NW)
    model = s1_model(1.0, 1.0, THETA_HALF)
    space, report = build_subspace(model, shift, NW)
    assert report["invariance_residual"] < 1e-8
    assert wandering_dimension(space, shift) == 1
    recovered = extract_model(space, shift)
    angle = principal_angles(
        theta_span(model.theta, 60, NW), theta_span(recovered.theta, 60, NW)
    ).max()
    assert angle < 1e-6
    cyc, witness = check_cyclic(space, model, shift)
    assert cyc and witness["consistent"]
    assert witness["forward_max_angle"] < 1e-6
    assert witness["reverse_max_angle"] < 1e-6
    _announce(4, "invariance, wandering dimension 1, model recovery, cyclicity")


def test_criterion_5_power_identities():
    mz = multiplication_by_z_matrix(NW)
    for shift in (two_perturbation(NW), rank_one_shift(1.0, 1.0, NW)):
        s = shift.S.entries
        n = shift.n
        s_n = np.linalg.matrix_power(s, n)
        for m in range(n + 1, n + 5):
            lhs = np.linalg.matrix_power(s, m)
            rhs = np.linalg.matrix_power(mz, m - n) @ s_n
            assert np.abs(lhs - rhs).max() < 1e-14
        mz_n = np.linalg.matrix_power(mz, n)
        for m in range(1, 5):
            lhs = np.linalg.matrix_power(mz, m + n)
            rhs = np.linalg.matrix_power(s, m) @ mz_n
            assert np.abs(lhs - rhs).max() < 1e-14
    _announce(5, "power factorization and intertwining identities below 1e-14")


def test_criterion_6_seeded_property_suite():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        kernel, shift, seed_vec = sample_conditioned_trial(rng, NW, 40)
        assert validate_n_shift(shift).passed
        space = krylov_closure(shift, seed_vec, 40)
        assert wandering_dimension(space, shift) == 1
        model = extract_model(space, shift)
        resid = verify_model(model, shift, NW)["max_residual"]
        worst = max(worst, resid)
        assert resid < 1e-6
    _announce(6, f"100 seeded trials, worst chain residual {worst:.2e} < 1e-6")


def test_criterion_7_commutant_suite():
    rng = np.random.default_rng(0)
    kernels = [
        TridiagonalKernel(1, (1.0,), (1.0,)),
        TridiagonalKernel(2, (1.0, 1.0), (0.6, -0.3 + 0.4j)),
        TridiagonalKernel(3, (1.0, 1.0, 1.0), (0.5j, 0.4, -0.2)),
    ]
    for kernel in kernels:
        shift = shift_from_kernel(kernel, NW)
        for _ in range(50):
            deg = int(rng.integers(1, 9))
            radii = np.sqrt(rng.uniform(0.0, 1.0, deg + 1))
            symbol = Polynomial(radii * np.exp(1j * rng.uniform(0, 2 * np.pi, deg + 1)))
            element = commutant_element(symbol, kernel, NW, shift=shift)
            comm = element.X.entries @ shift.S.entries - shift.S.entries @ element.X.entries
            assert np.abs(comm[: NW - 4, : NW - 4]).max() < 1e-10
            assert np.abs(element.N.entries[:, kernel.n :]).max() < 1e-12

    kernel = kernels[0]
    shift = shift_from_kernel(kernel, NW)
    symbol = Polynomial(np.array([0.4, -0.7 + 0.2j, 0.3, 0.1j, -0.25]))
    element = commutant_element(symbol, kernel, NW, shift=shift)
    expected = np.zeros(NW, dtype=complex)
    expected[2 : 2 + symbol.degree] = symbol.coeffs[1:]
    assert np.abs(element.N.entries[:, 0] - expected).max() < 1e-12
    assert np.abs(element.N.entries[:, 1:]).max() < 1e-12

    model = s1_model(1.0, 1.0, THETA_HALF)
    hyper = hyperinvariance_check(model, shift, kernel, 50, seed=0)
    assert hyper["max_residual"] < 1e-8
    _announce(7, "commutation, N-support, correction action, hyperinvariance")


def test_criterion_8_baselines():
    # Unperturbed pipeline collapses to the classical picture.
    span = theta_span(THETA_HALF, 60, NW)
    wander = subspace_difference(span, multiplication_by_z_matrix(NW))
    theta_line = orthonormalize(blaschke_taylor(THETA_HALF, NW).coeffs[:, None])
    assert wander.dim == 1
    assert principal_angles(wander, theta_line).max() < 1e-6

    weighted = shift_from_columns(1, [[0.0, 1.0]], NW)
    t0 = THETA_HALF(0.0)
    model = SubspaceModel(1, THETA_HALF, (Polynomial([1.0]),),
                          (Polynomial([t0 / 2.0]),))
    space, report = build_subspace(model, weighted, NW)
    assert report["invariance_residual"] < 1e-10
    cyc, _ = check_cyclic(space, model, weighted)
    assert cyc
    _announce(8, "classical baseline and weighted-shift model")


def test_criterion_9_restriction_isometry_witness():
    shift = rank_one_shift(1.0, 1.0, NW)
    phi = s1_model(1.0, 1.0, THETA_HALF).phi(0, NW)
    ratio = np.linalg.norm(shift.S.entries @ phi.coeffs) / phi.norm()
    assert abs(ratio - 1.0) > 1e-3

    theta0 = BlaschkeProduct(-1.0, (0.0,))
    phi0 = s1_model(1.0, 1.0, theta0).phi(0, NW)
    ratio0 = np.linalg.norm(shift.S.entries @ phi0.coeffs) / phi0.norm()
    assert abs(ratio0 - 1.0) < 1e-10
    _announce(9, "restriction isometric exactly when theta vanishes at 0")


def test_reference_suite_agrees():
    """The CLI demo table reports the same verdicts as this module."""
    from hardy_perturb.suite import reference_suite

    rows = reference_suite(NW, 0)
    failed = [r["claim"] for r in rows if not r["passed"]]
    assert not failed, f"reference suite failures: {failed}"
